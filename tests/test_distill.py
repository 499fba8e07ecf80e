"""Protocol engine: sifting, blocks, parities, hashing, full sessions."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relqkd.adversary import EveStrategy, ResendPolicy
from relqkd.distill import (
    ProtocolConfig,
    Transcript,
    estimate_error,
    form_parity_bits,
    hash_rounds,
    majority_decode,
    replay_keys,
    run_session,
)
from relqkd.errors import (
    InvalidParameterError,
    ResourceExhaustedError,
)
from relqkd.measurement import BobOutcome


def make_config(**overrides):
    defaults = dict(
        key_length=16, block_size=3, blocks_per_parity=4, hash_rounds=8,
        disclose_fraction=0.1, state_extent=1.0, channel_length=0.5, seed=42,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


class TestSift:
    """A round is sifted exactly when the receiver's outcome is conclusive."""

    def test_all_conclusive_kept(self):
        transcript = run_session(make_config(seed=80))
        assert all(r.sifted and r.b_outcome is not BobOutcome.INCONCLUSIVE
                   for r in transcript.rounds)

    def test_all_inconclusive_dropped(self):
        transcript = run_session(make_config(loss_probability=0.2, seed=80))
        lost = [r for r in transcript.rounds if r.b_outcome is BobOutcome.INCONCLUSIVE]
        assert lost
        assert not any(r.sifted or r.disclosed or r.block is not None for r in lost)

    def test_kept_fraction_matches_loss_rate(self):
        transcript = run_session(make_config(key_length=256, loss_probability=0.2,
                                             seed=80))
        n = len(transcript.rounds)
        assert n >= 5_000
        kept = sum(r.sifted for r in transcript.rounds) / n
        sigma = math.sqrt(0.8 * 0.2 / n)
        assert abs(kept - 0.8) <= 3.0 * sigma


class TestEstimateError:
    def test_noiseless(self):
        rng = np.random.default_rng(0)
        bits = np.ones(100, dtype=int)
        p_err, positions = estimate_error(bits, bits, 0.2, rng)
        assert p_err == 0.0
        assert positions.size == 20

    def test_matches_flip_rate(self):
        rng = np.random.default_rng(1)
        n = 100_000
        a = rng.integers(0, 2, n)
        flips = rng.random(n) < 0.05
        b = a ^ flips
        p_err, positions = estimate_error(a, b, 0.1, rng)
        sigma = math.sqrt(0.05 * 0.95 / positions.size)
        assert abs(p_err - 0.05) <= 3.0 * sigma

    def test_estimate_uses_only_disclosed_positions(self):
        rng = np.random.default_rng(2)
        a = np.zeros(50, dtype=int)
        b = a.copy()
        p_err, positions = estimate_error(a, b, 0.3, rng)
        b2 = a.copy()
        undisclosed = np.setdiff1d(np.arange(50), positions)
        b2[undisclosed] = 1  # corrupt only what was never disclosed
        p_err2, positions2 = estimate_error(a, b2, 0.3, np.random.default_rng(2))
        assert list(positions2) == list(positions)
        assert p_err2 == p_err == 0.0

    def test_zero_disclosure_rejected(self):
        with pytest.raises(InvalidParameterError):
            estimate_error(np.ones(100), np.ones(100), 0.001, np.random.default_rng(0))


class TestMajority:
    @pytest.mark.parametrize("block,expected", [
        ((0, 0, 0, 0, 0), 0),
        ((0, 1, 0, 1, 0), 0),
        ((1, 1, 0, 1, 1), 1),
        ((1,), 1),
    ])
    def test_votes(self, block, expected):
        assert majority_decode(block) == expected

    def test_even_block_rejected(self):
        with pytest.raises(InvalidParameterError):
            majority_decode((0, 1, 1, 0))

    def test_votes_over_last_axis(self):
        stack = np.array([[0, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=np.uint8)
        assert majority_decode(stack).tolist() == [0, 1, 1]
        with pytest.raises(InvalidParameterError):
            majority_decode(stack[:, :2])

    @pytest.mark.parametrize("p_flip", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_block_error_matches_binomial_tail(self, p_flip, k):
        blocks = 50_000
        rng = np.random.default_rng(900 + k * 10 + int(p_flip * 100))
        flips = (rng.random((blocks, k)) < p_flip).astype(int)
        wrong = sum(majority_decode(row) for row in flips)
        expected = sum(
            math.comb(k, j) * p_flip ** j * (1.0 - p_flip) ** (k - j)
            for j in range(k // 2 + 1, k + 1)
        )
        sigma = math.sqrt(expected * (1.0 - expected) / blocks)
        assert abs(wrong / blocks - expected) <= 3.0 * sigma + 1e-9


class TestParityBits:
    def test_all_zero_blocks(self):
        assert list(form_parity_bits(np.zeros(8, dtype=int), [range(0, 4), range(4, 8)])) == [0, 0]

    def test_single_one_block(self):
        bits = np.zeros(4, dtype=int)
        bits[2] = 1
        assert list(form_parity_bits(bits, [range(0, 4)])) == [1]

    def test_against_recomputation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bits = rng.integers(0, 2, 24)
            groups = [range(j * 4, (j + 1) * 4) for j in range(6)]
            expected = [int(np.bitwise_xor.reduce(bits[list(g)])) for g in groups]
            assert list(form_parity_bits(bits, groups)) == expected

    def test_overlapping_groups_rejected(self):
        with pytest.raises(InvalidParameterError):
            form_parity_bits(np.zeros(6, dtype=int), [range(0, 3), range(2, 5)])

    def test_missing_blocks_exhaust(self):
        with pytest.raises(ResourceExhaustedError):
            form_parity_bits(np.zeros(4, dtype=int), [range(0, 3), range(3, 6)])

    @pytest.mark.parametrize("groups", [
        [range(0, 3), range(3, 5)],
        [range(0, 0)],
        [],
        [range(-1, 1)],
    ], ids=["ragged", "empty-group", "no-groups", "negative"])
    def test_malformed_groups_rejected(self, groups):
        with pytest.raises(InvalidParameterError):
            form_parity_bits(np.zeros(6, dtype=int), groups)


class TestHashRounds:
    def test_identical_strings_never_abort(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 24)
        result = hash_rounds(bits, bits.copy(), 8, rng)
        assert not result.aborted
        assert result.key_a.size == 16
        assert (result.key_a == result.key_b).all()

    def test_each_round_shortens_by_one(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 21)
        result = hash_rounds(bits, bits.copy(), 5, rng)
        lengths = [len(h.subset) for h in result.log]
        assert lengths == [21, 20, 19, 18, 17]
        assert result.key_a.size == 16

    @pytest.mark.parametrize("errors", [1, 5])
    def test_single_round_detection_is_half(self, errors):
        # A uniform non-zero subset has odd overlap with any non-zero error
        # pattern with probability 2^(n-1)/(2^n - 1), whatever its weight.
        rng = np.random.default_rng(6)
        n, trials = 20, 20_000
        detected = 0
        for _ in range(trials):
            a = rng.integers(0, 2, n)
            b = a.copy()
            b[rng.choice(n, size=errors, replace=False)] ^= 1
            detected += hash_rounds(a, b, 1, rng).aborted
        sigma = math.sqrt(0.25 / trials)
        assert abs(detected / trials - 0.5) <= 3.0 * sigma + 1e-5

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            hash_rounds([0, 1], [0, 1, 1], 1, np.random.default_rng(0))

    def test_too_many_rounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            hash_rounds([0, 1, 1], [0, 1, 1], 3, np.random.default_rng(0))


class TestRunSession:
    def test_noiseless_session_agrees(self):
        transcript = run_session(make_config())
        assert not transcript.aborted
        assert transcript.key_a.size == 16
        assert (transcript.key_a == transcript.key_b).all()
        assert transcript.p_err_estimate == 0.0
        # Noiseless and honest: every round is conclusive.
        assert all(r.sifted for r in transcript.rounds)

    def test_same_seed_byte_identical(self):
        t1 = run_session(make_config(flip_probability=0.02, seed=77))
        t2 = run_session(make_config(flip_probability=0.02, seed=77))
        assert t1.to_text() == t2.to_text()

    def test_different_seed_differs(self):
        t1 = run_session(make_config(seed=1))
        t2 = run_session(make_config(seed=2))
        assert t1.to_text() != t2.to_text()

    def test_block_and_group_structure(self):
        transcript = run_session(make_config(seed=9))
        members = {}
        for r in transcript.rounds:
            if r.block is not None:
                assert r.sifted and not r.disclosed
                members.setdefault(r.block, []).append(r)
        # Every used block has exactly k members with identical sent bits,
        # and belongs to exactly one parity group of n blocks.
        groups = {}
        for block, rows in members.items():
            assert len(rows) == 3
            assert len({r.a_bit for r in rows}) == 1
            group_ids = {r.parity_group for r in rows}
            assert len(group_ids) == 1
            groups.setdefault(group_ids.pop(), set()).add(block)
        assert len(groups) == 16 + 8
        assert all(len(blocks) == 4 for blocks in groups.values())

    def test_disclosed_rounds_not_in_blocks(self):
        transcript = run_session(make_config(seed=10))
        for r in transcript.rounds:
            if r.disclosed:
                assert r.block is None

    def test_flip_noise_shows_in_estimate(self):
        transcript = run_session(make_config(
            key_length=8, hash_rounds=4, block_size=5, flip_probability=0.05,
            disclose_fraction=0.3, seed=1234))
        disclosed = sum(r.disclosed for r in transcript.rounds)
        sigma = math.sqrt(0.05 * 0.95 / disclosed)
        assert abs(transcript.p_err_estimate - 0.05) <= 4.0 * sigma

    def test_loss_shortens_sifted_set(self):
        transcript = run_session(make_config(loss_probability=0.3, seed=5))
        sifted = sum(r.sifted for r in transcript.rounds)
        assert 0 < sifted < len(transcript.rounds)
        assert not transcript.aborted

    def test_eavesdropper_raises_disclosed_mismatch(self):
        eve = EveStrategy(delay=0.25, channel_length=0.5)
        transcript = run_session(make_config(eve=eve, seed=21,
                                             disclose_fraction=0.25))
        # No-fire rounds resend a coin flip: mismatch rate (1 - f)/2 = 0.125.
        assert transcript.p_err_estimate > 0.05
        assert any(r.eve_outcome is not None for r in transcript.rounds)

    def test_no_resend_exhausts(self):
        eve = EveStrategy(delay=0.0, channel_length=0.5,
                          resend_policy=ResendPolicy.NO_RESEND)
        with pytest.raises(ResourceExhaustedError):
            run_session(make_config(eve=eve))

    def test_strategy_geometry_mismatch_rejected(self):
        eve = EveStrategy(delay=0.0, channel_length=0.3)
        with pytest.raises(InvalidParameterError):
            make_config(eve=eve, channel_length=0.5)

    def test_even_block_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_config(block_size=4)


def _edit_blocks(edit):
    """A mangle applying ``edit`` to the rounds that a transcript puts in blocks.

    ``edit`` gets the split rows of those rounds, grouped by block, and
    changes them in place; fields 1, 6 and 7 are the sent bit, the block
    and the parity group.
    """
    def mangle(text):
        lines = text.split("\n")
        n = int(lines[1].split("\t")[1])
        rows = [line.split("\t") for line in lines[3:3 + n]]
        blocks = {}
        for r in rows:
            if r[6] != "-":
                blocks.setdefault(int(r[6]), []).append(r)
        edit([blocks[b] for b in sorted(blocks)])
        lines[3:3 + n] = ["\t".join(r) for r in rows]
        return "\n".join(lines)
    return mangle


def _set(rows, field, value):
    for r in rows:
        r[field] = value


def _drop_first_rounds(blocks):
    for rows in blocks:
        _set(rows[:1], 6, "-")
        _set(rows[:1], 7, "-")


def _flip_sent_bit(blocks):
    row = blocks[0][0]
    row[1] = "1" if row[1] == "0" else "0"


def _renumber_last_group(blocks):
    last = blocks[-1][0][7]
    for rows in blocks:
        if rows[0][7] == last:
            _set(rows, 7, str(int(last) + 1))


INCONSISTENT_BLOCKS = {
    "blank-group": lambda blocks: _set(blocks[0], 7, "-"),
    "two-groups": lambda blocks: _set(blocks[0][:1], 7, "1"),
    "unequal-blocks": lambda blocks: _set(blocks[0][:1], 6, "1"),
    "even-blocks": _drop_first_rounds,
    "mixed-sent-bits": _flip_sent_bit,
    "group-id-gap": _renumber_last_group,
    "unequal-groups": lambda blocks: _set(blocks[0], 7, "1"),
    "huge-block-id": lambda blocks: _set(blocks[0], 6, str(10 ** 12)),
}


class TestTranscript:
    def test_text_round_trip(self):
        transcript = run_session(make_config(flip_probability=0.01, seed=31))
        text = transcript.to_text()
        assert text.startswith("relqkd-transcript/1\n")
        parsed = Transcript.from_text(text)
        assert parsed.to_text() == text

    def test_replay_reproduces_keys(self):
        for seed in (1, 7, 13):
            transcript = run_session(make_config(seed=seed))
            key_a, key_b = replay_keys(transcript)
            assert (key_a == transcript.key_a).all()
            assert (key_b == transcript.key_b).all()

    def test_replay_on_noisy_session(self):
        transcript = run_session(make_config(
            key_length=8, hash_rounds=4, flip_probability=0.03, seed=200))
        key_a, key_b = replay_keys(transcript)
        if transcript.aborted:
            assert key_a is None and key_b is None
        else:
            assert (key_a == transcript.key_a).all()
            assert (key_b == transcript.key_b).all()

    def test_rejects_foreign_text(self):
        with pytest.raises(InvalidParameterError):
            Transcript.from_text("not-a-transcript\n")

    def test_replay_rejects_wrong_discarded_position(self):
        transcript = run_session(make_config(seed=3))
        first = transcript.hash_log[0]
        moved = dataclasses.replace(first, discarded=first.discarded + 1)
        tampered = dataclasses.replace(
            transcript, hash_log=(moved,) + transcript.hash_log[1:])
        with pytest.raises(InvalidParameterError):
            replay_keys(tampered)

    @pytest.mark.parametrize("case", sorted(INCONSISTENT_BLOCKS))
    def test_replay_rejects_inconsistent_blocks(self, case):
        text = _edit_blocks(INCONSISTENT_BLOCKS[case])(NOISY_TEXT)
        assert text != NOISY_TEXT
        with pytest.raises(InvalidParameterError):
            replay_keys(Transcript.from_text(text))

    @settings(max_examples=100, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), n=st.integers(1, 3),
           key_length=st.integers(1, 12), rounds=st.integers(1, 6),
           flip=st.floats(0.0, 0.05), loss=st.floats(0.0, 0.2),
           eavesdrop=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_engine_and_replay_agree(self, k, n, key_length, rounds, flip, loss,
                                     eavesdrop, seed):
        eve = EveStrategy(delay=0.25, channel_length=0.5) if eavesdrop else None
        try:
            transcript = run_session(make_config(
                key_length=key_length, block_size=k, blocks_per_parity=n,
                hash_rounds=rounds, flip_probability=flip, loss_probability=loss,
                eve=eve, seed=seed))
        except ResourceExhaustedError:
            return
        text = transcript.to_text()
        parsed = Transcript.from_text(text)
        assert parsed.to_text() == text
        key_a, key_b = replay_keys(parsed)
        if transcript.aborted:
            assert key_a is None and key_b is None
        else:
            assert key_a.tolist() == transcript.key_a.tolist()
            assert key_b.tolist() == transcript.key_b.tolist()


NOISY_TEXT = run_session(make_config(key_length=4, hash_rounds=3, blocks_per_parity=2,
                                     flip_probability=0.05, seed=5)).to_text()


class TestTranscriptParseErrors:
    """Malformed transcripts raise InvalidParameterError, never a raw error."""

    @pytest.mark.parametrize("mangle", [
        lambda t: t[: len(t) // 2],
        lambda t: re.sub(r"\n0\t[01]\t", "\n0\tx\t", t, count=1),
        lambda t: "relqkd-transcript/1\n",
        lambda t: "relqkd-transcript/1\nrounds\n",
        lambda t: t.replace("rounds\t", "rounds\t9", 1),
    ], ids=["half", "garbled-a_bit", "empty", "rounds-header-cut", "rounds-overcount"])
    def test_known_defects(self, mangle):
        text = mangle(NOISY_TEXT)
        assert text != NOISY_TEXT
        with pytest.raises(InvalidParameterError):
            Transcript.from_text(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_truncated_or_garbled(self, data):
        text = NOISY_TEXT
        cut = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:cut]
        else:
            text = text[:cut] + data.draw(st.sampled_from("\t\n-x017.")) + text[cut + 1:]
        try:
            parsed = Transcript.from_text(text)
        except InvalidParameterError:
            return
        assert isinstance(parsed, Transcript)
