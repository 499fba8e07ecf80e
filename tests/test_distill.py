"""Protocol engine: sifting, blocks, parities, hashing, full sessions."""

import dataclasses
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from relqkd import distill
from relqkd.adversary import EveStrategy, ResendPolicy
from relqkd.distill import (
    ProtocolConfig,
    RoundRecord,
    Transcript,
    _bits_text,
    _hash_step,
    _int_to_bits,
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
from relqkd.harness import cmd_distill
from relqkd.measurement import BobOutcome, EveOutcome
from relqkd.security import build_report
from relqkd.wavepacket import make_plateau
import reference
from test_golden import DISTILL_CASES, DISTILL_INI, campaign


def make_config(**overrides):
    defaults = dict(
        key_length=16, block_size=3, blocks_per_parity=4, hash_rounds=8,
        disclose_fraction=0.1, envelope=make_plateau(1.0), channel_length=0.5, seed=42,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


def _sifted(transcript) -> int:
    """The number of rounds whose receiver outcome is conclusive."""
    return int(np.count_nonzero(transcript.round_table[:, 1] != 2))


class TestSift:
    """A round is sifted exactly when the receiver's outcome is conclusive."""

    def test_all_conclusive_kept(self):
        transcript = run_session(make_config(seed=80))
        assert all(r.b_outcome is not BobOutcome.INCONCLUSIVE for r in transcript.rounds)

    def test_all_inconclusive_dropped(self):
        transcript = run_session(make_config(loss_probability=0.2, seed=80))
        lost = [r for r in transcript.rounds if r.b_outcome is BobOutcome.INCONCLUSIVE]
        assert lost
        assert not any(r.disclosed or r.block is not None for r in lost)

    def test_kept_fraction_matches_loss_rate(self):
        transcript = run_session(make_config(key_length=320, loss_probability=0.2,
                                             seed=80))
        n = len(transcript.rounds)
        assert n >= 5_000
        kept = _sifted(transcript) / n
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

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 3, 5, 255, 257, 511]),
           st.sampled_from([np.bool_, np.uint8, np.int32, np.int64]),
           st.integers(0, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_votes_equal_an_int64_column_sum(self, k, dtype, rows, seed, p_one):
        # At k = 255 and above, the votes of an all-ones row pass the
        # largest value of a narrower sum.
        bits = (np.random.default_rng(seed).random((rows, k)) < p_one).astype(dtype)
        bits[: rows // 4] = 1
        expected = (bits.astype(np.int64).sum(axis=-1) * 2 > k).astype(np.int64)
        votes = majority_decode(bits)
        assert votes.dtype == np.int64 and np.array_equal(votes, expected)
        if rows:
            assert majority_decode(bits[0]) == expected[0]

    @pytest.mark.parametrize("p_flip", [0.01, 0.05, 0.1])
    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_block_error_matches_binomial_tail(self, p_flip, k):
        blocks = 50_000
        rng = np.random.default_rng(900 + k * 10 + int(p_flip * 100))
        flips = (rng.random((blocks, k)) < p_flip).astype(int)
        # One stacked call: test_votes_equal_an_int64_column_sum checks it
        # against row-by-row votes.
        wrong = int(majority_decode(flips).sum())
        expected = sum(
            math.comb(k, j) * p_flip ** j * (1.0 - p_flip) ** (k - j)
            for j in range(k // 2 + 1, k + 1)
        )
        sigma = math.sqrt(expected * (1.0 - expected) / blocks)
        assert abs(wrong / blocks - expected) <= 3.0 * sigma + 1e-9


class TestParityBits:
    """Parity bit j XORs the n blocks j*n .. j*n+n-1."""

    def test_all_zero_blocks(self):
        assert list(form_parity_bits(np.zeros(8, dtype=int), 4)) == [0, 0]

    def test_single_one_block(self):
        bits = np.zeros(4, dtype=int)
        bits[2] = 1
        assert list(form_parity_bits(bits, 4)) == [1]

    def test_against_recomputation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bits = rng.integers(0, 2, 24)
            for n in (1, 2, 3, 4, 6, 8, 12, 24):
                expected = []
                for j in range(24 // n):
                    parity = 0
                    for b in bits[j * n:(j + 1) * n]:
                        parity ^= int(b)
                    expected.append(parity)
                assert form_parity_bits(bits, n).tolist() == expected

    # The transcript checks n before it forms parity bits: NOISY's 14 blocks
    # cannot split into groups of four (ragged), of zero or of a negative
    # size, or of fifteen (not even one group).
    @pytest.mark.parametrize("n", [4, 0, 15, -1],
                             ids=["ragged", "empty-group", "no-groups", "negative"])
    def test_malformed_groups_rejected(self, n):
        with pytest.raises(InvalidParameterError,
                           match=f"^14 blocks do not split into parity groups of {n} blocks$"):
            dataclasses.replace(NOISY, blocks_per_parity=n)

    def test_group_size_that_is_no_integer_rejected(self):
        with pytest.raises(InvalidParameterError, match="blocks_per_parity must be an integer"):
            dataclasses.replace(NOISY, blocks_per_parity="x")

    def test_bits_of_any_integer_or_bool_dtype_accepted(self):
        for dtype in (np.bool_, np.int8, np.uint8, np.int64, np.uint64):
            bits = np.array([1, 0, 1, 1], dtype=dtype)
            assert form_parity_bits(bits, 2).tolist() == [1, 0]


def _subsets(rng, length, rounds):
    """Uniform non-zero subsets at the lengths a matching walk meets."""
    return [format(int(rng.integers(1, 1 << n)), f"0{n}b")
            for n in range(length, length - rounds, -1)]


class TestHashRounds:
    def test_identical_strings_never_abort(self):
        rng = np.random.default_rng(3)
        bits = rng.integers(0, 2, 24)
        _, key_a, key_b = hash_rounds(bits, bits.copy(), _subsets(rng, 24, 8))
        assert key_a.size == 16
        assert (key_a == key_b).all()

    def test_each_round_shortens_by_one(self):
        rng = np.random.default_rng(4)
        bits = rng.integers(0, 2, 21)
        log, key_a, _ = hash_rounds(bits, bits.copy(), _subsets(rng, 21, 5))
        assert [len(h.subset) for h in log] == [21, 20, 19, 18, 17]
        assert key_a.size == 16

    def test_walk_stops_at_the_first_mismatch(self):
        # Round 1 keeps the differing bit (position 2) and drops position 0;
        # round 2 selects the differing bit, now at position 1.
        log, key_a, key_b = hash_rounds([0, 1, 0, 1], [0, 1, 1, 1], ["1100", "010", "01"])
        assert key_a is None and key_b is None
        assert [(h.round_index, h.discarded) for h in log] == [(1, 0), (2, None)]

    @pytest.mark.parametrize("errors", [1, 5])
    def test_single_round_detection_is_half(self, errors):
        # A uniform non-zero subset has odd overlap with any non-zero error
        # pattern with probability 2^(n-1)/(2^n - 1), whatever its weight.
        rng = np.random.default_rng(6)
        n, trials = 20, 20_000
        a = rng.integers(0, 1 << n, size=trials, dtype=np.uint64)
        positions = rng.permuted(np.tile(np.arange(n, dtype=np.uint64), (trials, 1)),
                                 axis=1)[:, :errors]
        b = a ^ np.bitwise_or.reduce(np.uint64(1) << positions, axis=1)
        subset = rng.integers(1, 1 << n, size=trials, dtype=np.uint64)
        pa, pb, _, _ = _hash_step(a, b, subset)
        detected = np.count_nonzero(pa != pb)
        sigma = math.sqrt(0.25 / trials)
        assert abs(detected / trials - 0.5) <= 3.0 * sigma + 1e-5

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), length=st.integers(2, 24))
    def test_keys_are_none_exactly_when_the_last_round_discards_none(self, data, length):
        bits = st.lists(st.integers(0, 1), min_size=length, max_size=length)
        bits_a = np.array(data.draw(bits), dtype=np.uint8)
        bits_b = bits_a ^ np.array(data.draw(bits), dtype=np.uint8)
        rounds = data.draw(st.integers(1, length - 1))
        subsets = [format(data.draw(st.integers(1, (1 << n) - 1)), f"0{n}b")
                   for n in range(length, length - rounds, -1)]
        log, key_a, key_b = hash_rounds(bits_a, bits_b, subsets)
        assert (key_a is None) == (key_b is None) == (log[-1].discarded is None)
        assert all(h.discarded is not None for h in log[:-1])
        assert key_a is None or (len(log), key_a.size) == (rounds, length - rounds)

    def test_too_many_rounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            hash_rounds([0, 1, 1], [0, 1, 1], ["111", "11", "1"])

    @pytest.mark.parametrize("subsets", [[], ["1101"], ["11", "1"], ["110", "00"],
                                         ["1_1", "11"], ["1+1", "11"]],
                             ids=["none", "long", "short", "zero", "underscore", "plus"])
    def test_subset_not_a_bit_string_of_the_current_length_rejected(self, subsets):
        with pytest.raises(InvalidParameterError):
            hash_rounds([0, 1, 1], [0, 1, 1], subsets)

    # Subset 2 was once checked only when the walk reached it, so whether
    # a call was refused depended on the bits: with these it aborted first.
    @pytest.mark.parametrize("subsets", [["100", 5], ["100", "111"], ["100", "00"]],
                             ids=["int", "long", "zero"])
    def test_every_subset_checked_before_the_walk(self, subsets):
        for bits_b in ([0, 1, 1], [1, 1, 1]):
            with pytest.raises(InvalidParameterError, match="hash subset 2"):
                hash_rounds([0, 1, 1], bits_b, subsets)

    # Each once raised a raw AttributeError or TypeError.
    @pytest.mark.parametrize("subsets", [[5], [None], [b"100"], iter(["100"])],
                             ids=["int", "none", "bytes", "iterator"])
    def test_subsets_that_are_not_a_sequence_of_strings_rejected(self, subsets):
        with pytest.raises(InvalidParameterError, match="hash subset"):
            hash_rounds([0, 1, 1], [0, 1, 1], subsets)


def _drop_bit(v: int, pos: int) -> int:
    """The bit-removal formula the hash step replaced, as a reference."""
    return ((v >> (pos + 1)) << pos) | (v & ((1 << pos) - 1))


class TestHashStep:
    def test_arrays_agree_with_ints_row_by_row(self):
        rng = np.random.default_rng(21)
        rows, length = 1000, 63
        a = rng.integers(0, 1 << length, size=rows, dtype=np.uint64)
        b = a ^ rng.integers(0, 1 << length, size=rows, dtype=np.uint64)
        b[::2] = a[::2] ^ (np.uint64(1) << rng.integers(0, length, size=rows // 2,
                                                        dtype=np.uint64))
        subset = rng.integers(1, 1 << length, size=rows, dtype=np.uint64)
        pa, pb, next_a, next_b = _hash_step(a, b, subset)
        assert 0 < np.count_nonzero(pa != pb) < rows
        for i in range(rows):
            ints = _hash_step(int(a[i]), int(b[i]), int(subset[i]))
            assert ints == (int(pa[i]), int(pb[i]), int(next_a[i]), int(next_b[i]))

    @pytest.mark.parametrize("length", [2, 65, 1034])
    def test_ints_match_the_drop_bit_formula(self, length):
        rng = np.random.default_rng(length)
        for _ in range(500):
            ia, ib, s = (int.from_bytes(rng.bytes(length // 8 + 1), "little")
                         % (1 << length) for _ in range(3))
            s = s or 1 << int(rng.integers(0, length))
            pos = (s & -s).bit_length() - 1
            assert _hash_step(ia, ib, s) == (
                (ia & s).bit_count() & 1, (ib & s).bit_count() & 1,
                _drop_bit(ia, pos), _drop_bit(ib, pos))


class TestKeyHelpers:
    """The vectorised key helpers against the per-bit loops they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2 ** n - 1)
                            | st.integers(2 ** (n - 1), 2 ** n - 1))))
    @example((1, 1))
    @example((13, 2 ** 12 | 5))
    @example((64, 2 ** 63))
    @example((200, 2 ** 200 - 1))
    def test_int_to_bits(self, case):
        length, v = case
        bits = _int_to_bits(v, length)
        assert bits.dtype == np.uint8
        assert bits.tolist() == [(v >> i) & 1 for i in range(length)]

    @given(st.lists(st.integers(0, 1), max_size=200))
    @example([])
    def test_bits_text(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        assert _bits_text(bits) == "".join("1" if int(b) else "0" for b in bits)


class TestRunSession:
    def test_noiseless_session_agrees(self):
        transcript = run_session(make_config())
        assert not transcript.aborted
        assert transcript.key_a.size == 16
        assert (transcript.key_a == transcript.key_b).all()
        assert transcript.p_err_estimate == 0.0
        # Noiseless and honest: every round is conclusive.
        assert _sifted(transcript) == len(transcript.rounds)

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
                assert r.b_outcome is not BobOutcome.INCONCLUSIVE and not r.disclosed
                members.setdefault(r.block, []).append(r)
        # Every used block has exactly k members with identical sent bits;
        # the (N + M) * n blocks make N + M parity groups of n blocks each.
        assert transcript.blocks_per_parity == 4
        groups = {}
        for block, rows in members.items():
            assert len(rows) == 3
            assert len({r.a_bit for r in rows}) == 1
            groups.setdefault(block // transcript.blocks_per_parity, set()).add(block)
        assert sorted(members) == list(range((16 + 8) * 4))
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
        assert 0 < _sifted(transcript) < len(transcript.rounds)
        assert not transcript.aborted

    def test_eavesdropper_raises_disclosed_mismatch(self):
        eve = EveStrategy(delay=0.25)
        transcript = run_session(make_config(eve=eve, seed=21,
                                             disclose_fraction=0.25))
        # No-fire rounds resend a coin flip: mismatch rate (1 - f)/2 = 0.125.
        assert transcript.p_err_estimate > 0.05
        assert any(r.eve_outcome is not None for r in transcript.rounds)

    def test_no_resend_exhausts(self):
        eve = EveStrategy(delay=0.0, resend_policy=ResendPolicy.NO_RESEND)
        with pytest.raises(ResourceExhaustedError):
            run_session(make_config(eve=eve))

    def test_plan_past_int32_round_ids_refused(self, monkeypatch):
        # Round ids are int32, so a session holds at most _MAX_ROUNDS
        # rounds; the cap is lowered here so that no test draws 2^31.  This
        # session expects 288 / 0.9 = 320 rounds (every round passes) and
        # plays 323.  A cap of 323 plays it; one of 322 refuses it while
        # drawing, and one below 320 before anything is drawn, naming the
        # expected count.
        cfg = make_config()
        assert len(run_session(cfg).round_table) == 323
        monkeypatch.setattr(distill, "_MAX_ROUNDS", 323)
        assert len(run_session(cfg).round_table) == 323
        monkeypatch.setattr(distill, "_MAX_ROUNDS", 322)
        with pytest.raises(ResourceExhaustedError, match="a session needs more than 322 rounds"):
            run_session(cfg)
        monkeypatch.setattr(distill, "_MAX_ROUNDS", 319)
        with pytest.raises(ResourceExhaustedError,
                           match="a session expects 320 rounds, more than the 319 "):
            run_session(cfg)

    def test_wait_for_a_disclosure_refused_before_drawing(self, monkeypatch):
        # A session also waits for a disclosed round, 1 / (p_sift * d)
        # rounds on average: 10^12 here, where its blocks need 320.
        def no_draw(*args):
            raise AssertionError("a refused session drew rounds")
        monkeypatch.setattr(distill, "_rounds", no_draw)
        with pytest.raises(ResourceExhaustedError, match="a session expects 1e\\+12 rounds"):
            run_session(make_config(disclose_fraction=1e-12))

    def test_wait_for_a_disclosure_sizes_the_chunks(self, monkeypatch):
        # Its blocks take 320 rounds and a disclosure 10^4 on average, so
        # every chunk is 10^4 rounds long, the blocks' and the later ones.
        draws = []

        class Counted(np.random.Generator):
            def random(self, **kw):
                draws.append(kw["out"].size)
                return super().random(**kw)

        stream = distill._stream
        monkeypatch.setattr(distill, "_stream", lambda seed, name: (
            Counted(stream(seed, name).bit_generator) if name == "bits" else stream(seed, name)))
        cfg = make_config(disclose_fraction=1e-4)
        transcript = run_session(cfg)
        rounds = len(transcript.round_table)
        assert rounds > 10_000
        assert draws == [10_000] * math.ceil(rounds / 10_000)
        assert transcript == reference.session(cfg)

    def test_memory_error_refused(self, monkeypatch):
        def exhausted(*args):
            raise MemoryError
        monkeypatch.setattr(distill, "_rounds", exhausted)
        with pytest.raises(ResourceExhaustedError, match="about 320 rounds does not fit"):
            run_session(make_config())

    def test_strategy_geometry_mismatch_rejected(self):
        # The channel length lives in the config alone, so a strategy cannot
        # disagree with it: a strategy given one of its own is refused.
        with pytest.raises(TypeError):
            EveStrategy(delay=0.0, channel_length=0.3)
        with pytest.raises(InvalidParameterError, match="resend policy"):
            EveStrategy(0.0, 0.3)

    def test_even_block_size_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_config(block_size=4)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError, match="seed must be >= 0"):
            make_config(seed=-1)

    # A bare extent, as the config once took, is refused by type, and so is
    # every other field of the wrong type, which once raised a raw error in
    # run_session or was truncated without a word.
    @pytest.mark.parametrize("field, value, refusal", [
        ("envelope", 1.0, "envelope must be a Plateau"),
        ("eve", 0.5, "eve must be an EveStrategy or None"),
        ("seed", 1.5, "seed must be an integer"),
        ("key_length", 4.5, "key_length must be an integer"),
        ("block_size", 3.0, "block_size must be an integer"),
        ("blocks_per_parity", "2", "blocks_per_parity must be an integer"),
        ("hash_rounds", 4.0, "hash_rounds must be an integer"),
        ("disclose_fraction", "x", "disclose_fraction must be a real number"),
        ("channel_length", "x", "channel_length must be a real number"),
        ("flip_probability", "x", "flip_probability must be a real number"),
        ("loss_probability", None, "loss_probability must be a real number"),
    ], ids=["envelope", "eve", "seed", "key-length", "block-size", "blocks-per-parity",
            "hash-rounds", "disclose-fraction", "channel-length", "flip-probability",
            "loss-probability"])
    def test_field_of_the_wrong_type_rejected(self, field, value, refusal):
        with pytest.raises(InvalidParameterError, match=refusal):
            make_config(**{field: value})

    # Each range refusal of the config, at L = 1.
    @pytest.mark.parametrize("field, value, refusal", [
        ("key_length", 0, "key length must be >= 1, got 0"),
        ("blocks_per_parity", 0, "blocks per parity must be >= 1, got 0"),
        ("hash_rounds", 0, "hash rounds must be >= 1, got 0"),
        ("disclose_fraction", 0.0, "disclose fraction must lie in \\(0, 1\\), got 0.0"),
        ("disclose_fraction", 1.0, "disclose fraction must lie in \\(0, 1\\), got 1.0"),
        ("channel_length", 1.0, "need 0 <= L_ch < L, got L_ch=1.0, L=1.0"),
        ("channel_length", -0.1, "need 0 <= L_ch < L, got L_ch=-0.1, L=1.0"),
        ("flip_probability", 1.5, "flip probability must lie in \\[0, 1\\]"),
        ("loss_probability", 1.0, "loss probability must lie in \\[0, 1\\)"),
    ], ids=["key-length-0", "blocks-per-parity-0", "hash-rounds-0", "disclose-0",
            "disclose-1", "channel-at-L", "channel-negative", "flip-1.5", "loss-1"])
    def test_field_out_of_range_rejected(self, field, value, refusal):
        with pytest.raises(InvalidParameterError, match=f"^{refusal}$"):
            make_config(**{field: value})

    # Each once raised a raw AttributeError.
    @pytest.mark.parametrize("cfg", [None, "x"], ids=["none", "string"])
    def test_config_that_is_no_protocol_config_rejected(self, cfg):
        with pytest.raises(InvalidParameterError,
                           match=f"^the config must be a ProtocolConfig, got {cfg!r}$"):
            run_session(cfg)

    def test_numpy_float_fields_read_as_floats(self):
        config = make_config(disclose_fraction=np.float32(0.125), channel_length=np.float64(0.5),
                             flip_probability=0, loss_probability=np.float16(0.25))
        assert all(type(getattr(config, name)) is float
                   for name in ("disclose_fraction", "channel_length", "flip_probability",
                                "loss_probability"))
        assert (config.disclose_fraction, config.flip_probability) == (0.125, 0.0)

    def test_numpy_integer_fields_accepted(self):
        config = make_config(key_length=np.int64(8), block_size=np.int32(3), seed=np.uint8(3))
        assert run_session(config) == run_session(make_config(key_length=8, block_size=3,
                                                              seed=3))


def _edit(edit):
    """A mangle applying ``edit`` to the columns and the blocks of a transcript text.

    ``edit`` gets the text's parts as strings and lists of strings and
    changes them in place: ``cols`` maps each flag and outcome column to
    its characters, ``blocks`` lists each block's member round ids and
    ``n`` is the blocks header's blocks per parity bit.  The rest of the
    blocks header is written from the edited blocks.
    """
    def mangle(text):
        lines = text.split("\n")
        cols = {name: list(chars) for name, chars in
                (line.split("\t") for line in lines[2:6])}
        _, _, k, n = lines[6].split("\t")
        ids = lines[7].split(" ")
        parts = dict(cols=cols, n=n,
                     blocks=[ids[i:i + int(k)] for i in range(0, len(ids), int(k))])
        edit(parts)
        blocks = parts["blocks"]
        lines[2:6] = [name + "\t" + "".join(chars) for name, chars in cols.items()]
        lines[6] = f"blocks\t{len(blocks)}\t{len(blocks[0])}\t{parts['n']}"
        lines[7] = " ".join(i for ids in blocks for i in ids)
        return "\n".join(lines)
    return mangle


def _set_members(parts, column, value):
    for i in parts["blocks"][0]:
        parts["cols"][column][int(i)] = value


def _set_first_member(column, value):
    return _edit(lambda p: p["cols"][column].__setitem__(int(p["blocks"][0][0]), value))


def _drop_first_rounds(parts):
    for ids in parts["blocks"]:
        del ids[0]


def _flip_sent_bit(parts):
    sent = parts["cols"]["a_bit"]
    i = int(parts["blocks"][0][0])
    sent[i] = "1" if sent[i] == "0" else "0"


def _inconclusive_one(parts):
    # A round that read `one` in a sent-bit-1 block: the parity strings stay
    # the same, so only the per-round flags can reveal the edit.
    cols = parts["cols"]
    i = next(int(i) for ids in parts["blocks"] for i in ids
             if cols["a_bit"][int(i)] == "1" and cols["b_outcome"][int(i)] == "1")
    cols["b_outcome"][i] = "?"


def _descend_first_block(parts):
    ids = parts["blocks"][0]
    ids[0], ids[1] = ids[1], ids[0]


def _set_n(value):
    return _edit(lambda p: p.__setitem__("n", value))


def _set_block(index, value):
    """A tamper writing ``value`` at ``index`` of a copy of the blocks."""
    def tamper(blocks):
        blocks = blocks.copy()
        blocks[index] = value
        return blocks
    return tamper


# A block defect is a text mangle where the text can spell it.  NOISY has
# 14 blocks, so groups of n = 3 would differ in size.
TEXT_BLOCK_DEFECTS = {
    "even-blocks": _edit(_drop_first_rounds),
    "mixed-sent-bits": _edit(_flip_sent_bit),
    "unequal-groups": _set_n("3"),
    "member-out-of-range": _edit(
        lambda p: p["blocks"][0].__setitem__(0, str(len(p["cols"]["a_bit"])))),
    "unsifted-round": _edit(lambda p: _set_members(p, "b_outcome", "?")),
    "disclosed-round": _edit(lambda p: _set_members(p, "disclosed", "1")),
    "inconclusive-round": _edit(_inconclusive_one),
}
# The text cannot spell blocks of unequal sizes or ids that are not rounds
# of the table.  These defects are given to the constructor, which refuses
# them, so no transcript that holds them reaches to_text.
ARRAY_BLOCK_DEFECTS = {
    "unequal-blocks": lambda blocks: [*blocks[:-1].tolist(), blocks[-1, 1:].tolist()],
    "huge-block-id": _set_block((0, 0), 2 ** 31 - 1),
}
INCONSISTENT_BLOCKS = TEXT_BLOCK_DEFECTS | ARRAY_BLOCK_DEFECTS
# Nor can it spell a round table that is not 2-D with one column per
# ROUND_COLUMNS name, as the five columns were while a block column
# followed the four.  The constructor refuses these too.  (A block column
# of -1 for no block is refused sooner, as no uint8 value.)
TABLE_SHAPE_DEFECTS = {
    "block-column": lambda table: np.column_stack([table, np.zeros(len(table), np.uint8)]),
    "one-d-table": lambda table: table[:, 0],
    "no-columns": lambda table: table[:, :0],
}


def _inconsistent(case) -> Transcript:
    """NOISY with the defect ``case``, parsed from text where it can be spelled."""
    if case in TEXT_BLOCK_DEFECTS:
        text = TEXT_BLOCK_DEFECTS[case](NOISY_TEXT)
        assert text != NOISY_TEXT
        return Transcript.from_text(text)
    if case in TABLE_SHAPE_DEFECTS:
        return dataclasses.replace(
            NOISY, round_table=TABLE_SHAPE_DEFECTS[case](NOISY.round_table))
    return dataclasses.replace(NOISY, blocks=ARRAY_BLOCK_DEFECTS[case](NOISY.blocks))


class TestTranscript:
    def test_text_round_trip(self):
        transcript = run_session(make_config(flip_probability=0.01, seed=31))
        text = transcript.to_text()
        assert text.startswith("relqkd-transcript/4\n")
        parsed = Transcript.from_text(text)
        assert parsed.to_text() == text
        assert parsed == transcript

    def test_equality_compares_arrays(self):
        text = run_session(make_config(seed=31)).to_text()
        parsed = Transcript.from_text(text)
        assert parsed == Transcript.from_text(text)
        # A conclusive round, neither disclosed nor in a block, made
        # inconclusive: only the tables tell the records apart.
        table = parsed.round_table.copy()
        free = np.setdiff1d(np.flatnonzero((table[:, 1] != 2) & (table[:, 3] == 0)),
                            parsed.blocks)
        table[free[0], 1] = 2
        changed = dataclasses.replace(parsed, round_table=table)
        assert changed.hash_log == parsed.hash_log and changed != parsed
        # Blocks 0 and 1 XOR into the same parity bit: swapped, only the
        # blocks tell the records apart.
        order = [1, 0, *range(2, len(parsed.blocks))]
        swapped = dataclasses.replace(parsed, blocks=parsed.blocks[order])
        assert swapped.hash_log == parsed.hash_log and swapped != parsed
        # n sets the length of the first subset, so n alone cannot change.
        with pytest.raises(InvalidParameterError, match="hash subset 1"):
            dataclasses.replace(parsed, blocks_per_parity=3)
        first = parsed.subsets[0]
        rotated = first[1:] + first[:1]
        assert rotated != first
        assert parsed != dataclasses.replace(parsed, subsets=(rotated,) + parsed.subsets[1:])
        assert parsed != text

    def test_unannounced_subsets_do_not_count(self):
        # An aborted session drew all M = 3 subsets but announced those up
        # to the mismatch; it keeps only these, as its text does, and so
        # does the constructor given all three.
        parsed = Transcript.from_text(ABORTED_TEXT)
        assert ABORTED.aborted
        assert parsed.subsets == ABORTED.subsets
        assert len(ABORTED.subsets) == len(ABORTED.hash_log) < 3
        assert parsed == ABORTED
        drawn = ABORTED.subsets + ("1" * 6, "1" * 5)[len(ABORTED.subsets) - 1:]
        rebuilt = dataclasses.replace(ABORTED, subsets=drawn)
        assert rebuilt.subsets == ABORTED.subsets and rebuilt == ABORTED

    @pytest.mark.parametrize("last", ["1" * 6, "0" * 5, "1_111"], ids=["long", "zero", "not-bits"])
    def test_malformed_subset_past_the_abort_refused(self, last):
        # The walk aborts before subset 3, which is checked all the same.
        drawn = ABORTED.subsets + ("1" * 6, "1" * 5)[len(ABORTED.subsets) - 1:]
        with pytest.raises(InvalidParameterError, match="hash subset 3"):
            dataclasses.replace(ABORTED, subsets=drawn[:2] + (last,))

    def test_subsets_that_are_no_tuple_rejected(self):
        with pytest.raises(InvalidParameterError, match="^subsets must be a tuple of strings$"):
            dataclasses.replace(NOISY, subsets=list(NOISY.subsets))

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

    @pytest.mark.parametrize("text", [5, None, b"not-a-transcript\n"],
                             ids=["int", "none", "bytes"])
    def test_rejects_what_is_no_str(self, text):
        # 5 once raised a raw TypeError.
        with pytest.raises(InvalidParameterError, match="a transcript is a str"):
            Transcript.from_text(text)

    def test_rejects_schema_1(self):
        text = ("relqkd-transcript/1\nrounds\t1\n"
                "round\ta_bit\tb_outcome\teve_outcome\tsifted\tdisclosed\tblock\tparity_group\n"
                "0\t0\tzero\t-\t1\t0\t0\t0\n")
        with pytest.raises(InvalidParameterError,
                           match="relqkd-transcript/4.*relqkd-transcript/1"):
            Transcript.from_text(text)

    def test_rejects_schema_2(self):
        # The same session as the /2 writer spelled it, with a sifted column,
        # a two-field blocks header and a parity-group line.
        with pytest.raises(InvalidParameterError,
                           match="relqkd-transcript/4.*relqkd-transcript/2"):
            Transcript.from_text(_as_schema_2(NOISY_TEXT))

    def test_rejects_schema_3(self):
        # The same session as the /3 writer spelled it, its member ids
        # unpadded; under a /4 header those ids do not fill the line.
        text = _as_schema_3(NOISY_TEXT)
        with pytest.raises(InvalidParameterError,
                           match="relqkd-transcript/4.*relqkd-transcript/3"):
            Transcript.from_text(text)
        with pytest.raises(InvalidParameterError, match="members line disagrees"):
            Transcript.from_text(text.replace("/3", "/4", 1))

    def test_replay_rejects_wrong_discarded_position(self):
        text = run_session(make_config(seed=3)).to_text()
        tampered = re.sub(r"(discarded\n1\t[01]+\t[01]\t[01]\t)(\d+)",
                          lambda m: m[1] + str(int(m[2]) + 1), text, count=1)
        assert tampered != text
        with pytest.raises(InvalidParameterError):
            Transcript.from_text(tampered)

    @pytest.mark.parametrize("case", sorted(INCONSISTENT_BLOCKS))
    def test_replay_rejects_inconsistent_blocks(self, case):
        # The reader or the constructor refuses them, so no transcript
        # that replay_keys could be given holds them.
        with pytest.raises(InvalidParameterError):
            _inconsistent(case)

    @pytest.mark.parametrize("case", sorted(ARRAY_BLOCK_DEFECTS | TABLE_SHAPE_DEFECTS))
    def test_to_text_refuses_unspellable_blocks(self, case):
        # The constructor refuses them, so no transcript to_text could spell holds them.
        refusal = "round table must be 2-D" if case in TABLE_SHAPE_DEFECTS else "blocks must be"
        with pytest.raises(InvalidParameterError, match=refusal):
            _inconsistent(case)

    @pytest.mark.parametrize("column,code", [(0, 2), (0, -1), (1, 3), (2, 4), (3, -2 ** 31)])
    def test_to_text_refuses_codes_outside_the_alphabets(self, column, code):
        # The constructor refuses a code to_text could not spell, and one
        # that is no uint8 value first.
        table = NOISY.round_table.astype(np.int64)
        table[0, column] = code
        refusal = "outside its column's alphabet" if code >= 0 else "array of uint8 values"
        with pytest.raises(InvalidParameterError, match=refusal):
            dataclasses.replace(NOISY, round_table=table)

    def test_blocks_derived_once(self, monkeypatch):
        # A session's transcript keeps the blocks the session formed, and a
        # reader or the constructor keeps the blocks it is given, after one
        # check of the listing; nothing derives them again.
        calls = []
        listed = distill._listed_blocks
        monkeypatch.setattr(distill, "_listed_blocks",
                            lambda *args: calls.append(1) or listed(*args))
        transcript = run_session(make_config(flip_probability=0.02, seed=8))
        text = transcript.to_text()
        transcript.key_a, transcript.aborted, transcript.hash_log
        assert not calls
        Transcript.from_text(text).key_a
        assert len(calls) == 1
        Transcript(transcript.round_table, transcript.blocks, transcript.subsets,
                   transcript.blocks_per_parity).key_a
        assert len(calls) == 2
        with pytest.raises(InvalidParameterError, match="differs from what to_text writes"):
            Transcript.from_text(_edit(_descend_first_block)(text))
        assert len(calls) == 3

    def test_round_table_is_read_only(self):
        # The derived values are cached, so the arrays they came from are
        # frozen, also where dataclasses.replace passes writeable ones.
        writeable, blocks = NOISY.round_table.copy(), NOISY.blocks.copy()
        for transcript in (NOISY, dataclasses.replace(NOISY, round_table=writeable,
                                                      blocks=blocks)):
            with pytest.raises(ValueError):
                transcript.round_table[0, 0] = 1 - transcript.round_table[0, 0]
            with pytest.raises(ValueError):
                transcript.blocks[[0, 1]] = transcript.blocks[[1, 0]]
            assert transcript.to_text() == NOISY_TEXT
        # They are copies: whoever holds the arrays passed in cannot change them.
        writeable[NOISY.blocks[0], 0] ^= 1
        blocks[[0, 1]] = blocks[[1, 0]]
        assert np.array_equal(transcript.round_table, NOISY.round_table)
        assert np.array_equal(transcript.blocks, NOISY.blocks)
        assert transcript.to_text() == NOISY_TEXT

    def test_rounds_follow_the_table(self):
        # Long enough that the records are built over several row chunks.
        transcript = run_session(make_config(key_length=640, flip_probability=0.02, seed=9))
        rows = transcript.round_table.tolist()
        assert len(rows) > 2 * 4096
        for b, members in enumerate(transcript.blocks.tolist()):
            for i in members:
                rows[i].append(b)
        bob, eve = list(BobOutcome), list(EveOutcome) + [None]
        assert [[r.a_bit, bob.index(r.b_outcome), eve.index(r.eve_outcome), int(r.disclosed),
                 *([] if r.block is None else [r.block])]
                for r in transcript.rounds] == rows
        assert [r.index for r in transcript.rounds] == list(range(len(rows)))

    def test_layout_independence(self):
        for transcript in (NOISY, ABORTED, Transcript.from_text(NOISY_TEXT)):
            table = transcript.round_table
            assert table.flags.f_contiguous
            assert table.dtype == np.uint8 and table.shape == (len(table), 4)
        c_order = dataclasses.replace(NOISY, round_table=np.ascontiguousarray(NOISY.round_table))
        assert c_order.round_table.flags.f_contiguous
        assert c_order.to_text() == NOISY_TEXT
        assert c_order == NOISY
        assert c_order.key_a.tolist() == NOISY.key_a.tolist()
        assert c_order.key_b.tolist() == NOISY.key_b.tolist()
        # Another dtype is copied to uint8, and refused where a value would wrap.
        wide = NOISY.round_table.astype(np.int64)
        assert dataclasses.replace(NOISY, round_table=wide) == NOISY
        wide[0, 0] = 2 ** 8
        with pytest.raises(InvalidParameterError, match="uint8"):
            dataclasses.replace(NOISY, round_table=wide)
        # A Python int past int64 once raised a raw OverflowError.
        huge = NOISY.round_table.astype(object)
        huge[0, 0] = 2 ** 70
        with pytest.raises(InvalidParameterError, match="uint8"):
            dataclasses.replace(NOISY, round_table=huge)

    @pytest.mark.parametrize("column,code", [
        (0, 2), (1, 3), (2, 4), (3, 2), (3, -1), (0, -1), (2, -1),
    ])
    def test_to_text_refuses_codes_outside_the_alphabet(self, column, code):
        table = NOISY.round_table.astype(np.int64)
        table[0, column] = code
        with pytest.raises(InvalidParameterError):
            dataclasses.replace(NOISY, round_table=table)

    @settings(max_examples=100, deadline=None)
    @given(dtype=st.sampled_from([np.bool_, np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                  np.uint32, np.int64, np.uint64, object]),
           order=st.sampled_from("CF"), fired=st.booleans())
    def test_table_of_codes_is_kept_as_uint8(self, dtype, order, fired):
        # Any integer or bool table of a record's codes is kept unchanged.
        # A bool table holds 0 and 1 only: every round conclusive and every
        # round fired on, which changes no block and no parity.
        codes = NOISY.round_table.copy()
        if fired or dtype is np.bool_:
            codes[:, 1] = np.where(codes[:, 1] == 2, codes[:, 0], codes[:, 1])
            codes[:, 2] = codes[:, 0]
        table = np.asarray(codes.astype(dtype), order=order)
        kept = Transcript(table, NOISY.blocks, NOISY.subsets, NOISY.blocks_per_parity).round_table
        assert kept.dtype == np.uint8 and kept.flags.f_contiguous
        assert not kept.flags.writeable and np.array_equal(kept, codes)

    @settings(max_examples=200, deadline=None)
    @given(cell=st.tuples(st.integers(0, 71), st.integers(0, 3)),
           value=st.one_of(st.integers(-2 ** 70, -1), st.integers(2, 300),
                           st.integers(256, 2 ** 70)))
    def test_code_outside_uint8_or_its_alphabet_is_refused(self, cell, value):
        # The table takes the narrowest dtype that holds the value (object
        # past 64 bits); a value outside [0, 255] is no uint8 code, and one
        # inside it but past the column's alphabet cannot be spelled.
        i, j = cell
        i %= len(NOISY.round_table)
        assume(value < 0 or value >= distill._ALPHABETS[j].size)
        table = NOISY.round_table.astype(object)
        table[i, j] = value
        table = np.array(table, dtype=np.min_scalar_type(value))
        with pytest.raises(InvalidParameterError,
                           match="array of uint8 values|outside its column's alphabet"):
            Transcript(table, NOISY.blocks, NOISY.subsets, NOISY.blocks_per_parity)

    @settings(max_examples=100, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), n=st.integers(1, 3),
           key_length=st.integers(1, 12), rounds=st.integers(1, 6),
           flip=st.floats(0.0, 0.05), loss=st.floats(0.0, 0.2),
           eavesdrop=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_engine_and_replay_agree(self, k, n, key_length, rounds, flip, loss,
                                     eavesdrop, seed):
        eve = EveStrategy(delay=0.25) if eavesdrop else None
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
        assert parsed == transcript and parsed.subsets == transcript.subsets
        assert parsed.round_table.dtype == transcript.round_table.dtype
        key_a, key_b = replay_keys(parsed)
        if transcript.aborted:
            assert key_a is None and key_b is None
        else:
            assert key_a.tolist() == transcript.key_a.tolist()
            assert key_b.tolist() == transcript.key_b.tolist()

    @settings(max_examples=100, deadline=None)
    @given(key_length=st.integers(1, 16), k=st.sampled_from([1, 3]), n=st.integers(1, 3),
           rounds=st.integers(1, 6), flip=st.sampled_from([0.0, 0.05, 0.2]),
           eve_delay=st.sampled_from([None, 0.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_aborted_is_what_the_keys_say(self, key_length, k, n, rounds, flip, eve_delay,
                                          seed):
        # The abort is derived from the keys, in the session and in its text read back.
        try:
            transcript = run_session(make_config(
                key_length=key_length, block_size=k, blocks_per_parity=n, hash_rounds=rounds,
                flip_probability=flip, eve=None if eve_delay is None else EveStrategy(eve_delay),
                seed=seed))
        except ResourceExhaustedError:
            return
        for t in (transcript, Transcript.from_text(transcript.to_text())):
            assert t.aborted == (t.key_a is None) == (t.key_b is None)
            assert t.aborted == (t.hash_log[-1].discarded is None)


NOISY = run_session(make_config(key_length=4, hash_rounds=3, blocks_per_parity=2,
                                flip_probability=0.05, seed=5))
NOISY_TEXT = NOISY.to_text()
# The first seed whose eavesdropped session aborts before its last hash round.
ABORTED = next(transcript for transcript in (
    run_session(make_config(key_length=4, hash_rounds=3, blocks_per_parity=2,
                            eve=EveStrategy(delay=0.0), seed=seed)) for seed in itertools.count())
    if len(transcript.hash_log) < 3 and transcript.aborted)
ABORTED_TEXT = ABORTED.to_text()
EAVESDROPPED = run_session(make_config(key_length=8, blocks_per_parity=2, hash_rounds=4,
                                       eve=EveStrategy(0.25), seed=13))


def _mutated_record(data, base):
    """The four record fields of ``base`` with one part drawn from ``data`` changed.

    One table cell, one block member, n or one subset.
    """
    fields = dict(round_table=base.round_table.astype(np.int64),
                  blocks=base.blocks.astype(np.int64), subsets=base.subsets,
                  blocks_per_parity=base.blocks_per_parity)
    wide = st.integers(-2 ** 63, 2 ** 63 - 1)
    part = data.draw(st.sampled_from(["cell", "member", "n", "subset"]))
    if part == "cell":
        table = fields["round_table"]
        cell = data.draw(st.tuples(st.integers(0, len(table) - 1), st.integers(0, 3)))
        table[cell] = data.draw(st.one_of(st.integers(-1, 4), wide))
    elif part == "member":
        blocks = fields["blocks"]
        member = data.draw(st.tuples(st.integers(0, blocks.shape[0] - 1),
                                     st.integers(0, blocks.shape[1] - 1)))
        blocks[member] = data.draw(st.one_of(st.integers(-1, len(base.round_table)), wide))
    elif part == "n":
        n = base.blocks_per_parity
        fields["blocks_per_parity"] = data.draw(st.one_of(
            st.integers(-1, 2 * n + 1), st.integers(-2 ** 70, 2 ** 70),
            st.sampled_from([float(n), np.int64(n), str(n), None])))
    else:
        subsets = list(base.subsets)
        l = data.draw(st.integers(0, len(subsets) - 1))
        size = len(subsets[l])
        subsets[l] = data.draw(st.text(data.draw(st.sampled_from(["01", "01x"])),
                                       min_size=size - 1, max_size=size + 1))
        fields["subsets"] = tuple(subsets)
    return fields


class TestBirthCheck:
    """A transcript that exists is a record a session could announce.

    Whatever one part of a session's record is changed to, the constructor
    refuses the record, or every derived value and the text read without
    raising and the text reads back as the same record.
    """

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_record_is_refused_or_whole(self, data):
        fields = _mutated_record(data, data.draw(st.sampled_from([NOISY, ABORTED,
                                                                   EAVESDROPPED])))
        try:
            transcript = Transcript(**fields)
        except InvalidParameterError:
            return
        # Each derived value reads.
        (transcript.hash_log, transcript.aborted, transcript.abort_reason,
         transcript.p_err_estimate, tuple(transcript.rounds), replay_keys(transcript))
        assert Transcript.from_text(transcript.to_text()) == transcript


def _reference_rounds(transcript) -> tuple[RoundRecord, ...]:
    """Every round's record, built at once from whole-column lists.

    The reference the ``Transcript.rounds`` view is compared with; held,
    it costs about 140 B per round, where the view costs 4.
    """
    bob, eve = tuple(BobOutcome), tuple(EveOutcome) + (None,)
    block = np.full(len(transcript.round_table), -1)
    block[transcript.blocks] = np.arange(len(transcript.blocks))[:, None]
    rows = zip(*transcript.round_table.T.tolist(), block.tolist())
    return tuple(RoundRecord(i, a, bob[b], eve[e], d == 1, None if blk < 0 else blk)
                 for i, (a, b, e, d, blk) in enumerate(rows))


class TestRoundView:
    """``Transcript.rounds`` has the length and iterates the records of the tuple it replaced."""

    @pytest.mark.parametrize("case", sorted(DISTILL_CASES))
    def test_golden_sessions(self, tmp_path, case):
        transcript, _ = cmd_distill(
            campaign(tmp_path, case, DISTILL_INI.format(**DISTILL_CASES[case])))
        rounds, reference = transcript.rounds, _reference_rounds(transcript)
        assert len(rounds) == len(reference)
        assert tuple(rounds) == reference

    @settings(max_examples=40, deadline=None)
    @given(session=st.fixed_dictionaries(dict(
               seed=st.integers(0, 2 ** 32), block_size=st.sampled_from([1, 3, 5]),
               blocks_per_parity=st.integers(1, 3), key_length=st.integers(1, 600),
               flip_probability=st.sampled_from([0.0, 0.05]),
               loss_probability=st.sampled_from([0.0, 0.2]),
               eve=st.sampled_from([None, EveStrategy(0.0), EveStrategy(0.25)]))))
    def test_random_sessions(self, session):
        transcript = run_session(make_config(**session))
        rounds, reference = transcript.rounds, _reference_rounds(transcript)
        assert len(rounds) == len(reference)
        assert tuple(rounds) == reference

    def test_each_access_builds_a_view(self):
        # The transcript keeps no view, so it holds no block column after an audit.
        rounds = EAVESDROPPED.rounds
        assert "rounds" not in vars(EAVESDROPPED)
        assert tuple(rounds) == tuple(rounds) == tuple(EAVESDROPPED.rounds)

    def test_held_view_costs_at_most_8_bytes_a_round(self):
        # N = 1024 with one round a block, as the distill-large benchmark runs it.
        transcript = run_session(make_config(key_length=1024, block_size=1,
                                             blocks_per_parity=55, hash_rounds=10))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rounds = transcript.rounds
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rounds) > 50_000
        assert held <= 8 * len(rounds)


def _as_schema_2(text):
    """``text`` as the /2 writer spelled it: a sifted line and the parity groups."""
    lines = text.split("\n")
    sifted = lines[3].split("\t")[1].replace("0", "1").replace("?", "0")
    n_blocks, k, n = (int(v) for v in lines[6].split("\t")[1:])
    groups = " ".join(str(b // n) for b in range(n_blocks))
    return "\n".join(["relqkd-transcript/2", *lines[1:5], "sifted\t" + sifted, lines[5],
                      f"blocks\t{n_blocks}\t{k}", lines[7], groups, *lines[8:]])


def _as_schema_3(text):
    """``text`` as the /3 writer spelled it: the member ids without zero padding."""
    lines = text.split("\n")
    lines[0] = "relqkd-transcript/3"
    lines[7] = " ".join(str(int(m)) for m in lines[7].split(" "))
    return "\n".join(lines)


def _swap_lines(text, i, j):
    lines = text.split("\n")
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


def _edit_member(edit, above=0):
    """A mangle applying ``edit`` to the text of the first member id above ``above``."""
    def change(parts):
        row, i = next((row, i) for row in parts["blocks"] for i, m in enumerate(row)
                      if int(m) > above)
        row[i] = edit(row[i])
    return _edit(change)


class TestTranscriptParseErrors:
    """Malformed transcripts raise InvalidParameterError, never a raw error."""

    @pytest.mark.parametrize("mangle", [
        lambda t: t[: len(t) // 2],
        _edit(lambda p: p["cols"]["a_bit"].__setitem__(0, "x")),
        lambda t: "relqkd-transcript/4\n",
        lambda t: "relqkd-transcript/4\nrounds\n",
        lambda t: t.replace("rounds\t", "rounds\t9", 1),
        _edit(lambda p: p["cols"]["a_bit"].__setitem__(0, "7")),
        _set_first_member("disclosed", "2"),
        lambda t: _swap_lines(t, 4, 5),
        lambda t: t.replace("discarded\n1\t", "discarded\n2\t", 1),
        lambda t: re.sub(r"(discarded\n1\t[01]+\t)[01]", r"\g<1>2", t, count=1),
        lambda t: t.replace("\naborted\t0\n", "\naborted\t2\n", 1),
        _edit_member(lambda m: str(2 ** 31)),
        _set_n("0"),
        _set_n("-2"),
        # n = 7 divides the 14 blocks, but gives 2 parity bits for 7-bit subsets.
        _set_n("7"),
        # Each of these contradicts the record and was once accepted.
        lambda t: re.sub(r"\nkey_b\t(.)", lambda m: "\nkey_b\t" + "10"[int(m[1])], t, count=1),
        lambda t: t.replace("\np_err\t0.0\n", "\np_err\t0.5\n", 1),
        lambda t: t.replace("\naborted\t0\n", "\naborted\t1\n", 1),
        lambda t: t.replace("\nabort_reason\t-\n", "\nabort_reason\tcosmic ray\n", 1),
        lambda t: re.sub(r"\nkey_a\t[01]+\n", "\nkey_a\t1\n", t, count=1),
        lambda t: re.sub(r"(discarded\n1\t[01]+)", r"\g<1>0", t, count=1),
        lambda t: re.sub(r"\ndisclosed\t([01]+)", lambda m: "\ndisclosed\t" + "0" * len(m[1]),
                         t, count=1),
        _edit(lambda p: p["cols"]["b_outcome"].__setitem__(p["cols"]["disclosed"].index("1"),
                                                           "?")),
        # No session has an eavesdropper in some rounds only.
        _edit(lambda p: p["cols"]["eve_outcome"].__setitem__(0, p["cols"]["a_bit"][0])),
    ], ids=["half", "garbled-a_bit", "empty", "rounds-header-cut", "rounds-overcount",
            "a_bit-7", "disclosed-2", "rounds-out-of-order",
            "hash-row-misnumbered", "hash-parity-2", "aborted-2", "block-id-2^31",
            "blocks-per-parity-0", "blocks-per-parity-minus-2", "blocks-per-parity-7",
            "key_b-bit-flipped", "p_err-0.5-on-clean", "aborted-1-with-keys",
            "made-up-abort-reason", "one-bit-key_a", "subset-wrong-length",
            "nothing-disclosed", "disclosed-inconclusive", "eve_outcome-mixes-dash"])
    def test_known_defects(self, mangle):
        text = mangle(NOISY_TEXT)
        assert text != NOISY_TEXT
        with pytest.raises(InvalidParameterError):
            Transcript.from_text(text)

    # Each mangle spells a number or a line another way that int(), float(),
    # numpy's number parsing or negative indexing might read as the same
    # value; the member ids stand in for the round numbers and block ids of
    # the row-per-round text these cases were first written for.
    @pytest.mark.parametrize("mangle", [
        _edit_member(lambda m: "0" + m),
        _edit_member(lambda m: "+" + m),
        _edit_member(above=9, edit=lambda m: m[:1] + "_" + m[1:]),
        _edit_member(lambda m: " " + m),
        _edit(lambda p: p["blocks"][-1].append("")),
        _set_n("+2"),
        _set_n("\u0662"),
        _edit_member(lambda m: str(int(m) - len(NOISY.round_table))),
        lambda t: re.sub(r"rounds\t(\d+)", r"rounds\t0\1", t, count=1),
        lambda t: re.sub(r"(discarded\n1\t[01]+\t[01]\t[01]\t)", r"\g<1>0", t, count=1),
        lambda t: t.replace("discarded\n", "discarded\n\n", 1),
        lambda t: t.replace("\ndisclosed\t", "\ndisclose\t", 1),
        lambda t: t.replace("p_err\t0.0\n", "p_err\t0\n", 1),
        lambda t: t.replace("key_b", "aborted\t0\nkey_b", 1),
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t + "\n",
        lambda t: t[:-1],
    ], ids=["index-03", "index-plus", "block-underscore",
            "block-leading-space", "block-trailing-space", "group-plus", "group-arabic-digit",
            "block-minus-1", "rounds-count-0-padded", "discarded-0-padded",
            "hash-log-blank-line", "renamed-column", "p_err-0.0", "duplicate-tail-line",
            "crlf", "trailing-blank-line", "no-final-newline"])
    def test_non_canonical_text(self, mangle):
        text = mangle(NOISY_TEXT)
        assert text != NOISY_TEXT
        with pytest.raises(InvalidParameterError):
            Transcript.from_text(text)

    def test_fired_outcome_contradicting_the_sent_bit(self):
        # A fired measurement identifies the sent bit without error.  Round
        # i is the first that she fired on a sent 1; no parity or estimate
        # reads her outcome, so only its agreement with the sent bit can
        # reveal the edit.
        table = EAVESDROPPED.round_table
        i = int(np.argmax(table[:, 2] == 1))
        assert table[i, 0] == table[i, 2] == 1
        text = _edit(lambda p: p["cols"]["eve_outcome"].__setitem__(i, "0"))(
            EAVESDROPPED.to_text())
        with pytest.raises(InvalidParameterError, match="fired eavesdropper outcome"):
            Transcript.from_text(text)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_accepted_text_round_trips(self, data):
        # Edit one field or separator of a valid transcript the way int(),
        # float(), numpy's number parsing and the line splitting would
        # forgive; whatever is still accepted must be written back unchanged.
        pieces = re.split(r"([\t\n ])", data.draw(st.sampled_from([NOISY_TEXT, ABORTED_TEXT])))
        i = data.draw(st.integers(0, len(pieces) - 1))
        edit = data.draw(st.sampled_from([
            lambda f: f, lambda f: "0" + f, lambda f: "+" + f, lambda f: "-" + f,
            lambda f: " " + f, lambda f: f + " ", lambda f: f + "\r",
            lambda f: f[:1] + "_" + f[1:], lambda f: f[1:], lambda f: f + "0",
            lambda f: f.replace("\n", "\r\n"),
        ]))
        pieces[i] = edit(pieces[i])
        text = "".join(pieces)
        try:
            parsed = Transcript.from_text(text)
        except InvalidParameterError:
            return
        assert parsed.to_text() == text

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_truncated_or_garbled(self, data):
        text = NOISY_TEXT
        cut = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:cut]
        else:
            text = text[:cut] + data.draw(st.sampled_from("\t\n-x017. ?")) + text[cut + 1:]
        try:
            parsed = Transcript.from_text(text)
        except InvalidParameterError:
            return
        assert parsed.to_text() == text


def _members_line(edit):
    """A mangle applying ``edit`` to the members line."""
    def mangle(text):
        lines = text.split("\n")
        lines[7] = edit(lines[7])
        return "\n".join(lines)
    return mangle


def _blocks_header(edit):
    """A mangle applying ``edit`` to the blocks header's (B, k, n), members line kept."""
    def mangle(text):
        lines = text.split("\n")
        values = edit(*(int(v) for v in lines[6].split("\t")[1:]))
        lines[6] = "\t".join(["blocks", *map(str, values)])
        return "\n".join(lines)
    return mangle


def _zero_blocks(text):
    lines = text.split("\n")
    lines[6:8] = ["blocks\t0\t" + "\t".join(lines[6].split("\t")[2:]), ""]
    return "\n".join(lines)


# One input per defect that the reader's checks look for before it keeps
# the blocks and proves the lines before the derived ones, with the error
# it raises; a check that let one through would keep what the text does
# not spell.  NOISY has 72 rounds, so each member id is two digits wide.
_DIFFERS = "differs from what to_text writes"
_DISAGREES = "the members line disagrees with the blocks header"
_NOT_IDS = "the members line is not fixed-width round ids"
READER_CORPUS = {
    "member-short": (_edit_member(lambda m: m[1:]), _DISAGREES),
    "member-03": (_edit_member(lambda m: "0" + m), _DISAGREES),
    "member-plus": (_edit_member(lambda m: "+" + m[1:]), _NOT_IDS),
    "member-underscore": (_edit_member(above=9, edit=lambda m: m[:1] + "_"), _NOT_IDS),
    "member-leading-space": (_edit_member(lambda m: " " + m[1:]), _NOT_IDS),
    "member-non-ascii-digit": (_edit_member(lambda m: m[:-1] + chr(0x0660 + int(m[-1]))),
                               "a transcript is ASCII text"),
    "members-double-space": (_members_line(lambda line: line.replace(" ", "  ", 1)),
                             _DISAGREES),
    "members-trailing-space": (_members_line(lambda line: line + " "), _DISAGREES),
    # A number past int64 is too long to be an id of the line's width.
    "member-20-digits": (_edit_member(lambda m: str(2 ** 64 + int(m))), _DISAGREES),
    "member-negative": (_edit_member(lambda m: "-" + m[1:]), _NOT_IDS),
    "member-past-rounds": (_edit_member(lambda m: str(len(NOISY.round_table)).zfill(len(m))),
                           "a member id is not a round of the table"),
    # The line's length is compared with the header's 2^40 blocks before
    # anything is allocated for them.
    "members-2^40-blocks": (_blocks_header(lambda b, k, n: (2 ** 40, k, n)), _DISAGREES),
    "round-in-two-blocks": (_edit(lambda p: p["blocks"].__setitem__(1, list(p["blocks"][0]))),
                            _DIFFERS),
    "descending-pair": (_edit(_descend_first_block), _DIFFERS),
    "zero-blocks": (_zero_blocks, _DIFFERS),
    "column-renamed": (lambda t: t.replace("\na_bit\t", "\nsent\t", 1), _DIFFERS),
    "column-byte-outside-alphabet": (
        _edit(lambda p: p["cols"]["b_outcome"].__setitem__(0, "-")),
        "outside its column's alphabet"),
}


def _reference_listing(blocks, rounds) -> bool:
    """Whether ``blocks`` list blocks of a ``rounds``-round table, checked plainly.

    One row or more, each a block's round ids, which lie in [0, rounds),
    rise along the row and are in no other row.
    """
    blocks = np.asarray(blocks)
    if blocks.ndim != 2 or not blocks.size:
        return False
    ids = blocks.ravel().tolist()
    return (len(set(ids)) == len(ids) and all(0 <= i < rounds for i in ids)
            and all(row == sorted(row) for row in blocks.tolist()))


def _reference_read(text) -> Transcript | None:
    """The reader written plainly: the record ``text`` spells, or None if it is refused.

    Each field is read with ``int()`` and ``str.index``, the member ids are
    checked by ``_reference_listing``, the record is built with the public
    constructor, and the text is accepted only if that record writes it
    again.
    """
    try:
        lines = text.split("\n")
        columns = [line[line.index("\t") + 1:] for line in lines[2:6]]
        table = np.full((len(columns[0]), len(distill.ROUND_COLUMNS)), -1)
        for j, (chars, alphabet) in enumerate(zip(columns, ("01", "01?", "01?-", "01"))):
            table[:, j] = [alphabet.index(c) for c in chars]
        k, n = (int(v) for v in lines[6].split("\t")[2:])
        ids = [int(member) for member in lines[7].split(" ")]
        blocks = [ids[i:i + k] for i in range(0, len(ids), k)]
        if not _reference_listing(blocks, len(table)):
            return None
        count = int(lines[8][lines[8].index("\t") + 1:])
        subsets = tuple(line.split("\t")[1] for line in lines[10:10 + count])
        transcript = Transcript(table, blocks, subsets, n)
        return transcript if transcript.to_text() == text else None
    except (InvalidParameterError, IndexError, ValueError, OverflowError, ZeroDivisionError):
        return None


def _assert_read_as(parsed, reference, text):
    """``parsed`` is ``reference``'s record, keeps its blocks, read-only, and writes ``text``."""
    assert parsed == reference
    assert parsed.blocks.dtype == reference.blocks.dtype == np.int32
    assert not parsed.blocks.flags.writeable
    assert parsed.to_text() == text


_SESSION = dict(
    k=st.sampled_from([1, 3, 5, 7]), n=st.integers(1, 4), key_length=st.integers(1, 24),
    rounds=st.integers(1, 6), flip=st.sampled_from([0.0, 0.03]),
    loss=st.sampled_from([0.0, 0.1]), eve_delay=st.sampled_from([None, 0.0, 0.25]),
    policy=st.sampled_from([ResendPolicy.TRUNCATED_RENORMALIZED, ResendPolicy.SHIFTED_COPY]),
    seed=st.integers(0, 2 ** 32 - 1))


def _session_text(k, n, key_length, rounds, flip, loss, eve_delay, policy, seed):
    eve = None if eve_delay is None else EveStrategy(eve_delay, policy)
    try:
        return run_session(make_config(
            key_length=key_length, block_size=k, blocks_per_parity=n, hash_rounds=rounds,
            flip_probability=flip, loss_probability=loss, eve=eve, seed=seed)).to_text()
    except ResourceExhaustedError:
        return None


def _mutated(data, text):
    """``text`` as it is, or with one mutation drawn from ``data``.

    One character changed, two member ids swapped, or a ``0``, ``+`` or
    space inserted into a header line (lines 1 to 6).
    """
    kind = data.draw(st.sampled_from(["none", "char", "swap", "insert"]))
    lines = text.split("\n")
    if kind == "char":
        # Within the members line half the time.
        start, end = 0, len(text)
        if data.draw(st.booleans()):
            start = text.index("\n", text.index("\nblocks\t") + 1) + 1
            end = text.index("\n", start)
        i = data.draw(st.integers(start, end - 1))
        char = data.draw(st.sampled_from("0123456789 \t\n-?+_x\u0662"))
        return text[:i] + char + text[i + 1:]
    if kind == "swap":
        ids = lines[7].split(" ")
        i, j = data.draw(st.lists(st.integers(0, len(ids) - 1), min_size=2, max_size=2,
                                  unique=True))
        ids[i], ids[j] = ids[j], ids[i]
        lines[7] = " ".join(ids)
    elif kind == "insert":
        row = data.draw(st.integers(1, 6))
        at = data.draw(st.integers(0, len(lines[row])))
        lines[row] = lines[row][:at] + data.draw(st.sampled_from("0+ ")) + lines[row][at:]
    return "\n".join(lines)


class TestReaderKeepsWhatItChecked:
    """``from_text`` against a reference reader that keeps nothing.

    The reference reads each field plainly, builds the record with the
    public constructor and writes it back.  The reader must accept exactly
    what the reference accepts, as the same record with the same blocks,
    and it keeps an accepted text as the text the transcript writes.
    """

    @pytest.mark.parametrize("case", sorted(READER_CORPUS))
    def test_corpus_is_refused(self, case):
        mangle, message = READER_CORPUS[case]
        text = mangle(NOISY_TEXT)
        assert text != NOISY_TEXT
        assert _reference_read(text) is None
        with pytest.raises(InvalidParameterError, match=message):
            Transcript.from_text(text)

    def test_session_text_keeps_both(self):
        for transcript in (NOISY, ABORTED, EAVESDROPPED):
            text = transcript.to_text()
            _assert_read_as(Transcript.from_text(text), _reference_read(text), text)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), session=st.fixed_dictionaries(_SESSION))
    def test_agrees_with_the_oracle(self, data, session):
        text = _session_text(**session)
        if text is None:
            return
        text = _mutated(data, text)
        reference = _reference_read(text)
        try:
            parsed = Transcript.from_text(text)
        except InvalidParameterError:
            assert reference is None
            return
        assert reference is not None
        _assert_read_as(parsed, reference, text)


class _WordStream:
    """A generator stand-in whose ``bytes(m)`` reads ceil(m/4) scripted 32-bit words."""

    def __init__(self, words):
        self.words, self.used = list(words), 0

    def bytes(self, m):
        count = (m + 3) // 4
        chunk = self.words[self.used:self.used + count]
        assert len(chunk) == count, "the script ran out of words"
        self.used += count
        return np.array(chunk, dtype="<u4").tobytes()[:m]


class TestHashSubsets:
    """``_random_subsets`` against ``reference.random_nonzero`` called once per subset."""

    @settings(max_examples=150, deadline=None)
    @given(top=st.integers(1, 2000), rounds=st.integers(1, 20),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_draws_as_one_call_per_subset(self, top, rounds, seed):
        lengths = list(range(top, max(top - rounds, 0), -1))
        batched, single = np.random.default_rng(seed), np.random.default_rng(seed)
        assert distill._random_subsets(batched, lengths) == [
            reference.random_nonzero(single, n) for n in lengths]
        assert batched.bit_generator.state == single.bit_generator.state

    def test_zero_subset_is_drawn_again_in_order(self):
        # Subsets of 100, 99 and 98 bits take four words each.  The second
        # draw of 99 bits is zero: its last word keeps only 3 bits, all 0.
        words = [1, 2, 3, 4, 0, 0, 0, 0xFFFFFFF8, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]
        lengths = [100, 99, 98]
        batched, single = _WordStream(words), _WordStream(words)
        subsets = distill._random_subsets(batched, lengths)
        assert subsets == [reference.random_nonzero(single, n) for n in lengths]
        assert batched.used == single.used == 16
        assert subsets[1] == int.from_bytes(np.array([5, 6, 7, 8], "<u4").tobytes(),
                                            "little") & ((1 << 99) - 1)


class TestMemberIds:
    """The members line's codec: ids of one width, zero-padded, one space apart."""

    @staticmethod
    def _spelled(ids, width):
        cells = np.empty((len(ids), width + 1), dtype=np.uint8)
        distill._spell_ids(cells, np.array(ids, dtype=np.int32))
        return cells.ravel()

    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 10), data=st.data())
    def test_round_trip(self, width, data):
        # Rounds whose last id, rounds - 1, has ``width`` digits; at 10
        # digits, up to the most a transcript holds, whose ids fill int32.
        rounds = data.draw(st.integers(10 ** (width - 1) + (width > 1),
                                       min(10 ** width, distill._MAX_ROUNDS)))
        assert distill._id_width(rounds) == width
        ids = data.draw(st.lists(st.integers(0, rounds - 1), min_size=1, max_size=40))
        line = self._spelled(ids, width)
        assert line.tobytes() == (" ".join(f"{i:0{width}d}" for i in ids) + "\n").encode()
        read = distill._member_ids(line, len(ids), width, rounds)
        assert read.dtype == np.int32 and read.tolist() == ids

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 10), data=st.data())
    def test_only_the_spelling_of_its_ids_reads(self, width, data):
        # A line whose newline ends it reads only if it is the spelling of
        # the ids it reads as.
        rounds = min(10 ** width, distill._MAX_ROUNDS)
        ids = data.draw(st.lists(st.integers(0, rounds - 1), min_size=1, max_size=20))
        line = self._spelled(ids, width).copy()
        i = data.draw(st.integers(0, line.size - 2))
        line[i] = ord(data.draw(st.sampled_from("0123456789 +-_\t\n")))
        try:
            read = distill._member_ids(line, len(ids), width, rounds)
        except InvalidParameterError:
            return
        assert np.array_equal(self._spelled(read.tolist(), width), line)

    def test_more_rounds_than_int32_ids_number_are_refused(self):
        line = self._spelled([2 ** 31 - 2], 10)
        assert distill._member_ids(line, 1, 10, 2 ** 31 - 1).tolist() == [2 ** 31 - 2]
        with pytest.raises(InvalidParameterError, match="at most 2147483647 rounds"):
            distill._member_ids(line, 1, 10, 2 ** 31)


def _reference_p_err(table):
    """``Transcript.p_err_estimate`` as first written, over the disclosed rows."""
    shown = table[table[:, 3] == 1]
    if not len(shown) or (shown[:, 1] == 2).any():
        raise InvalidParameterError("no disclosed round, or an inconclusive one")
    return float(np.count_nonzero(shown[:, 0] != shown[:, 1]) / len(shown))


def _layout(n_blocks, k, spare, seed):
    """A round table, and blocks 0..B-1 of k rounds each at random rows.

    ``spare`` rounds are in no block, and the first of them and about 30%
    of the rest are disclosed.  The outcome columns are random, but a
    block's rounds share a sent bit and, as the disclosed rounds, are
    conclusive: at n = 1 the record needs only a subset to be accepted.
    """
    rng = np.random.default_rng(seed)
    rows = n_blocks * k + spare
    order = rng.permutation(rows)
    blocks = np.sort(order[:n_blocks * k].reshape(n_blocks, k), axis=1)
    table = np.empty((rows, 4), dtype=np.int32, order="F")
    table[:, 0] = rng.integers(0, 2, rows)
    table[:, 1] = rng.integers(0, 3, rows)
    table[:, 2] = 3
    table[:, 3] = 0
    table[blocks, 0] = table[blocks[:, :1], 0]
    spare_rows = order[n_blocks * k:]
    table[spare_rows[:1], 3] = 1
    table[spare_rows[rng.random(spare) < 0.3], 3] = 1
    table[blocks, 1] %= 2
    table[table[:, 3] == 1, 1] %= 2
    return table, blocks


def _defect(blocks, rounds, kind, rng):
    """``blocks``, of two rows or more, made invalid by ``kind``."""
    blocks = blocks.copy()
    b, j = rng.integers(0, blocks.shape[0]), rng.integers(0, blocks.shape[1])
    if kind == "empty":
        return blocks[:0]
    if kind == "not-2-D":
        return blocks.ravel()
    if kind == "out-of-range":
        blocks[b, j] = rng.integers(rounds, 2 ** 31)
    elif kind == "negative":
        blocks[b, j] = rng.integers(-2 ** 31, 0)
    elif kind == "descending":
        blocks[b] = blocks[b, ::-1]
    else:  # a round in two blocks; both rows still rise
        blocks[b] = blocks[b - 1]
    return blocks


_LISTING_DEFECTS = ["empty", "not-2-D", "out-of-range", "negative", "descending",
                    "round-in-two-blocks"]


class TestBlockDerivation:
    """The constructor's check of a block listing and the masked ``p_err_estimate``.

    Both against plain forms.
    """

    @settings(max_examples=150, deadline=None)
    @given(n_blocks=st.integers(2, 3000), k=st.sampled_from([1, 3, 7]),
           spare=st.integers(1, 200), seed=st.integers(0, 2 ** 32 - 1))
    def test_valid_layouts(self, n_blocks, k, spare, seed):
        table, blocks = _layout(n_blocks, k, spare, seed)
        assert _reference_listing(blocks, len(table))
        transcript = Transcript(table, blocks, ("1" * n_blocks,), 1)
        kept = transcript.blocks
        assert kept.shape == (n_blocks, k) and kept.dtype == np.int32
        assert np.array_equal(kept, blocks)
        assert not kept.flags.writeable and not np.shares_memory(kept, blocks)
        assert transcript.p_err_estimate == _reference_p_err(table)

    @settings(max_examples=150, deadline=None)
    @given(n_blocks=st.integers(2, 300),
           k_kind=st.tuples(st.sampled_from([1, 3, 7]), st.sampled_from(_LISTING_DEFECTS))
           .filter(lambda k_kind: k_kind != (1, "descending")),  # one round cannot descend
           spare=st.integers(1, 50), seed=st.integers(0, 2 ** 32 - 1))
    def test_invalid_layouts(self, n_blocks, k_kind, spare, seed):
        k, kind = k_kind
        table, blocks = _layout(n_blocks, k, spare, seed)
        blocks = _defect(blocks, len(table), kind, np.random.default_rng(seed))
        assert not _reference_listing(blocks, len(table))
        with pytest.raises(InvalidParameterError, match="blocks must be one row or more"):
            Transcript(table, blocks, (), 1)

    @pytest.mark.parametrize("disclosed", [[0, 0, 0], [1, 0, 1]])
    def test_p_err_refusals(self, disclosed):
        # Nothing disclosed, and a disclosed inconclusive round.
        table, blocks = _layout(1, 3, 0, seed=4)
        table[:, 1] = [0, 2, 2]
        table[:, 3] = disclosed
        with pytest.raises(InvalidParameterError):
            _reference_p_err(table)
        with pytest.raises(InvalidParameterError, match="discloses one conclusive"):
            Transcript(table, blocks, (), 1)

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_session_keeps_the_blocks_it_formed(self, k):
        # A session hands its transcript the blocks it formed, read-only;
        # the constructor accepts them, and the record it builds from the
        # same fields is the same and writes the same text.
        transcript = run_session(make_config(
            key_length=64, block_size=k, flip_probability=0.02, loss_probability=0.1,
            eve=EveStrategy(0.25) if k == 3 else None, seed=k))
        blocks = transcript.blocks
        assert blocks.dtype == np.int32 and _reference_listing(blocks, len(transcript.round_table))
        assert not blocks.flags.writeable and not transcript.round_table.flags.writeable
        rebuilt = Transcript(transcript.round_table, transcript.blocks, transcript.subsets,
                             transcript.blocks_per_parity)
        assert rebuilt == transcript
        assert rebuilt.to_text() == transcript.to_text()

    def test_zero_block_size_header_is_refused_before_allocation(self):
        # 2^40 blocks of 0 rounds agree with an empty members line; numbering
        # them would need 8 TiB.
        lines = NOISY_TEXT.split("\n")
        lines[6:8] = [f"blocks\t{2 ** 40}\t0\t2", ""]
        with pytest.raises(InvalidParameterError, match="members line"):
            Transcript.from_text("\n".join(lines))


class TestEavesdropperKnowledgeGap:
    """What a session's eavesdropper knows, against the report's bound.

    She knows a block's bit when she fired on any of its k rounds, and a
    parity bit when she knows all n of its blocks: (1 - (1 - f)^k)^n of
    them.  Her firing is drawn apart from the receiver's test, so on the
    rounds kept in blocks she fired with f(chi) itself.  The report bounds
    her guess of each key bit by 1/2 + zeta, while knowing a fraction q of
    the parity bits gives her (1 + q)/2: these tests pin that gap open at
    N = 64, M = 12, r = .5, until the report bounds the blocks and the
    sifting it misses.
    """

    @staticmethod
    def _fired_in_blocks(k, n, delay, sessions):
        """Per session, whether she fired on each round of each block, shape (B, k)."""
        for seed in range(sessions):
            transcript = run_session(make_config(
                key_length=64, block_size=k, blocks_per_parity=n, hash_rounds=12, seed=seed,
                eve=EveStrategy(delay)))
            yield transcript.round_table[:, 2][transcript.blocks] < 2

    @staticmethod
    def _assert_binomial(hits, p):
        """The hit rate lies within 4 binomial sigma of p."""
        assert abs(hits.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / hits.size)

    @pytest.mark.parametrize("k, n", [(7, 9), (3, 4)])
    def test_parity_bits_known_at_delay_0(self, k, n):
        known = np.concatenate([fired.any(axis=1).reshape(-1, n).all(axis=1)
                                for fired in self._fired_in_blocks(k, n, 0.0, 40)])
        self._assert_binomial(known, (1.0 - 0.5 ** k) ** n)   # f = .5 at delay 0
        zeta = build_report(64, n, k, 12, 0.5, 1e-3, 1e-3).zeta
        assert known.mean() > 2.0 * zeta

    @pytest.mark.parametrize("delay, f", [(0.25, 0.75), (0.4, 0.9)])
    def test_fired_with_f_on_block_rounds(self, delay, f):
        fired = np.concatenate([fired.ravel() for fired in self._fired_in_blocks(1, 45, delay, 20)])
        self._assert_binomial(fired, f)
        # Her success per kept round beats the report's (1 + r)/2 = .75.
        assert (1.0 + fired.mean()) / 2.0 > 0.75


class TestBoundedSession:
    """A session drawn in chunks and addressed by stream name, against the whole-array one.

    ``reference.session`` spawns one stream per name and draws each whole
    over a bound on the rounds; every transcript must come out the same.
    """

    @pytest.mark.parametrize("seed", [0, 808, 2 ** 70, [3, 4]], ids=["0", "808", "2^70", "[3,4]"])
    def test_named_streams_are_the_spawned_children(self, seed):
        # Stream i is the i-th spawned child: one key per name.
        children = np.random.SeedSequence(seed).spawn(len(distill.STREAMS))
        for child, name in zip(children, distill.STREAMS):
            spawned = np.random.default_rng(child)
            named = distill._stream(seed, name)
            assert named.bit_generator.state == spawned.bit_generator.state
            assert named.random(3).tolist() == spawned.random(3).tolist()

    CORPUS = [dict(block_size=k, eve=eve, flip_probability=flip, loss_probability=loss, seed=seed)
              for seed, (k, eve, flip, loss) in enumerate(
                  (k, eve, flip, loss) for k in (1, 3, 7) for eve in (None, 0.25, 0.0)
                  for flip, loss in ((0.0, 0.0), (0.05, 0.0), (0.0, 0.1), (0.02, 0.1)))]

    @staticmethod
    def _config(case):
        eve = None if case["eve"] is None else EveStrategy(delay=case["eve"])
        return make_config(key_length=24, blocks_per_parity=3, hash_rounds=6,
                           **dict(case, eve=eve))

    @pytest.mark.parametrize("chunk", [None, 1, 5], ids=["module", "1", "5"])
    def test_corpus_matches_the_whole_array_session(self, monkeypatch, chunk):
        # k in {1, 3, 7}; no eavesdropper, one at delay .25 and one at delay
        # 0 (every round passes); loss and flips off and on.  At chunks of
        # 1 and 5 rows every stream, id list, check and text line crosses
        # chunk boundaries.
        if chunk is not None:
            monkeypatch.setattr(distill, "_CHUNK", chunk)
        for case in self.CORPUS:
            cfg = self._config(case)
            transcript, expected = run_session(cfg), reference.session(cfg)
            assert transcript == expected, case
            assert transcript.to_text() == expected.to_text()
            assert Transcript.from_text(transcript.to_text()) == transcript

    @pytest.mark.parametrize("k, n", [(1, 55), (7, 9)])
    def test_sessions_of_several_chunks(self, k, n):
        cfg = make_config(key_length=1024, block_size=k, blocks_per_parity=n,
                          flip_probability=0.02, loss_probability=0.1, seed=41)
        transcript = run_session(cfg)
        assert len(transcript.round_table) > distill._CHUNK
        assert transcript.to_text() == reference.session(cfg).to_text()

    @settings(max_examples=40, deadline=None)
    @given(k=st.sampled_from([1, 3, 7]), eve=st.sampled_from([None, 0.25, 0.0]),
           flip=st.sampled_from([0.0, 0.05]), loss=st.sampled_from([0.0, 0.1]),
           key_length=st.integers(1, 40), hash_rounds=st.integers(1, 6),
           blocks_per_parity=st.integers(1, 4), disclose=st.sampled_from([0.02, 0.1, 0.3]),
           seed=st.integers(0, 2 ** 32))
    def test_transcript_holds_exactly_what_it_needs(self, k, eve, flip, loss, key_length,
                                                     hash_rounds, blocks_per_parity, disclose,
                                                     seed):
        cfg = make_config(key_length=key_length, hash_rounds=hash_rounds, block_size=k,
                          blocks_per_parity=blocks_per_parity, disclose_fraction=disclose,
                          flip_probability=flip, loss_probability=loss, seed=seed,
                          eve=None if eve is None else EveStrategy(delay=eve))
        transcript = run_session(cfg)
        need_blocks = (key_length + hash_rounds) * blocks_per_parity
        sent, bob, _, shown = transcript.round_table.T
        unspent = (bob < 2) & (shown == 0)
        last = int(transcript.blocks.max())
        # The round that completes the blocks is a member, and the classes'
        # whole blocks through it, and through the round before, are
        # need_blocks and one fewer.
        made = [sum(np.count_nonzero(unspent[:end] & (sent[:end] == bit)) // k
                    for bit in (0, 1)) for end in (last, last + 1)]
        assert made == [need_blocks - 1, need_blocks]
        assert transcript.blocks.shape == (need_blocks, k)
        assert shown.any()
        # The session stops there, or, when no round was disclosed by then,
        # at its first disclosed round.
        assert len(transcript.round_table) - 1 == max(last, int(np.argmax(shown)))

    def test_noisy_n1024_session_peak_per_round(self):
        # The noisy N = 1024 session of the distill-large benchmark.  Drawn
        # whole, its arrays peaked at 34.5 bytes a round of the 96,537 its
        # plan drew.  Its rounds now stop when its blocks are complete,
        # and the peak stays within 12 bytes a planned round and 8 bytes a
        # chunk row.
        cfg = make_config(key_length=1024, block_size=7, blocks_per_parity=9, hash_rounds=10,
                          flip_probability=0.02, loss_probability=0.1, seed=1)
        run_session(cfg)
        tracemalloc.start()
        try:
            transcript = run_session(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(transcript.round_table) == 80_437
        assert peak <= 12 * 96_537 + 8 * distill._CHUNK

    def test_clean_n1024_session_peak_per_round(self):
        # A clean k = 1 session keeps its 4 B table and its 4 B block ids
        # for 9 rounds in 10, and no int64 copy of the rounds: the peak is
        # at most 8 bytes a round and 8 bytes a chunk row (0.77 of 1.03 MB
        # here).  Disclosing a fixed count of rounds with numpy's choice
        # once added an int64 arange of the conclusive rounds, and the
        # peak was 17 bytes a round.
        cfg = make_config(key_length=1024, block_size=1, blocks_per_parity=55, hash_rounds=10,
                          seed=3)
        run_session(cfg)
        tracemalloc.start()
        try:
            transcript = run_session(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rounds = len(transcript.round_table)
        assert rounds > 60_000
        assert peak <= 8 * rounds + 8 * distill._CHUNK

    def test_reader_peak_beyond_the_record(self):
        # Read a chunk at a time, the text is never encoded whole and no
        # index array is copied to intp whole.  Beyond the record it keeps,
        # the reader's peak is a chunk's intp indices and bytes, about 12
        # bytes a chunk row, and under 3 bytes a round: a mark per round,
        # and once each block's sent bit and vote.  Read whole, it was 18
        # bytes a round here.
        cfg = make_config(key_length=1024, block_size=1, blocks_per_parity=55, hash_rounds=10,
                          seed=3)
        text = run_session(cfg).to_text()
        tracemalloc.start()
        try:
            transcript = Transcript.from_text(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rounds = len(transcript.round_table)
        assert rounds > 50_000
        assert peak - held <= 12 * distill._CHUNK + 3 * rounds
