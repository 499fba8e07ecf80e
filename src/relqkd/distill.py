"""Session engine: transmission, sifting, block coding, parities, hashing.

One session plays the five protocol stages end to end: seeded per-round
transmission with optional intercept-resend interference, sifting on the
receiver's conclusive outcomes, disclosure-based error estimation, majority
blocks announced after reception, parity-bit formation over disjoint block
groups, and the round-by-round hash comparison that whittles N + M parity
bits down to the final N-bit keys.  Everything is driven by one master seed
and the resulting transcript is byte-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import EveStrategy, ResendPolicy, channel_probabilities
from .errors import InvalidParameterError, ResourceExhaustedError
from .measurement import BobOutcome, EveOutcome

TRANSCRIPT_SCHEMA = "relqkd-transcript/1"


@dataclass(frozen=True)
class ProtocolConfig:
    """All knobs of one key-distillation session."""

    key_length: int            # N, final key bits
    block_size: int            # k, odd
    blocks_per_parity: int     # n
    hash_rounds: int           # M
    disclose_fraction: float   # fraction of sifted rounds spent on noise estimation
    state_extent: float        # L
    channel_length: float      # L_ch < L
    seed: int
    flip_probability: float = 0.0
    loss_probability: float = 0.0
    eve: EveStrategy | None = None
    tail_mass: float = 0.0
    ramp_fraction: float = 0.0
    resolution: float | None = None

    def __post_init__(self):
        if self.key_length < 1:
            raise InvalidParameterError(f"key length must be >= 1, got {self.key_length}")
        if self.block_size < 1 or self.block_size % 2 == 0:
            raise InvalidParameterError(
                f"block size must be odd and >= 1, got {self.block_size}"
            )
        if self.blocks_per_parity < 1:
            raise InvalidParameterError(
                f"blocks per parity must be >= 1, got {self.blocks_per_parity}"
            )
        if self.hash_rounds < 1:
            raise InvalidParameterError(f"hash rounds must be >= 1, got {self.hash_rounds}")
        if not (0.0 < self.disclose_fraction < 1.0):
            raise InvalidParameterError(
                f"disclose fraction must lie in (0, 1), got {self.disclose_fraction}"
            )
        if self.state_extent <= 0.0:
            raise InvalidParameterError(
                f"state extent must be positive, got {self.state_extent}"
            )
        if not (0.0 <= self.channel_length < self.state_extent):
            raise InvalidParameterError(
                f"need 0 <= L_ch < L, got L_ch={self.channel_length}, L={self.state_extent}"
            )
        if not (0.0 <= self.flip_probability <= 1.0):
            raise InvalidParameterError("flip probability must lie in [0, 1]")
        if not (0.0 <= self.loss_probability < 1.0):
            raise InvalidParameterError("loss probability must lie in [0, 1)")
        if self.eve is not None and not math.isclose(
            self.eve.channel_length, self.channel_length, abs_tol=1e-12
        ):
            raise InvalidParameterError(
                "eavesdropper strategy and geometry disagree on the channel length"
            )


@dataclass(frozen=True)
class RoundRecord:
    index: int
    a_bit: int
    b_outcome: BobOutcome
    eve_outcome: EveOutcome | None
    sifted: bool
    disclosed: bool
    block: int | None
    parity_group: int | None


@dataclass(frozen=True)
class HashRecord:
    round_index: int       # l = 1..M
    subset: str            # char i is the subset bit at string position i
    parity_a: int
    parity_b: int
    discarded: int | None  # position removed on match; None on the aborting round


@dataclass(frozen=True)
class Transcript:
    rounds: tuple[RoundRecord, ...]
    hash_log: tuple[HashRecord, ...]
    p_err_estimate: float
    key_a: np.ndarray | None
    key_b: np.ndarray | None
    aborted: bool
    abort_reason: str | None

    def to_text(self) -> str:
        lines = [TRANSCRIPT_SCHEMA, f"rounds\t{len(self.rounds)}",
                 "round\ta_bit\tb_outcome\teve_outcome\tsifted\tdisclosed\tblock\tparity_group"]
        for r in self.rounds:
            eve = r.eve_outcome.value if r.eve_outcome is not None else "-"
            block = str(r.block) if r.block is not None else "-"
            group = str(r.parity_group) if r.parity_group is not None else "-"
            lines.append(
                f"{r.index}\t{r.a_bit}\t{r.b_outcome.value}\t{eve}\t"
                f"{int(r.sifted)}\t{int(r.disclosed)}\t{block}\t{group}"
            )
        lines.append(f"hash_log\t{len(self.hash_log)}")
        lines.append("l\tsubset\tparity_a\tparity_b\tdiscarded")
        for h in self.hash_log:
            disc = str(h.discarded) if h.discarded is not None else "-"
            lines.append(f"{h.round_index}\t{h.subset}\t{h.parity_a}\t{h.parity_b}\t{disc}")
        lines.append(f"p_err\t{format(self.p_err_estimate, '.12g')}")
        lines.append(f"key_a\t{_bits_text(self.key_a)}")
        lines.append(f"key_b\t{_bits_text(self.key_b)}")
        lines.append(f"aborted\t{int(self.aborted)}")
        lines.append(f"abort_reason\t{self.abort_reason if self.abort_reason else '-'}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        """Parse ``to_text`` output; any malformed input raises InvalidParameterError."""
        lines = text.splitlines()
        if not lines or lines[0] != TRANSCRIPT_SCHEMA:
            raise InvalidParameterError("not a relqkd-transcript/1 file")
        try:
            return cls._parse(lines)
        except InvalidParameterError:
            raise
        except (IndexError, KeyError, ValueError) as exc:
            raise InvalidParameterError(f"malformed transcript: {exc!r}") from exc

    @classmethod
    def _parse(cls, lines: list[str]) -> "Transcript":
        pos = 1
        tag, count = lines[pos].split("\t")
        if tag != "rounds":
            raise InvalidParameterError("missing rounds section")
        n_rounds = int(count)
        pos += 2  # skip column header
        rounds = []
        for i in range(n_rounds):
            parts = lines[pos + i].split("\t")
            rounds.append(RoundRecord(
                index=int(parts[0]),
                a_bit=int(parts[1]),
                b_outcome=BobOutcome(parts[2]),
                eve_outcome=EveOutcome(parts[3]) if parts[3] != "-" else None,
                sifted=parts[4] == "1",
                disclosed=parts[5] == "1",
                block=int(parts[6]) if parts[6] != "-" else None,
                parity_group=int(parts[7]) if parts[7] != "-" else None,
            ))
        pos += n_rounds
        tag, count = lines[pos].split("\t")
        if tag != "hash_log":
            raise InvalidParameterError("missing hash_log section")
        n_hash = int(count)
        pos += 2
        hash_log = []
        for i in range(n_hash):
            parts = lines[pos + i].split("\t")
            hash_log.append(HashRecord(
                round_index=int(parts[0]), subset=_subset_parse(parts[1]),
                parity_a=int(parts[2]), parity_b=int(parts[3]),
                discarded=int(parts[4]) if parts[4] != "-" else None,
            ))
        pos += n_hash
        tail = dict(ln.split("\t", 1) for ln in lines[pos:] if ln)
        return cls(
            rounds=tuple(rounds),
            hash_log=tuple(hash_log),
            p_err_estimate=float(tail["p_err"]),
            key_a=_bits_parse(tail["key_a"]),
            key_b=_bits_parse(tail["key_b"]),
            aborted=tail["aborted"] == "1",
            abort_reason=None if tail["abort_reason"] == "-" else tail["abort_reason"],
        )


def _bits_text(bits) -> str:
    if bits is None:
        return "-"
    return "".join("1" if int(b) else "0" for b in bits)


def _bits_parse(text: str):
    if text == "-":
        return None
    if text.strip("01"):
        raise InvalidParameterError(f"bit string {text!r} holds characters other than 0/1")
    return np.array([1 if c == "1" else 0 for c in text], dtype=np.uint8)


def _subset_parse(text: str) -> str:
    if text.strip("01") or "1" not in text:
        raise InvalidParameterError(f"hash subset {text!r} is not a non-zero bit string")
    return text


def estimate_error(a_bits, b_bits, disclose_fraction: float,
                   rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Disclose a random fraction of positions and return the mismatch rate.

    Returns (p_err, disclosed_positions); the disclosed positions must be
    discarded from key material by the caller.
    """
    a_arr = np.asarray(a_bits)
    b_arr = np.asarray(b_bits)
    if a_arr.shape != b_arr.shape or a_arr.ndim != 1 or a_arr.size == 0:
        raise InvalidParameterError("need two equal-length non-empty bit sequences")
    if not (0.0 < disclose_fraction < 1.0):
        raise InvalidParameterError(
            f"disclose fraction must lie in (0, 1), got {disclose_fraction}"
        )
    count = int(round(disclose_fraction * a_arr.size))
    if count < 1:
        raise InvalidParameterError(
            f"disclosing {disclose_fraction} of {a_arr.size} rounds discloses nothing"
        )
    positions = np.sort(rng.choice(a_arr.size, size=count, replace=False))
    p_err = float(np.mean(a_arr[positions] != b_arr[positions]))
    return p_err, positions


def majority_decode(block) -> np.int64 | np.ndarray:
    """Majority vote over the last axis of an odd-size block of bits.

    One block gives one int64 vote; a stack of blocks, one row each,
    gives an int64 array of votes.
    """
    bits = np.atleast_1d(np.asarray(block))
    size = bits.shape[-1]
    if size < 1 or size % 2 == 0:
        raise InvalidParameterError(
            f"majority voting needs an odd block size, got {size}"
        )
    return (bits.sum(axis=-1) * 2 > size).astype(np.int64)


def form_parity_bits(blockwise_bits, groups) -> np.ndarray:
    """XOR the block-wise bits of each disjoint group into one parity bit.

    ``groups`` is a rectangular table: row j lists the blocks of group j.
    """
    bits = np.asarray(blockwise_bits)
    try:
        table = np.asarray(groups, dtype=np.intp)
    except ValueError as exc:
        raise InvalidParameterError("parity groups must all have the same size") from exc
    if table.ndim != 2 or table.shape[1] == 0:
        raise InvalidParameterError("parity groups must be non-empty")
    if table.min() < 0:
        raise InvalidParameterError("parity groups must reference blocks 0, 1, ...")
    if table.max() >= bits.size:
        raise ResourceExhaustedError(
            f"parity groups reference block {table.max()} "
            f"but only {bits.size} blocks exist"
        )
    if np.unique(table).size != table.size:
        raise InvalidParameterError("parity groups must be disjoint")
    return (np.bitwise_xor.reduce(bits[table], axis=1) & 1).astype(np.uint8)


def _id_table(ids: np.ndarray, what: str) -> np.ndarray:
    """Row i lists, in ascending order, the positions whose id is i.

    The ids must run over 0..C-1, each held by the same number of positions.
    """
    # The bound on max() also keeps a corrupt id from sizing bincount.
    numbered = ids.size > 0 and ids.min() >= 0 and ids.max() < ids.size
    sizes = np.bincount(ids) if numbered else None
    if not numbered or sizes.min() != sizes.max():
        raise InvalidParameterError(
            f"{what}s must be numbered 0, 1, ... and all have one size; "
            "transcript is inconsistent")
    return np.argsort(ids, kind="stable").reshape(sizes.size, -1)


def _parity_strings(a_bit, b_bit, block, group) -> tuple[np.ndarray, np.ndarray]:
    """Turn the per-round public columns into the parity strings of A and B.

    ``a_bit`` is the sent bit and ``b_bit`` the receiver's bit of each
    round; ``block`` and ``group`` are its block and parity group, -1 for a
    round outside every block.  Blocks of k rounds sharing one sent bit
    and one group decode to A's sent bit and B's majority vote; each
    group XORs its n blocks into one parity bit.  A structure that is not
    of this shape raises InvalidParameterError.
    """
    in_block = np.flatnonzero(block != -1)
    members = in_block[_id_table(block[in_block], "block")]
    a = a_bit[members]
    g = group[members]
    if (a != a[:, :1]).any():
        raise InvalidParameterError("a block mixes sent bits; transcript is inconsistent")
    if (g != g[:, :1]).any():
        raise InvalidParameterError(
            "a block's rounds name different parity groups; transcript is inconsistent")
    groups = _id_table(g[:, 0], "parity group")
    return (form_parity_bits(a[:, 0], groups),
            form_parity_bits(majority_decode(b_bit[members]), groups))


# Bit strings travel as Python ints, bit i of the int being string
# position i, so one subset parity is an AND and a popcount.

def _bits_to_int(bits) -> int:
    v = 0
    for i, b in enumerate(bits):
        if int(b):
            v |= 1 << i
    return v


def _int_to_bits(v: int, length: int) -> np.ndarray:
    return np.array([(v >> i) & 1 for i in range(length)], dtype=np.uint8)


def _int_to_bit_text(v: int, length: int) -> str:
    return format(v, f"0{length}b")[::-1]


def _drop_bit(v: int, pos: int) -> int:
    return ((v >> (pos + 1)) << pos) | (v & ((1 << pos) - 1))


def _hash_step(ia: int, ib: int, subset: int):
    """Compare the subset parities of both strings; on a match drop a bit.

    Returns (parity_a, parity_b, position, ia, ib).  On a match the bit at
    the lowest position the subset selects is removed from both strings;
    on a mismatch position is None and the strings are returned unchanged.
    """
    pa = (ia & subset).bit_count() & 1
    pb = (ib & subset).bit_count() & 1
    if pa != pb:
        return pa, pb, None, ia, ib
    pos = (subset & -subset).bit_length() - 1
    return pa, pb, pos, _drop_bit(ia, pos), _drop_bit(ib, pos)


def _random_nonzero(rng: np.random.Generator, length: int) -> int:
    # All-zero subsets reveal nothing and would break the 2^-M analysis.
    if length <= 62:
        return int(rng.integers(1, 1 << length))
    mask = (1 << length) - 1
    while True:
        v = int.from_bytes(rng.bytes((length + 7) // 8), "little") & mask
        if v:
            return v


@dataclass(frozen=True)
class HashResult:
    key_a: np.ndarray | None
    key_b: np.ndarray | None
    aborted: bool
    log: tuple[HashRecord, ...]


def hash_rounds(bits_a, bits_b, rounds: int,
                rng: np.random.Generator) -> HashResult:
    """Run the round-by-round parity-hash comparison.

    Each round draws a uniform non-zero subset of the current string,
    compares the subset parities, aborts on mismatch, and otherwise
    discards the bit at the lowest-index position selected by the subset.
    After ``rounds`` successful rounds both strings have shrunk by exactly
    ``rounds`` bits; an undetected residual mismatch survives with
    probability 2^-rounds.
    """
    a_list = [int(b) for b in bits_a]
    b_list = [int(b) for b in bits_b]
    if len(a_list) != len(b_list):
        raise InvalidParameterError("hash inputs must have equal length")
    if rounds < 1:
        raise InvalidParameterError(f"need at least one hash round, got {rounds}")
    if len(a_list) <= rounds:
        raise InvalidParameterError(
            f"{len(a_list)} parity bits cannot survive {rounds} hash rounds"
        )
    ia = _bits_to_int(a_list)
    ib = _bits_to_int(b_list)
    length = len(a_list)
    log: list[HashRecord] = []
    for l in range(1, rounds + 1):
        s = _random_nonzero(rng, length)
        pa, pb, pos, ia, ib = _hash_step(ia, ib, s)
        log.append(HashRecord(l, _int_to_bit_text(s, length), pa, pb, pos))
        if pos is None:
            return HashResult(None, None, True, tuple(log))
        length -= 1
    return HashResult(_int_to_bits(ia, length), _int_to_bits(ib, length),
                      False, tuple(log))


# Outcome of each code in the engine's per-round columns: the bit, or 2
# for an inconclusive receiver or an eavesdropper that did not fire.
_BOB_OUTCOME = (BobOutcome.ZERO, BobOutcome.ONE, BobOutcome.INCONCLUSIVE)
_EVE_OUTCOME = (EveOutcome.FIRED_ZERO, EveOutcome.FIRED_ONE, EveOutcome.NO_FIRE)


class _ShortOfBlocks(Exception):
    pass


def run_session(cfg: ProtocolConfig) -> Transcript:
    """Play one full session and return its transcript.

    The engine plans enough rounds to supply (N + M) * n blocks of k bits
    after sifting and disclosure (20% margin), retries once with a doubled
    margin, and raises ResourceExhaustedError if still short.  A hash
    parity mismatch is not an error: the abort is recorded in the
    transcript.
    """
    f_eve, p_pass = channel_probabilities(
        cfg.state_extent, cfg.channel_length, cfg.eve,
        cfg.tail_mass, cfg.ramp_fraction, cfg.resolution)
    p_sift = p_pass * (1.0 - cfg.loss_probability)
    if p_sift <= 1e-12:
        raise ResourceExhaustedError(
            "no round can ever pass the receiver test under this configuration"
        )

    need_blocks = (cfg.key_length + cfg.hash_rounds) * cfg.blocks_per_parity
    need_bits = need_blocks * cfg.block_size + 2 * (cfg.block_size - 1) + 8
    per_round = p_sift * (1.0 - cfg.disclose_fraction)

    seed_seq = np.random.SeedSequence(cfg.seed)
    for margin in (1.2, 2.4):
        n_rounds = int(math.ceil(need_bits / per_round * margin))
        rngs = [np.random.default_rng(c) for c in seed_seq.spawn(6)]
        try:
            return _attempt(cfg, n_rounds, rngs, f_eve, p_pass, need_blocks)
        except _ShortOfBlocks:
            continue
    raise ResourceExhaustedError(
        f"insufficient sifted bits to form {need_blocks} blocks after retrying"
    )


def _attempt(cfg: ProtocolConfig, n_rounds: int, rngs, f_eve: float,
             p_pass: float, need_blocks: int) -> Transcript:
    rng_bits, rng_eve, rng_bob, rng_noise, rng_public, rng_hash = rngs
    k = cfg.block_size

    a_bits = rng_bits.integers(0, 2, size=n_rounds, dtype=np.int8)

    if cfg.eve is not None:
        fired = rng_eve.random(n_rounds) < f_eve
        guesses = rng_eve.integers(0, 2, size=n_rounds, dtype=np.int8)
        sent_on = np.where(fired, a_bits, guesses)
        resending = cfg.eve.resend_policy is not ResendPolicy.NO_RESEND
    else:
        fired = None
        sent_on = a_bits
        resending = True

    conclusive = (rng_bob.random(n_rounds) < p_pass) & resending
    outcome_bits = sent_on.copy()
    # Channel noise: loss first, then polarization flips on the survivors.
    lose = rng_noise.random(n_rounds) < cfg.loss_probability
    flip = rng_noise.random(n_rounds) < cfg.flip_probability
    conclusive &= ~lose
    outcome_bits = np.where(conclusive & flip, 1 - outcome_bits, outcome_bits)

    kept = np.flatnonzero(conclusive)
    if kept.size < 2:
        raise _ShortOfBlocks

    p_err, disclosed_local = estimate_error(
        a_bits[kept], outcome_bits[kept], cfg.disclose_fraction, rng_public)
    disclosed = kept[disclosed_local]
    disclosed_mask = np.zeros(n_rounds, dtype=bool)
    disclosed_mask[disclosed] = True

    remaining = kept[~disclosed_mask[kept]]

    # Antedate coding: blocks of k identical sent bits, grouped by A after
    # reception in transmission order, then publicly shuffled before the
    # disjoint parity groups are cut.
    rows = []
    for value in (0, 1):
        ids = remaining[a_bits[remaining] == value]
        rows.append(ids[:ids.size - ids.size % k].reshape(-1, k))
    blocks = np.concatenate(rows)
    blocks = blocks[np.argsort(blocks[:, 0])]
    if len(blocks) < need_blocks:
        raise _ShortOfBlocks
    chosen = blocks[rng_public.permutation(len(blocks))[:need_blocks]]

    block = np.full(n_rounds, -1, dtype=np.int64)
    group = np.full(n_rounds, -1, dtype=np.int64)
    block_ids = np.arange(need_blocks)[:, None]
    block[chosen] = block_ids
    group[chosen] = block_ids // cfg.blocks_per_parity
    bit_a, bit_b = _parity_strings(a_bits, outcome_bits, block, group)

    result = hash_rounds(bit_a, bit_b, cfg.hash_rounds, rng_hash)

    bob = [_BOB_OUTCOME[c] for c in np.where(conclusive, outcome_bits, 2).tolist()]
    if fired is None:
        eve = [None] * n_rounds
    else:
        eve = [_EVE_OUTCOME[c] for c in np.where(fired, a_bits, 2).tolist()]
    records = tuple(
        RoundRecord(i, a, b, e, sift, disc,
                    None if blk < 0 else blk, None if grp < 0 else grp)
        for i, (a, b, e, sift, disc, blk, grp) in enumerate(zip(
            a_bits.tolist(), bob, eve, conclusive.tolist(),
            disclosed_mask.tolist(), block.tolist(), group.tolist())))

    abort_reason = None
    if result.aborted:
        abort_reason = f"hash parity mismatch at round {result.log[-1].round_index}"
    return Transcript(
        rounds=records,
        hash_log=result.log,
        p_err_estimate=p_err,
        key_a=result.key_a,
        key_b=result.key_b,
        aborted=result.aborted,
        abort_reason=abort_reason,
    )


def replay_keys(transcript: Transcript) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Recompute both keys from the recorded public structure.

    Uses only the per-round data plus the announced block and parity
    grouping and the hash log; reproduces the session's keys exactly, or
    (None, None) if the recorded session aborted.
    """
    rounds = transcript.rounds
    bit_a, bit_b = _parity_strings(
        np.array([r.a_bit for r in rounds], dtype=np.int64),
        np.array([r.b_outcome is not BobOutcome.ZERO for r in rounds], dtype=np.int64),
        np.array([-1 if r.block is None else r.block for r in rounds], dtype=np.int64),
        np.array([-1 if r.parity_group is None else r.parity_group for r in rounds],
                 dtype=np.int64))
    ia = _bits_to_int(bit_a)
    ib = _bits_to_int(bit_b)

    length = bit_a.size
    for h in transcript.hash_log:
        pa, pb, pos, ia, ib = _hash_step(ia, ib, int(h.subset[::-1], 2))
        if (pa, pb, pos) != (h.parity_a, h.parity_b, h.discarded):
            raise InvalidParameterError(
                f"hash round {h.round_index} does not replay; transcript is inconsistent"
            )
        if pos is None:
            return None, None
        length -= 1
    return _int_to_bits(ia, length), _int_to_bits(ib, length)
