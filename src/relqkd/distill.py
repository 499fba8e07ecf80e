"""Session engine: transmission, sifting, block coding, parities, hashing.

One session plays the five protocol stages end to end: seeded per-round
transmission with optional intercept-resend interference, sifting on the
receiver's conclusive outcomes, disclosure-based error estimation, majority
blocks announced after reception, parity-bit formation over disjoint block
groups, and the round-by-round hash comparison that whittles N + M parity
bits down to the final N-bit keys.  Everything is driven by one master seed
and the resulting transcript is byte-reproducible.

A session's transcript is its public record: the round table, the blocks
announced after reception, the number n of blocks XORed into each parity
bit, and the hash subsets it announced.  The hash log, the keys, the abort
and the error estimate are derived from that record when the transcript is
made (``hash_rounds`` is the one hash walk), so they cannot disagree with it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .adversary import EveStrategy, channel_probabilities
from .errors import (InvalidParameterError, ResourceExhaustedError, require_integer,
                     require_integers)
from .measurement import BobOutcome, EveOutcome
from .wavepacket import Plateau

TRANSCRIPT_SCHEMA = "relqkd-transcript/4"
# Round ids are int32, so a session or a transcript holds at most this many rounds.
_MAX_ROUNDS = 2 ** 31 - 1


@dataclass(frozen=True)
class ProtocolConfig:
    """All knobs of one key-distillation session."""

    key_length: int            # N, final key bits
    block_size: int            # k, odd
    blocks_per_parity: int     # n
    hash_rounds: int           # M
    disclose_fraction: float   # fraction of sifted rounds spent on noise estimation
    envelope: Plateau          # as make_plateau builds it; L = envelope.plateau_length
    channel_length: float      # L_ch < L
    seed: int
    flip_probability: float = 0.0
    loss_probability: float = 0.0
    eve: EveStrategy | None = None

    def __post_init__(self):
        require_integers(self, "key_length", "block_size", "blocks_per_parity",
                         "hash_rounds", "seed")
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
        if not isinstance(self.envelope, Plateau):
            raise InvalidParameterError(
                f"envelope must be a Plateau, as make_plateau builds it, got {self.envelope!r}")
        if self.eve is not None and not isinstance(self.eve, EveStrategy):
            raise InvalidParameterError(f"eve must be an EveStrategy or None, got {self.eve!r}")
        L = self.envelope.plateau_length
        if not (0.0 <= self.channel_length < L):
            raise InvalidParameterError(
                f"need 0 <= L_ch < L, got L_ch={self.channel_length}, L={L}"
            )
        if not (0.0 <= self.flip_probability <= 1.0):
            raise InvalidParameterError("flip probability must lie in [0, 1]")
        if not (0.0 <= self.loss_probability < 1.0):
            raise InvalidParameterError("loss probability must lie in [0, 1)")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True, slots=True)
class RoundRecord:
    index: int
    a_bit: int
    b_outcome: BobOutcome
    eve_outcome: EveOutcome | None
    disclosed: bool
    block: int | None


@dataclass(frozen=True)
class HashRecord:
    round_index: int       # l = 1..M
    subset: str            # char i is the subset bit at string position i
    parity_a: int
    parity_b: int
    discarded: int | None  # position removed on match; None on the aborting round


# The columns of Transcript.round_table.  An outcome's code is its index in
# the enum's declaration order, so a conclusive (sifted) or fired outcome's
# code is its bit, and 2 is inconclusive or no_fire; eve_outcome 3 stands
# for no eavesdropper.  The text spells each column as one line of one
# character per round, code c being character c of the column's alphabet.
ROUND_COLUMNS = ("a_bit", "b_outcome", "eve_outcome", "disclosed")
_ALPHABETS = tuple(np.frombuffer(a, dtype=np.uint8)
                   for a in (b"01", b"01?", b"01?-", b"01"))
# Row j maps a byte to its code in column j, or to 255 outside the alphabet.
_DECODE = np.full((len(_ALPHABETS), 256), 255, dtype=np.uint8)
for _row, _alphabet in zip(_DECODE, _ALPHABETS):
    _row[_alphabet] = np.arange(_alphabet.size)


@dataclass(frozen=True)
class Transcript:
    """The public record of one session, and what follows from it.

    A session announces the round table (each round's outcomes and
    disclosure flag), the blocks it cuts after reception, n and the hash
    subsets; parity bit j XORs blocks j*n .. j*n+n-1.  When a transcript
    is made, by the constructor (and so ``dataclasses.replace``), the
    reader or a session, ``_derive`` checks this record and derives the
    rest: the hash log (the subsets walked up to the first parity
    mismatch), both keys, the abort and the error estimate over the
    disclosed rounds.  ``subsets`` keeps only the announced subsets.  The
    constructor keeps read-only copies of the arrays it is given: the
    table as uint8 codes, the blocks as int32 round ids.

    A record that is not what a session announces is refused with
    InvalidParameterError, so no derived value and no ``to_text`` raises.
    That is: a 2-D table, one column per ``ROUND_COLUMNS`` name and each
    code in its column's alphabet; an eavesdropper column that is all 3
    (no eavesdropper) or holds no 3, each fired outcome naming the sent
    bit; one disclosed round or more, all conclusive; one block or more,
    each row an odd number of rising ids of undisclosed, conclusive rounds
    of one sent bit, no round in two rows; an integer n >= 1 that divides
    the number of blocks; and a tuple of fewer subsets than parity bits,
    each a non-zero bit string as long as the strings it meets.
    """

    round_table: np.ndarray    # uint8, column-major, one row per round, columns ROUND_COLUMNS
    blocks: np.ndarray         # int32, row b the rounds of block b, ascending
    subsets: tuple[str, ...]   # hash subset of round l+1; char i selects string position i
    blocks_per_parity: int     # n
    hash_log: tuple[HashRecord, ...] = field(init=False)
    key_a: np.ndarray | None = field(init=False)
    key_b: np.ndarray | None = field(init=False)
    aborted: bool = field(init=False)
    p_err_estimate: float = field(init=False)

    def __post_init__(self):
        table = _frozen_copy(self.round_table, np.uint8, "F", "the round table")
        if table.ndim != 2 or table.shape[1] != len(ROUND_COLUMNS):
            raise InvalidParameterError(f"the round table must be 2-D with one column each "
                                        f"for {', '.join(ROUND_COLUMNS)}; got shape {table.shape}")
        blocks = _frozen_copy(self.blocks, np.int32, "C", "blocks")
        if (blocks.ndim != 2 or blocks.min(initial=0) < 0 or blocks.max(initial=0) >= len(table)
                or not _listed_blocks(blocks, len(table))):
            raise InvalidParameterError("blocks must be one row or more of rising round ids "
                                        "of the table, no round in two rows")
        if not (isinstance(self.subsets, tuple) and all(isinstance(s, str) for s in self.subsets)):
            raise InvalidParameterError("subsets must be a tuple of strings")
        require_integers(self, "blocks_per_parity")
        object.__setattr__(self, "round_table", table)
        object.__setattr__(self, "blocks", blocks)
        self._derive()

    def _derive(self) -> None:
        """Refuse the record as the class docstring says, or set what follows from it.

        The constructor and the reader check the table's shape, the block
        listing and the types, where these come from outside.
        """
        table, blocks, n = self.round_table, self.blocks, self.blocks_per_parity
        sent, bob, eve, disclosed = table.T
        if any(column.max(initial=0) >= alphabet.size
               for alphabet, column in zip(_ALPHABETS, table.T)):
            raise InvalidParameterError("a round's code lies outside its column's alphabet")
        if ((eve < 2) & (eve != sent)).any() or 0 < np.count_nonzero(eve == 3) < len(eve):
            raise InvalidParameterError("a fired eavesdropper outcome must name the sent bit, "
                                        "and '-' mark every round or none")
        shown = disclosed == 1
        count = np.count_nonzero(shown)
        if not count or (shown & (bob == 2)).any():
            raise InvalidParameterError("a session discloses one conclusive round or more")
        # A block's rounds decode to A's sent bit and B's majority vote.
        a, b = sent.take(blocks), bob.take(blocks)
        if (a != a[:, :1]).any() or not ((disclosed.take(blocks) == 0) & (b != 2)).all():
            raise InvalidParameterError("a block must hold undisclosed, conclusive rounds "
                                        "of one sent bit")
        walk = hash_rounds(form_parity_bits(a[:, 0], n),
                           form_parity_bits(majority_decode(b), n), self.subsets)
        self.__dict__.update(subsets=self.subsets[:len(walk.log)], hash_log=walk.log,
                             key_a=walk.key_a, key_b=walk.key_b, aborted=walk.aborted,
                             p_err_estimate=float(np.count_nonzero(shown & (sent != bob)) / count))

    def __eq__(self, other):
        """The arrays compare as arrays, then the subsets and n."""
        if not isinstance(other, Transcript):
            return NotImplemented
        return (np.array_equal(self.round_table, other.round_table)
                and np.array_equal(self.blocks, other.blocks)
                and self.subsets == other.subsets
                and self.blocks_per_parity == other.blocks_per_parity)

    @classmethod
    def _adopt(cls, round_table: np.ndarray, blocks: np.ndarray, subsets: tuple[str, ...],
               blocks_per_parity: int) -> "Transcript":
        """A transcript that freezes ``round_table`` and ``blocks`` and keeps them, not copies.

        Only a uint8, column-major table and int32 blocks of it that no
        caller holds, a tuple of strings and an int n may be adopted.
        """
        round_table.flags.writeable = blocks.flags.writeable = False
        transcript = cls.__new__(cls)
        transcript.__dict__.update(round_table=round_table, blocks=blocks, subsets=subsets,
                                   blocks_per_parity=blocks_per_parity)
        transcript._derive()
        return transcript

    @property
    def abort_reason(self) -> str | None:
        return f"hash parity mismatch at round {len(self.hash_log)}" if self.aborted else None

    @cached_property
    def rounds(self) -> RoundView:
        """A read-only sequence of one RoundRecord per round, each built when read."""
        return RoundView(self.round_table, self.blocks)

    def to_text(self) -> str:
        """The text form, written once per transcript.

        It spells the record, the blocks as they are, and the derived hash
        log, error estimate, keys and abort too, so a text that contradicts
        its record does not read back (see ``from_text``).
        """
        return self._text

    @cached_property
    def _text(self) -> str:
        """``to_text``'s text, spelled into one byte buffer.

        A column line's characters are its codes looked up in the column's
        alphabet, and the members line is a matrix of one row per round id
        (see ``_spell_ids``).  The derived lines follow it.
        """
        members = self.blocks
        rounds = len(self.round_table)
        width = _id_width(rounds)
        heads = [f"{name}\t".encode() for name in ROUND_COLUMNS]
        heads[0] = f"{TRANSCRIPT_SCHEMA}\nrounds\t{rounds}\n".encode() + heads[0]
        blocks = f"blocks\t{len(members)}\t{members.shape[1]}\t{self.blocks_per_parity}\n"
        derived = self._derived_lines()
        cells = members.size * (width + 1)
        out = np.empty(sum(map(len, heads)) + len(heads) * (rounds + 1) + len(blocks) + cells
                       + len(derived), dtype=np.uint8)
        at = 0
        for head, alphabet, column in zip(heads, _ALPHABETS, self.round_table.T):
            at = _put(out, at, head)
            alphabet.take(column, out=out[at:at + rounds], mode="clip")
            out[at + rounds] = ord("\n")
            at += rounds + 1
        at = _put(out, at, blocks.encode())
        _spell_ids(out[at:at + cells].reshape(members.size, width + 1), members.ravel())
        _put(out, at + cells, derived.encode())
        return str(out, "ascii")

    def _derived_lines(self) -> str:
        """The lines after the members line: hash log, error estimate, keys and abort."""
        lines = [f"hash_log\t{len(self.hash_log)}", "l\tsubset\tparity_a\tparity_b\tdiscarded"]
        for h in self.hash_log:
            disc = str(h.discarded) if h.discarded is not None else "-"
            lines.append(f"{h.round_index}\t{h.subset}\t{h.parity_a}\t{h.parity_b}\t{disc}")
        lines.append(f"p_err\t{self.p_err_estimate!r}")
        lines.append(f"key_a\t{_bits_text(self.key_a)}")
        lines.append(f"key_b\t{_bits_text(self.key_b)}")
        lines.append(f"aborted\t{int(self.aborted)}")
        lines.append(f"abort_reason\t{self.abort_reason or '-'}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Transcript":
        """Parse ``to_text`` output; any other input raises InvalidParameterError.

        Only the record is read: the round table, the blocks, n and the
        subset column of the hash log.  ``_parse`` proves the lines through
        the members line, the record is checked as the constructor checks
        it, and the derived lines are written back and compared with the
        rest.  So ``Transcript.from_text(t).to_text() == t`` for every
        accepted ``t``, and a text whose parities, discarded positions,
        error estimate, keys or abort lines contradict its record is
        rejected.  The transcript keeps the blocks the text lists, and ``t``.
        """
        try:
            transcript, derived_at = cls._parse(text)
        except InvalidParameterError:
            raise
        except (IndexError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"malformed transcript: {exc!r}") from exc
        if transcript._derived_lines() != text[derived_at:]:
            raise InvalidParameterError("the text differs from what to_text writes")
        transcript.__dict__["_text"] = text  # what to_text writes, as just shown
        return transcript

    @classmethod
    def _parse(cls, text: str) -> tuple["Transcript", int]:
        """The record ``text`` spells, and the offset of its derived lines.

        Only what the arrays need is checked before they are built: the
        schema line, that the text is ASCII, the member ids' digits, and
        sizes that agree before anything is allocated from them.  A byte
        outside its column's alphabet decodes to 255, which ``_derive``
        refuses.  A column line that decodes, and a members line of
        fixed-width ids, are spelled as ``to_text`` spells them.  So the
        lines before the derived ones are proven, and the ids kept as the
        blocks, where ``_listed_blocks`` shows them to be blocks and the two
        header lines and the column names are the ones ``to_text`` writes;
        any other text is refused.
        """
        schema = text[:text.find("\n")] if "\n" in text else text
        if schema != TRANSCRIPT_SCHEMA:
            raise InvalidParameterError(
                f"expected a {TRANSCRIPT_SCHEMA} file, got first line {schema[:40]!r}")
        if not text.isascii():
            raise InvalidParameterError("a transcript is ASCII text")
        # Line i runs from starts[i] to the newline at starts[i + 1] - 1;
        # lines 1 to 7 are the rounds line through the members line.
        starts = [0]
        for _ in range(8):
            starts.append(text.index("\n", starts[-1]) + 1)
        rounds_line = text[starts[1]:starts[2] - 1]
        n_rounds = int(rounds_line.partition("\t")[2])
        # Each column line's characters start after its first tab.
        firsts = [text.find("\t", starts[i], starts[i + 1]) + 1 for i in range(2, 6)]
        if any(first == 0 or after - first != n_rounds + 1
               for first, after in zip(firsts, starts[3:7])):
            raise InvalidParameterError("a round column is not one alphabet character per round")
        blocks_line = text[starts[6]:starts[7] - 1]
        n_blocks, k, n = (int(v) for v in blocks_line.split("\t")[1:])
        width = _id_width(n_rounds)
        if k < 1 or n_blocks < 0 or starts[8] - starts[7] != max(n_blocks * k * (width + 1), 1):
            raise InvalidParameterError("the members line disagrees with the blocks header")

        raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
        table = np.empty((n_rounds, len(ROUND_COLUMNS)), dtype=np.uint8, order="F")
        for j, (decode, first) in enumerate(zip(_DECODE, firsts)):
            decode.take(raw[first:first + n_rounds], out=table[:, j], mode="clip")
        members = _member_ids(raw[starts[7]:starts[8]], n_blocks * k, width,
                              n_rounds).reshape(n_blocks, k)
        if not (_listed_blocks(members, n_rounds)
                and rounds_line == f"rounds\t{n_rounds}"
                and blocks_line == f"blocks\t{n_blocks}\t{k}\t{n}"
                and all(text[start:first] == f"{name}\t"
                        for start, first, name in zip(starts[2:6], firsts, ROUND_COLUMNS))):
            raise InvalidParameterError("the text differs from what to_text writes")

        derived_lines = text[starts[8]:].split("\n")
        subsets = tuple(line.split("\t")[1]
                        for line in derived_lines[2:2 + int(derived_lines[0].split("\t")[1])])
        return cls._adopt(table, members, subsets, n), starts[8]


def _id_width(rounds: int) -> int:
    """Digits of each member id in the text: those of the last round's id."""
    return len(str(max(rounds - 1, 0)))


def _put(out: np.ndarray, at: int, data: bytes) -> int:
    """Copy ``data`` into ``out`` at ``at``; returns the position after it."""
    out[at:at + len(data)] = np.frombuffer(data, dtype=np.uint8)
    return at + len(data)


def _spell_ids(cells: np.ndarray, ids: np.ndarray) -> None:
    """Spell round ids into the rows of ``cells`` as a members line does.

    Row i gets the digits of id i, zero-padded to the width of a row less
    one, and a space, or on the last row the newline.
    """
    width = cells.shape[1] - 1
    cells[:, width] = ord(" ")
    cells[-1, width] = ord("\n")
    rest = ids.astype(np.min_scalar_type(10 ** width - 1))
    for j in range(width - 1, -1, -1):
        tens = rest // 10
        cells[:, j] = rest - 10 * tens + ord("0")  # numpy's % is slower
        rest = tens


def _member_ids(line: np.ndarray, count: int, width: int, rounds: int) -> np.ndarray:
    """The ``count`` round ids a members line spells, given its bytes and newline.

    The line must be ``count`` ids of ``width`` ASCII digits, each followed
    by a space and the last by the newline, and its size must already
    agree with that.  Then no other spelling of the same ids exists, so an
    id needs no check beyond its digits and that it is a round of the
    table's ``rounds``, which are at most ``_MAX_ROUNDS``.  So ``width`` is
    at most 10, and the digits' sum before the '0's are taken off it fits
    in int64; the ids it leaves fit in int32, which they are kept as.
    """
    if rounds > _MAX_ROUNDS:
        raise InvalidParameterError(
            f"a transcript holds at most {_MAX_ROUNDS} rounds, got {rounds}")
    if not count:
        return np.empty(0, dtype=np.int32)
    cells = line.reshape(count, width + 1)
    if (np.count_nonzero(line - ord("0") < 10) != count * width
            or (cells[:-1, width] != ord(" ")).any()):
        raise InvalidParameterError(
            "the members line is not fixed-width round ids, one space apart")
    ids = cells[:, 0].astype(np.int64)
    for j in range(1, width):
        ids *= 10
        ids += cells[:, j]
    ids -= int("1" * width) * ord("0")
    if ids.max() >= rounds:
        raise InvalidParameterError("a member id is not a round of the table")
    return ids.astype(np.int32)


def _frozen_copy(values, dtype, order: str, what: str) -> np.ndarray:
    """A read-only copy of ``values`` as ``dtype``; a value that would change is refused."""
    try:
        given = np.asarray(values)
        copy = np.array(given, dtype=dtype, order=order)
    except (OverflowError, TypeError, ValueError):
        copy = None
    if copy is None or given.dtype != copy.dtype and not np.array_equal(given, copy):
        raise InvalidParameterError(f"{what} must be an array of {np.dtype(dtype)} values")
    copy.flags.writeable = False
    return copy


def _listed_blocks(members: np.ndarray, rounds: int) -> bool:
    """Whether ``members``, one block a row, list blocks of a table of ``rounds`` rounds.

    The ids must lie in [0, rounds).  They list blocks if there is a row,
    each row rises, and no round is in two rows; the last holds when the
    ids mark as many rounds as there are ids.
    """
    if not members.size:
        return False
    marked = np.zeros(rounds, dtype=bool)
    marked[members] = True
    return (bool((members[:, 1:] > members[:, :-1]).all())
            and np.count_nonzero(marked) == members.size)


def _columns(*columns: np.ndarray):
    """The rows of equal-length ``columns`` as tuples of Python ints.

    Built from one list per column of 4096 rows at a time: ``tolist()`` of
    whole columns would hold a list slot per column and row at once.
    """
    for start in range(0, len(columns[0]), 4096):
        yield from zip(*(column[start:start + 4096].tolist() for column in columns))


_BOB_OUTCOMES = tuple(BobOutcome)
_EVE_OUTCOMES = tuple(EveOutcome) + (None,)


class RoundView(Sequence):
    """The rounds of a transcript as RoundRecords, built only when read.

    It holds the transcript's round table and one int32 column of each
    round's block, -1 for none: 4 B per round beside the table.  An
    integer index, a negative one and a slice (which gives a tuple) read
    as they read a tuple of the records, and iteration walks the columns
    in chunks.
    """

    __slots__ = ("_table", "_block")

    def __init__(self, table: np.ndarray, blocks: np.ndarray):
        block = np.full(len(table), -1, dtype=np.int32)
        block[blocks] = np.arange(len(blocks), dtype=np.int32)[:, None]
        block.flags.writeable = False
        self._table, self._block = table, block

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return tuple(self._records(range(len(self))[key], key))
        i = operator.index(key)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"round index {key} out of range for {len(self)} rounds")
        return self[i:i + 1][0]

    def __iter__(self):
        return self._records(range(len(self)), slice(None))

    def _records(self, indices: range, rows: slice):
        """The records of the rounds ``indices``, which ``rows`` selects."""
        return (RoundRecord(i, a, _BOB_OUTCOMES[b], _EVE_OUTCOMES[e], d == 1,
                            None if blk < 0 else blk)
                for i, (a, b, e, d, blk) in zip(indices, _columns(*self._table[rows].T,
                                                                  self._block[rows])))


def _bits_text(bits) -> str:
    if bits is None:
        return "-"
    return (bits + ord("0")).tobytes().decode()


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
    positions = _disclosed_positions(a_arr.size, disclose_fraction, rng)
    p_err = float(np.mean(a_arr[positions] != b_arr[positions]))
    return p_err, positions


def _disclosed_positions(size: int, disclose_fraction: float,
                         rng: np.random.Generator) -> np.ndarray:
    """The ascending positions, out of ``size``, that ``estimate_error`` discloses."""
    if not (0.0 < disclose_fraction < 1.0):
        raise InvalidParameterError(
            f"disclose fraction must lie in (0, 1), got {disclose_fraction}"
        )
    count = int(round(disclose_fraction * size))
    if count < 1:
        raise InvalidParameterError(
            f"disclosing {disclose_fraction} of {size} rounds discloses nothing"
        )
    return np.sort(rng.choice(size, size=count, replace=False))


def majority_decode(block) -> np.int64 | np.ndarray:
    """Majority vote over the last axis of an odd-size block of bits.

    One block gives one int64 vote; a stack of blocks, one row each,
    gives an int64 array of votes.  The bits are 0 or 1, of any integer
    or bool dtype.
    """
    bits = np.atleast_1d(np.asarray(block))
    size = bits.shape[-1]
    if size < 1 or size % 2 == 0:
        raise InvalidParameterError(
            f"majority voting needs an odd block size, got {size}"
        )
    # A sum of the columns, in the narrowest unsigned dtype that holds
    # ``size`` ones: a sum over a short last axis is slower.
    bits = bits.astype(np.min_scalar_type(size), copy=False)
    votes = bits[..., 0] + bits[..., 1] if size > 1 else bits[..., 0]
    for j in range(2, size):
        votes += bits[..., j]
    return (votes > size // 2).astype(np.int64)


def form_parity_bits(blockwise_bits, blocks_per_parity: int) -> np.ndarray:
    """XOR each run of n block-wise bits into one parity bit.

    Parity bit j is the XOR of blocks j*n .. j*n+n-1; each block-wise bit
    must be 0 or 1, and n an integer >= 1 that divides the number of blocks.
    """
    bits = _bit_array(blockwise_bits, "block-wise bits")
    n = require_integer("blocks per parity", blocks_per_parity)
    if n < 1 or bits.size % n:
        raise InvalidParameterError(
            f"{bits.size} blocks do not split into parity groups of {n} blocks")
    return np.bitwise_xor.reduce(bits.reshape(-1, n), axis=1)


def _bit_array(values, what: str) -> np.ndarray:
    """``values`` as a uint8 array; anything but integers 0 and 1 is refused.

    A signed dtype is read as the unsigned one of its size, where a
    negative value lies above 1, so one pass over the values checks them.
    """
    bits = np.asarray(values)
    if bits.dtype.kind == "i":
        bits = bits.view(f"u{bits.itemsize}")
    if bits.size and (bits.dtype.kind not in "bu" or bits.max() > 1):
        raise InvalidParameterError(f"{what} must be integers 0 or 1")
    return bits.astype(np.uint8, copy=False)


# Bit strings travel as Python ints, bit i of the int being string
# position i, so one subset parity is an AND and a popcount.  Many strings
# of one length up to 63 bits travel as a uint64 array (up to 32 bits, a
# uint32 one will do), one string a row.

def _bits_to_int(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _int_to_bits(v: int, length: int) -> np.ndarray:
    packed = np.frombuffer(v.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=length, bitorder="little")


def _parity(v):
    return v.bit_count() & 1 if isinstance(v, int) else np.bitwise_count(v) & 1


def _hash_step(ia, ib, subset):
    """One hash round on two strings and a non-zero subset.

    The arguments are either three Python ints or three arrays of one
    unsigned dtype (uint64, or uint32 for strings of up to 32 bits), in
    which case the round runs row by row.  Returns (parity_a, parity_b,
    ia, ib): the subset parities of both strings, and both strings with
    the bit at the lowest position the subset selects removed.  The
    shortened strings are what a matching round keeps; on a mismatch the
    caller aborts.
    """
    keep = (subset & -subset) - 1
    return (_parity(ia & subset), _parity(ib & subset),
            ((ia >> 1) & ~keep) | (ia & keep), ((ib >> 1) & ~keep) | (ib & keep))


def _random_nonzero(rng: np.random.Generator, length: int) -> int:
    # All-zero subsets reveal nothing and would break the 2^-M analysis.
    if length <= 62:
        return int(rng.integers(1, 1 << length))
    mask = (1 << length) - 1
    while True:
        v = int.from_bytes(rng.bytes((length + 7) // 8), "little") & mask
        if v:
            return v


def _random_subsets(rng: np.random.Generator, lengths: list[int]) -> list[int]:
    """``_random_nonzero(rng, n)`` for each n of ``lengths`` in turn, in fewer draws.

    ``Generator.bytes(m)`` is the first m bytes of ceil(m/4) 32-bit words,
    and consecutive calls continue one stream of words.  So a subset longer
    than 62 bits is the next ceil(n/32) words of that stream, masked to n
    bits, and the leading run of such subsets takes its words in one call.
    A zero subset is drawn again from the words that follow, in order, and
    the words the run is then short of are drawn when they are reached.
    The shorter subsets follow one call each.  (``bytes(0)`` draws a word,
    so a run of none draws nothing.)
    """
    run = next((i for i, n in enumerate(lengths) if n <= 62), len(lengths))
    sizes = [4 * ((n + 31) // 32) for n in lengths[:run]]  # bytes of whole words
    stream, at = rng.bytes(sum(sizes)) if sizes else b"", 0
    subsets = []
    for n, size in zip(lengths, sizes):
        v = 0
        while not v:
            if at + size > len(stream):
                stream += rng.bytes(at + size - len(stream))
            v = int.from_bytes(stream[at:at + size], "little") & ((1 << n) - 1)
            at += size
        subsets.append(v)
    return subsets + [_random_nonzero(rng, n) for n in lengths[run:]]


@dataclass(frozen=True)
class HashResult:
    key_a: np.ndarray | None
    key_b: np.ndarray | None
    aborted: bool
    log: tuple[HashRecord, ...]


def hash_rounds(bits_a, bits_b, subsets) -> HashResult:
    """Walk the round-by-round parity-hash comparison over the given subsets.

    Subset l is a non-zero bit string as long as the strings before round
    l, character i selecting position i.  Each round compares the subset
    parities, aborts on a mismatch, and otherwise discards the bit at the
    lowest position the subset selects.  Over M uniform non-zero subsets an
    undetected residual mismatch survives with probability 2^-M.  Any
    other subset, as many subsets as bits, or a bit that is not the integer
    0 or 1 raises InvalidParameterError.
    """
    a, b = (_bit_array(bits, "hash inputs") for bits in (bits_a, bits_b))
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidParameterError("hash inputs must be two bit strings of equal length")
    if not subsets:
        raise InvalidParameterError("need at least one hash round, got none")
    length = a.size
    if length <= len(subsets):
        raise InvalidParameterError(
            f"{length} parity bits cannot survive {len(subsets)} hash rounds"
        )
    ia, ib = _bits_to_int(a), _bits_to_int(b)
    log: list[HashRecord] = []
    for l, text in enumerate(subsets, start=1):
        ones = text.count("1")
        if len(text) != length or not ones or ones + text.count("0") != length:
            raise InvalidParameterError(
                f"hash subset {l} is not a non-zero bit string of length {length}")
        s = int(text[::-1], 2)
        pa, pb, ia, ib = _hash_step(ia, ib, s)
        if pa != pb:
            log.append(HashRecord(l, text, pa, pb, None))
            return HashResult(None, None, True, tuple(log))
        log.append(HashRecord(l, text, pa, pb, (s & -s).bit_length() - 1))
        length -= 1
    return HashResult(_int_to_bits(ia, length), _int_to_bits(ib, length),
                      False, tuple(log))


class _ShortOfBlocks(Exception):
    pass


def run_session(cfg: ProtocolConfig) -> Transcript:
    """Play one full session and return its transcript.

    The engine plans enough rounds to supply (N + M) * n blocks of k bits
    after sifting and disclosure (20% margin), retries once with a doubled
    margin, and raises ResourceExhaustedError if still short, or if the
    rounds do not fit in memory or number more than 2^31 - 1, the most that
    int32 round ids can name.  A plan holds at least as many rounds as the
    bits it needs, so a need past that cap is refused before any plan.  A
    hash parity mismatch is not an error: the abort is recorded in the
    transcript.
    """
    f_eve, p_pass = channel_probabilities(cfg.envelope, cfg.channel_length, cfg.eve)
    p_sift = p_pass * (1.0 - cfg.loss_probability)
    if p_sift <= 1e-12:
        raise ResourceExhaustedError(
            "no round can ever pass the receiver test under this configuration"
        )

    need_blocks = (cfg.key_length + cfg.hash_rounds) * cfg.blocks_per_parity
    need_bits = need_blocks * cfg.block_size + 2 * (cfg.block_size - 1) + 8
    if need_bits > _MAX_ROUNDS:
        raise ResourceExhaustedError(
            f"a session of more than {_MAX_ROUNDS} planned rounds does not fit in memory")
    per_round = p_sift * (1.0 - cfg.disclose_fraction)

    seed_seq = np.random.SeedSequence(cfg.seed)
    for margin in (1.2, 2.4):
        n_rounds = _planned_rounds(need_bits, per_round, margin)
        rngs = [np.random.default_rng(c) for c in seed_seq.spawn(6)]
        try:
            if n_rounds <= _MAX_ROUNDS:
                return _attempt(cfg, n_rounds, rngs, f_eve, p_pass, need_blocks)
        except _ShortOfBlocks:
            continue
        except MemoryError:
            pass
        raise ResourceExhaustedError(
            f"a session of {n_rounds} planned rounds does not fit in memory")
    raise ResourceExhaustedError(
        f"insufficient sifted bits to form {need_blocks} blocks after retrying"
    )


def _planned_rounds(need_bits: int, per_round: float, margin: float) -> int:
    """ceil(need_bits / per_round * margin): finite, since ``run_session`` caps
    need_bits at 2^31 - 1, so the plan stays below 2^31 / 1e-12 / 2^-53 * 2.4."""
    return math.ceil(need_bits / per_round * margin)


def _attempt(cfg: ProtocolConfig, n_rounds: int, rngs, f_eve: float,
             p_pass: float, need_blocks: int) -> Transcript:
    rng_bits, rng_eve, rng_bob, rng_noise, rng_public, rng_hash = rngs
    k = cfg.block_size

    a_bits = rng_bits.integers(0, 2, size=n_rounds, dtype=np.int8)

    if cfg.eve is not None:
        fired = rng_eve.random(n_rounds) < f_eve
        guesses = rng_eve.integers(0, 2, size=n_rounds, dtype=np.int8)
        sent_on = np.where(fired, a_bits, guesses)
    else:
        fired = None
        sent_on = a_bits

    # rng_bob feeds nothing else, and a uniform draw on [0, 1) is below a
    # pass probability of exactly 1, so a certain pass draws nothing.  No
    # policy is checked: ``run_session`` refuses p_pass 0 before any attempt.
    if p_pass == 1.0:
        conclusive = np.full(n_rounds, True)
    else:
        conclusive = rng_bob.random(n_rounds) < p_pass
    # Channel noise: loss first, then polarization flips on the survivors.
    # rng_noise feeds nothing else, so a draw at probability 0 changes no
    # round and is skipped; the loss draw stays when flips follow it.
    if cfg.loss_probability or cfg.flip_probability:
        conclusive &= rng_noise.random(n_rounds) >= cfg.loss_probability
    outcome_bits = sent_on
    if cfg.flip_probability:
        outcome_bits = sent_on ^ (rng_noise.random(n_rounds) < cfg.flip_probability)

    kept = np.flatnonzero(conclusive)
    if kept.size < 2:
        raise _ShortOfBlocks

    # The session's error estimate is derived from its transcript, so only
    # the positions are drawn.
    disclosed = kept[_disclosed_positions(kept.size, cfg.disclose_fraction, rng_public)]
    disclosed_mask = np.zeros(n_rounds, dtype=bool)
    disclosed_mask[disclosed] = True

    remaining = np.flatnonzero(conclusive & ~disclosed_mask).astype(np.int32)

    # Antedate coding: blocks of k identical sent bits, grouped by A after
    # reception in transmission order, then ordered by their first rounds
    # and publicly shuffled; parity bit j XORs the shuffled blocks
    # j*n .. j*n+n-1.  The two bit values' blocks are two ascending runs of
    # distinct first rounds, which a stable argsort merges in one pass; at
    # k = 1 the merge gives back ``remaining``.  (``compress`` splits by a
    # random mask faster than boolean indexing does.)
    if k == 1:
        blocks = remaining[:, None]
    else:
        one = a_bits[remaining] == 1
        blocks = np.concatenate([ids[:ids.size - ids.size % k].reshape(-1, k)
                                 for ids in (remaining.compress(~one), remaining.compress(one))])
        blocks = blocks[np.argsort(blocks[:, 0], kind="stable")]
    if len(blocks) < need_blocks:
        raise _ShortOfBlocks
    chosen = blocks.take(rng_public.permutation(len(blocks))[:need_blocks], axis=0)

    # Filled column by column, so every column is contiguous.
    table = np.empty((n_rounds, len(ROUND_COLUMNS)), dtype=np.uint8, order="F")
    table[:, 0] = a_bits
    table[:, 1] = np.where(conclusive, outcome_bits, 2)
    table[:, 2] = 3 if fired is None else np.where(fired, a_bits, 2)
    table[:, 3] = disclosed_mask
    # All M subsets, at the lengths a matching walk meets; rng_hash feeds
    # nothing else, so the announced ones are drawn as round by round.  The
    # transcript keeps those its hash walk announces.
    length = cfg.key_length + cfg.hash_rounds
    lengths = list(range(length, length - cfg.hash_rounds, -1))
    subsets = tuple(format(v, f"0{n}b")[::-1]
                    for n, v in zip(lengths, _random_subsets(rng_hash, lengths)))
    return Transcript._adopt(table, chosen, subsets, cfg.blocks_per_parity)


def replay_keys(transcript: Transcript) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Both keys as the transcript's public record gives them.

    The keys follow from the per-round data, the announced blocks, n and
    the hash subsets alone; (None, None) if the recorded session aborted.
    """
    return transcript.key_a, transcript.key_b
