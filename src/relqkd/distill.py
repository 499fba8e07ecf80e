"""Session engine: transmission, sifting, block coding, parities, hashing.

One session plays the five protocol stages end to end: seeded per-round
transmission with optional intercept-resend interference, sifting on the
receiver's conclusive outcomes, disclosure-based error estimation, majority
blocks announced after reception, parity-bit formation over disjoint block
groups, and the round-by-round hash comparison that whittles N + M parity
bits down to the final N-bit keys.  No round count is fixed before
sending: rounds are drawn until their blocks are complete.  Everything is
driven by one master seed and the resulting transcript is byte-reproducible.

A session's transcript is the simulator's full record, not its public
discussion: the round table, the blocks announced after reception, the
number n of blocks XORed into each parity bit, and the announced hash
subsets.  A session never announces the table's ``a_bit`` and
``eve_outcome`` columns, nor ``b_outcome``'s bits off the disclosed rounds.
The hash log, the keys, the abort and the error estimate are derived from
that record when the transcript is made (``hash_rounds`` is the one hash
walk), so they cannot disagree with it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .adversary import EveStrategy, channel_probabilities
from .errors import InvalidParameterError, ResourceExhaustedError, require_floats, require_integers
from .measurement import BobOutcome, EveOutcome
from .wavepacket import Plateau

TRANSCRIPT_SCHEMA = "relqkd-transcript/4"
# Round ids are int32, so a session or a transcript holds at most this many rounds.
_MAX_ROUNDS = 2 ** 31 - 1
# Rows, ids or characters taken at once wherever a session draws, checks,
# writes or reads its record: the working memory beyond the record is a
# few chunks, however many rounds the session plays.
_CHUNK = 1 << 16

# A session's random streams, by name.  Stream i draws from
# SeedSequence(seed, spawn_key=(i,)), the i-th child that
# SeedSequence(seed).spawn gives, so a new stream takes the next key and
# moves none of these.  The first five draw a fixed number of doubles a
# round; "hash" and "shuffle" draw only after the last round.
STREAMS = ("bits", "eve", "bob", "noise", "public", "hash", "shuffle")


@dataclass(frozen=True)
class ProtocolConfig:
    """All knobs of one key-distillation session."""

    key_length: int            # N, final key bits
    block_size: int            # k, odd
    blocks_per_parity: int     # n
    hash_rounds: int           # M
    disclose_fraction: float   # chance that a conclusive round is disclosed for noise estimation
    envelope: Plateau          # as make_plateau builds it; L = envelope.plateau_length
    channel_length: float      # L_ch < L
    seed: int
    flip_probability: float = 0.0
    loss_probability: float = 0.0
    eve: EveStrategy | None = None

    def __post_init__(self):
        require_integers(self, "key_length", "block_size", "blocks_per_parity",
                         "hash_rounds", "seed")
        require_floats(self, "disclose_fraction", "channel_length", "flip_probability",
                       "loss_probability")
        if self.key_length < 1:
            raise InvalidParameterError(f"key length must be >= 1, got {self.key_length}")
        if self.block_size < 1 or self.block_size % 2 == 0:
            raise InvalidParameterError(
                f"block size must be odd and >= 1, got {self.block_size}")
        if self.blocks_per_parity < 1:
            raise InvalidParameterError(
                f"blocks per parity must be >= 1, got {self.blocks_per_parity}")
        if self.hash_rounds < 1:
            raise InvalidParameterError(f"hash rounds must be >= 1, got {self.hash_rounds}")
        if not (0.0 < self.disclose_fraction < 1.0):
            raise InvalidParameterError(
                f"disclose fraction must lie in (0, 1), got {self.disclose_fraction}")
        if not isinstance(self.envelope, Plateau):
            raise InvalidParameterError(
                f"envelope must be a Plateau, as make_plateau builds it, got {self.envelope!r}")
        if self.eve is not None and not isinstance(self.eve, EveStrategy):
            raise InvalidParameterError(f"eve must be an EveStrategy or None, got {self.eve!r}")
        L = self.envelope.plateau_length
        if not (0.0 <= self.channel_length < L):
            raise InvalidParameterError(
                f"need 0 <= L_ch < L, got L_ch={self.channel_length}, L={L}")
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
# Tables for bytes.translate, one per column: _SPELL[j] maps code c to
# character c of column j's alphabet, and _READ[j] maps a byte to its code
# in column j, or to 255 (find's -1) outside the alphabet.
_SPELL = tuple(a.tobytes().ljust(256, b"\0") for a in _ALPHABETS)
_READ = tuple(bytes(a.tobytes().find(byte) % 256 for byte in range(256)) for a in _ALPHABETS)


@dataclass(frozen=True)
class Transcript:
    """The simulator's full record of one session, and what follows from it.

    The record is the round table (each round's sent bit, outcomes and
    disclosure flag), the blocks cut after reception, n and the hash
    subsets; parity bit j XORs blocks j*n .. j*n+n-1.  A session never
    announces the sent bits, her outcomes or B's bits off the disclosed
    rounds.  When a transcript is made, by the constructor (and so
    ``dataclasses.replace``), the reader or a session, ``_derive`` checks
    this record and derives the rest: the hash log (the subsets walked up
    to the first parity mismatch), both keys, the abort and the error
    estimate over the disclosed rounds.  ``subsets`` keeps only the
    announced subsets.  The constructor keeps read-only copies of the
    arrays it is given: the table as uint8 codes, the blocks as int32 round ids.

    A record that no session could make is refused with
    InvalidParameterError, so no derived value and no ``to_text`` raises.
    That is: a 2-D table, one column per ``ROUND_COLUMNS`` name and each
    code in its column's alphabet; an eavesdropper column that is all 3
    (no eavesdropper) or holds no 3, each fired outcome naming the sent
    bit; one disclosed round or more, all conclusive; one block or more,
    each row an odd number of rising ids of undisclosed, conclusive rounds
    of one sent bit, no round in two rows; an integer n >= 1 that divides
    the number of blocks; and a tuple of fewer subsets than parity bits,
    subset l a non-zero bit string of (parity bits - l + 1) characters, as
    long as the strings it meets, whether or not the walk aborts before it.
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
        # One pass over the rows, a chunk at a time: whether a fired outcome
        # names another bit or a disclosed round is inconclusive, and the
        # rounds with no eavesdropper, disclosed and disclosed in error.
        # The disclosure codes are 0 or 1 here, so they read as bools.
        misfired = inconclusive = False
        absent = count = errors = 0
        for rows in _chunks(len(table)):
            shown = disclosed[rows].view(np.bool_)
            misfired = misfired or bool(((eve[rows] < 2) & (eve[rows] != sent[rows])).any())
            inconclusive = inconclusive or bool((shown & (bob[rows] == 2)).any())
            absent += np.count_nonzero(eve[rows] == 3)
            count += np.count_nonzero(shown)
            errors += np.count_nonzero(shown & (sent[rows] != bob[rows]))
        if misfired or 0 < absent < len(eve):
            raise InvalidParameterError("a fired eavesdropper outcome must name the sent bit, "
                                        "and '-' mark every round or none")
        if not count or inconclusive:
            raise InvalidParameterError("a session discloses one conclusive round or more")
        # A block's rounds decode to A's sent bit and B's majority vote,
        # which parity bit j XORs over blocks j*n .. j*n+n-1: a chunk of
        # whole parity groups at a time.
        if n < 1 or len(blocks) % n:
            raise InvalidParameterError(
                f"{len(blocks)} blocks do not split into parity groups of {n} blocks")
        parities = np.empty((2, len(blocks) // n), dtype=np.uint8)
        for groups in _chunks(len(blocks) // n, 4 * n * blocks.shape[1]):  # take makes intp ids
            members = blocks[groups.start * n:groups.stop * n]
            a, b = sent.take(members), bob.take(members)
            if (a != a[:, :1]).any() or not ((disclosed.take(members) == 0) & (b != 2)).all():
                raise InvalidParameterError("a block must hold undisclosed, conclusive rounds "
                                            "of one sent bit")
            parities[:, groups] = (form_parity_bits(a[:, 0], n),
                                   form_parity_bits(majority_decode(b), n))
        walk = hash_rounds(*parities, self.subsets)
        self.__dict__.update(subsets=self.subsets[:len(walk.log)], hash_log=walk.log,
                             key_a=walk.key_a, key_b=walk.key_b, aborted=walk.aborted,
                             p_err_estimate=float(errors / count))

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

    @property
    def rounds(self) -> RoundView:
        """A new view of one RoundRecord per round, with a length, on each access."""
        return RoundView(self.round_table, self.blocks)

    def to_text(self) -> str:
        """The text form: the pieces of ``text_pieces``, joined.

        It spells the record, the blocks as they are, and the derived hash
        log, error estimate, keys and abort too, so a text that contradicts
        its record does not read back (see ``from_text``).
        """
        return b"".join(self.text_pieces()).decode("ascii")

    def text_pieces(self):
        """The bytes of ``to_text``, in pieces of at most ``_CHUNK`` characters each.

        This is the one routine that spells a transcript.  A column line's
        characters are its codes translated by the column's ``_SPELL``
        table, and the members line is a matrix of one row per round id
        (see ``_spell_ids``) spelled into one reused buffer, both a chunk
        at a time.  The derived lines follow them.
        """
        table, (n_blocks, k) = self.round_table, self.blocks.shape
        ids = self.blocks.reshape(-1)
        rounds = len(table)
        width = _id_width(rounds)
        buffer = np.empty(max(_CHUNK, width + 1), dtype=np.uint8)
        yield f"{TRANSCRIPT_SCHEMA}\nrounds\t{rounds}\n".encode()
        for name, spell, column in zip(ROUND_COLUMNS, _SPELL, table.T):
            yield f"{name}\t".encode()
            for rows in _chunks(rounds):
                yield column[rows].tobytes().translate(spell)
            yield b"\n"
        yield f"blocks\t{n_blocks}\t{k}\t{self.blocks_per_parity}\n".encode()
        for part in _chunks(ids.size, width + 1):
            cells = buffer[:(part.stop - part.start) * (width + 1)].reshape(-1, width + 1)
            _spell_ids(cells, ids[part])
            if part.stop < ids.size:
                cells[-1, width] = ord(" ")  # the line goes on
            yield cells.tobytes()
        yield self._derived_lines().encode()

    def _derived_lines(self) -> str:
        """The lines after the members line: hash log, error estimate, keys and abort."""
        log = (f"{h.round_index}\t{h.subset}\t{h.parity_a}\t{h.parity_b}\t"
               f"{'-' if h.discarded is None else h.discarded}" for h in self.hash_log)
        return "\n".join([
            f"hash_log\t{len(self.hash_log)}", "l\tsubset\tparity_a\tparity_b\tdiscarded", *log,
            f"p_err\t{self.p_err_estimate!r}", f"key_a\t{_bits_text(self.key_a)}",
            f"key_b\t{_bits_text(self.key_b)}", f"aborted\t{int(self.aborted)}",
            f"abort_reason\t{self.abort_reason or '-'}", ""])

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
        rejected.  The transcript keeps the blocks the text lists, not ``t``:
        ``to_text`` spells it again from the record.
        """
        if not isinstance(text, str):
            raise InvalidParameterError(f"a transcript is a str, got {type(text).__name__}")
        try:
            transcript, derived_at = cls._parse(text)
        except InvalidParameterError:
            raise
        except (IndexError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"malformed transcript: {exc!r}") from exc
        if transcript._derived_lines() != text[derived_at:]:
            raise InvalidParameterError("the text differs from what to_text writes")
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
        any other text is refused.  The columns and the member ids are read
        a chunk of characters at a time, so the text is never encoded whole.
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

        table = np.empty((n_rounds, len(ROUND_COLUMNS)), dtype=np.uint8, order="F")
        for read, first, column in zip(_READ, firsts, table.T):
            for rows in _chunks(n_rounds):
                chars = text[first + rows.start:first + rows.stop].encode("ascii")
                column[rows] = np.frombuffer(chars.translate(read), dtype=np.uint8)
        members = np.empty((n_blocks, k), dtype=np.int32)
        ids, cell = members.reshape(-1), width + 1
        for part in _chunks(ids.size, cell):
            line = text[starts[7] + part.start * cell:starts[7] + part.stop * cell]
            ids[part] = _member_ids(np.frombuffer(line.encode("ascii"), dtype=np.uint8),
                                    part.stop - part.start, width, n_rounds)
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
    agree with that.  A piece of the line, ``count`` ids that the line
    goes on past, reads the same way with a space after its last id; the
    caller finds the line's one newline.  Then no other spelling of the
    same ids exists, so an id needs no check beyond its digits and that it
    is a round of the table's ``rounds``, which are at most
    ``_MAX_ROUNDS``.  So ``width`` is at most 10, and the digits' sum
    before the '0's are taken off it fits in int64; the ids it leaves fit
    in int32, which they are kept as.
    """
    if rounds > _MAX_ROUNDS:
        raise InvalidParameterError(
            f"a transcript holds at most {_MAX_ROUNDS} rounds, got {rounds}")
    if not count:
        return np.empty(0, dtype=np.int32)
    cells = line.reshape(count, width + 1)
    if (np.count_nonzero(line - ord("0") < 10) != count * width
            or (cells[:-1, width] != ord(" ")).any() or cells[-1, width] not in b" \n"):
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
    for rows in _chunks(len(members), members.shape[1]):
        part = members[rows]
        if not (part[:, 1:] > part[:, :-1]).all():
            return False
        marked[part] = True
    return np.count_nonzero(marked) == members.size


class RoundView:
    """The rounds of a transcript as RoundRecords, built only when iterated.

    It holds the transcript's round table and one int32 column of each
    round's block, -1 for none: 4 B per round beside the table.  Iteration
    builds the records from one list per column of 4096 rows at a time.
    """

    __slots__ = ("_table", "_block")

    def __init__(self, table: np.ndarray, blocks: np.ndarray):
        block = np.full(len(table), -1, dtype=np.int32)
        for rows in _chunks(len(blocks), blocks.shape[1]):
            block[blocks[rows]] = np.arange(rows.start, rows.stop, dtype=np.int32)[:, None]
        self._table, self._block = table, block

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self):
        bob, eve = tuple(BobOutcome), tuple(EveOutcome) + (None,)
        for rows in _chunks(len(self), 16):  # 4096 rows
            columns = (column.tolist() for column in (*self._table[rows].T, self._block[rows]))
            for i, (a, b, e, d, blk) in enumerate(zip(*columns), rows.start):
                yield RoundRecord(i, a, bob[b], eve[e], d == 1, None if blk < 0 else blk)


def _bits_text(bits) -> str:
    if bits is None:
        return "-"
    return (bits + ord("0")).tobytes().decode()


def estimate_error(a_bits, b_bits, disclose_fraction: float,
                   rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """Disclose a random fraction of positions and return the mismatch rate.

    Returns (p_err, disclosed_positions); the disclosed positions must be
    discarded from key material by the caller.  Callers pass two bit
    sequences of one length, a numpy Generator, and a fraction in (0, 1)
    that discloses one position or more.
    """
    a_arr, b_arr = np.asarray(a_bits), np.asarray(b_bits)
    count = int(round(disclose_fraction * a_arr.size))
    positions = np.sort(rng.choice(a_arr.size, size=count, replace=False))
    p_err = float(np.mean(a_arr[positions] != b_arr[positions]))
    return p_err, positions


def majority_decode(block) -> np.int64 | np.ndarray:
    """Majority vote over the last axis of an odd-size block of bits.

    One block gives one int64 vote; a stack of blocks, one row each,
    gives an int64 array of votes.  Callers pass bits 0 and 1; an even
    block size raises InvalidParameterError.
    """
    bits = np.atleast_1d(block)
    size = bits.shape[-1]
    if size < 1 or size % 2 == 0:
        raise InvalidParameterError(
            f"majority voting needs an odd block size, got {size}")
    # A sum of the columns, in the narrowest unsigned dtype that holds
    # ``size`` ones: a sum over a short last axis is slower.
    bits = bits.astype(np.min_scalar_type(size), copy=False)
    votes = bits[..., 0] + bits[..., 1] if size > 1 else bits[..., 0]
    for j in range(2, size):
        votes += bits[..., j]
    return (votes > size // 2).astype(np.int64)


def form_parity_bits(blockwise_bits, blocks_per_parity: int) -> np.ndarray:
    """XOR each run of n block-wise bits into one parity bit.

    Parity bit j is the XOR of blocks j*n .. j*n+n-1.  Callers pass
    block-wise bits 0 and 1 and an int n >= 1 that divides their number,
    as ``Transcript._derive`` checks.
    """
    return np.bitwise_xor.reduce(np.asarray(blockwise_bits).reshape(-1, blocks_per_parity), axis=1)


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


def _random_subsets(rng: np.random.Generator, lengths: list[int]) -> list[int]:
    """A random non-zero subset of n bits for each n of ``lengths`` in turn.

    All-zero subsets reveal nothing and would break the 2^-M analysis.
    ``Generator.bytes(m)`` is the first m bytes of ceil(m/4) 32-bit words,
    and consecutive calls continue one stream of words.  So a subset longer
    than 62 bits is the next ceil(n/32) words of that stream, masked to n
    bits, and the leading run of such subsets takes its words in one call.
    A zero subset is drawn again from the words that follow, in order, and
    the words the run is then short of are drawn when they are reached.
    The shorter subsets follow one ``integers`` call each.  (``bytes(0)``
    draws a word, so a run of none draws nothing.)  A session's lengths
    fall by one per round, so no longer subset follows a shorter one.
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
    return subsets + [int(rng.integers(1, 1 << n)) for n in lengths[run:]]


@dataclass(frozen=True)
class HashResult:
    key_a: np.ndarray | None
    key_b: np.ndarray | None
    aborted: bool
    log: tuple[HashRecord, ...]


def hash_rounds(bits_a, bits_b, subsets) -> HashResult:
    """Walk the round-by-round parity-hash comparison over the given subsets.

    Subset l is a non-zero bit string as long as the strings before round
    l, len(bits) - l + 1 characters, character i selecting position i.
    Each round compares the subset parities, aborts on a mismatch, and
    otherwise discards the bit at the lowest position the subset selects.
    Over M uniform non-zero subsets an undetected residual mismatch
    survives with probability 2^-M.  Callers pass two uint8 strings of
    bits 0 and 1 and of one length.  Every subset is checked before the
    walk, so subsets that are not a sequence of one string or more, any
    other subset (past an abort too), or as many subsets as bits raises
    InvalidParameterError.
    """
    if not isinstance(subsets, Sequence) or not subsets:
        raise InvalidParameterError("hash subsets must be a sequence of one string or more")
    length = len(bits_a)
    if length <= len(subsets):
        raise InvalidParameterError(
            f"{length} parity bits cannot survive {len(subsets)} hash rounds")
    for l, text in enumerate(subsets, start=1):
        size = length - l + 1
        ones = text.count("1") if isinstance(text, str) else 0
        if not ones or len(text) != size or ones + text.count("0") != size:
            raise InvalidParameterError(
                f"hash subset {l} is not a non-zero bit string of length {size}")
    ia, ib = _bits_to_int(bits_a), _bits_to_int(bits_b)
    log: list[HashRecord] = []
    for l, text in enumerate(subsets, start=1):
        s = int(text[::-1], 2)
        pa, pb, ia, ib = _hash_step(ia, ib, s)
        if pa != pb:
            log.append(HashRecord(l, text, pa, pb, None))
            return HashResult(None, None, True, tuple(log))
        log.append(HashRecord(l, text, pa, pb, (s & -s).bit_length() - 1))
    length -= len(subsets)
    return HashResult(_int_to_bits(ia, length), _int_to_bits(ib, length),
                      False, tuple(log))


def run_session(cfg: ProtocolConfig) -> Transcript:
    """Play one full session and return its transcript.

    Rounds are drawn until the session has its (N + M) * n blocks and a
    disclosed round (``_rounds``), so the transcript holds the rounds it
    uses.  It expects (N + M) * n * k rounds over the chance that one is
    conclusive and undisclosed, or 1 / (p_sift * d) for a disclosure if
    more; past 2^31 - 1, the most that int32 round ids can name, it is
    refused with ResourceExhaustedError before drawing, as it is when its
    rounds pass that count while drawing or exhaust memory.  A hash parity
    mismatch is not an error: the abort is in the transcript.
    """
    if not isinstance(cfg, ProtocolConfig):
        raise InvalidParameterError(f"the config must be a ProtocolConfig, got {cfg!r:.40}")
    f_eve, p_pass = channel_probabilities(cfg.envelope, cfg.channel_length, cfg.eve)
    p_sift = p_pass * (1.0 - cfg.loss_probability)
    if p_sift <= 1e-12:
        raise ResourceExhaustedError(
            "no round can ever pass the receiver test under this configuration")
    k = cfg.block_size
    need_blocks = (cfg.key_length + cfg.hash_rounds) * cfg.blocks_per_parity
    per_round = p_sift * (1.0 - cfg.disclose_fraction)
    # An int past the float range would raise OverflowError; its count is inf.
    for_blocks = need_blocks * k / per_round if need_blocks * k < 2 ** 1023 else math.inf
    wait = 1.0 / p_sift / cfg.disclose_fraction  # inf where p_sift * d is 0.0
    expected = max(for_blocks, wait)
    if expected > _MAX_ROUNDS:
        raise ResourceExhaustedError(f"a session expects {expected:.4g} rounds, more than the "
                                     f"{_MAX_ROUNDS} that int32 round ids can name")
    try:
        table, blocks_end = _rounds(cfg, f_eve, p_pass, need_blocks, for_blocks, wait)
        sent, bob, _, shown = table.T

        # Antedate coding: blocks of k identical sent bits, grouped by A after
        # reception in transmission order, then ordered by their first rounds
        # and publicly shuffled; parity bit j XORs the shuffled blocks
        # j*n .. j*n+n-1.  The two bit values' blocks are two ascending runs of
        # distinct first rounds, which a stable argsort merges in one pass; at
        # k = 1 the merge gives back the undisclosed conclusive rounds.
        def unspent(rows):
            return (bob[rows] < 2) & (shown[rows] == 0)

        if k == 1:
            blocks = _flat_ids(unspent, blocks_end)[:, None]
        else:
            runs = [_flat_ids(lambda rows: unspent(rows) & (sent[rows] == bit), blocks_end)
                    for bit in (0, 1)]
            blocks = np.concatenate([ids[:ids.size - ids.size % k].reshape(-1, k)
                                     for ids in runs])
            del runs
            blocks = blocks[np.argsort(blocks[:, 0], kind="stable")]
    except MemoryError:
        raise ResourceExhaustedError(
            f"a session of about {expected:.4g} rounds does not fit in memory") from None
    # ``shuffle`` swaps rows as ``permutation(len(blocks))`` swaps the
    # entries of its arange, with the same draws, so no int64 arange is made.
    _stream(cfg.seed, "shuffle").shuffle(
        blocks.view(np.dtype((np.void, blocks.itemsize * k)))[:, 0])

    # All M subsets, at the lengths a matching walk meets; rng_hash feeds
    # nothing else, so the announced ones are drawn as round by round.  The
    # transcript keeps those its hash walk announces.
    length = cfg.key_length + cfg.hash_rounds
    lengths = list(range(length, length - cfg.hash_rounds, -1))
    subsets = tuple(format(v, f"0{n}b")[::-1]
                    for n, v in zip(lengths, _random_subsets(_stream(cfg.seed, "hash"), lengths)))
    return Transcript._adopt(table, blocks, subsets, cfg.blocks_per_parity)


def _stream(seed, name: str) -> np.random.Generator:
    """The generator of a session's stream ``name`` of ``STREAMS``."""
    key = STREAMS.index(name)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(key,))))


def _rounds(cfg: ProtocolConfig, f_eve: float, p_pass: float, need_blocks: int,
            for_blocks: float, wait: float) -> tuple[np.ndarray, int]:
    """The round table of a session, and the rounds through the one that completes its blocks.

    Rounds are drawn a chunk at a time until the classes' whole blocks,
    floor(c0 / k) + floor(c1 / k) where c_b counts the conclusive,
    undisclosed rounds of sent bit b, number ``need_blocks`` and a round
    has been disclosed; rounds past the one that completes the blocks join
    none.  Each stream draws a fixed number of doubles a round, so neither
    the chunks' sizes, which follow the rounds still expected, nor the
    draws past the stop move a round.
    """
    k, loss, flip = cfg.block_size, cfg.loss_probability, cfg.flip_probability
    stream = partial(_stream, cfg.seed)
    rng_bits, rng_public = stream("bits"), stream("public")
    # A uniform draw on [0, 1) is below a pass probability of exactly 1, so
    # a certain pass draws nothing, and no noise draws nothing.  No policy
    # is checked: ``run_session`` refuses p_pass 0 before any round.
    rng_eve = stream("eve") if cfg.eve is not None else None
    rng_bob = stream("bob") if p_pass != 1.0 else None
    rng_noise = stream("noise") if loss or flip else None
    # Every stream draws into one buffer of ``width`` doubles a chunk row.
    width = 2 if rng_eve is not None or rng_noise is not None else 1
    doubles = np.empty(width * max(1, min(_CHUNK // 2, math.ceil(max(for_blocks, wait)))))

    def uniforms(rng, rows, per_row=1):
        return rng.random(out=doubles[:rows * per_row]).reshape(rows, per_row).T

    parts, counts, drawn = [], [0, 0], 0
    blocks_end = disclosed_at = None
    while blocks_end is None or disclosed_at is None:
        if drawn == _MAX_ROUNDS:
            raise ResourceExhaustedError(f"a session needs more than {_MAX_ROUNDS} rounds, "
                                         f"the most that int32 round ids can name")
        ahead = max(for_blocks * (1 - sum(c // k for c in counts) / need_blocks),
                    wait if disclosed_at is None else 0)
        rows = min(doubles.size // width, _MAX_ROUNDS - drawn, math.ceil(ahead))
        part = np.empty((rows, len(ROUND_COLUMNS)), dtype=np.uint8, order="F")
        sent, bob, eve, shown = part.T
        np.less(uniforms(rng_bits, rows)[0], 0.5, out=sent.view(np.bool_))
        # B's column starts as the bit the channel carries on to him: A's
        # where she fired, else her guess.  The disclosure column holds her
        # fired mask until the disclosures are drawn.
        if rng_eve is not None:
            fire, guess = uniforms(rng_eve, rows, 2)
            fired = shown.view(np.bool_)
            np.less(fire, f_eve, out=fired)
            np.less(guess, 0.5, out=bob.view(np.bool_))
            np.copyto(bob, sent, where=fired)
            eve[:] = 2
            np.copyto(eve, sent, where=fired)
        else:
            bob[:] = sent
            eve[:] = 3
        if rng_bob is not None:
            np.copyto(bob, 2, where=uniforms(rng_bob, rows)[0] >= p_pass)
        # Channel noise: a loss, then a polarization flip of a survivor.
        if rng_noise is not None:
            lost, flipped = uniforms(rng_noise, rows, 2)
            np.copyto(bob, 2, where=lost < loss)
            np.bitwise_xor(bob, (flipped < flip) & (bob < 2), out=bob)
        np.logical_and(uniforms(rng_public, rows)[0] < cfg.disclose_fraction, bob < 2,
                       out=shown.view(np.bool_))

        if disclosed_at is None and shown.any():
            disclosed_at = drawn + int(shown.argmax())
        if blocks_end is None:
            classes = [(bob < 2) & (shown == 0) & (sent == bit) for bit in (0, 1)]
            after = [c + np.count_nonzero(m) for c, m in zip(counts, classes)]
            if sum(c // k for c in after) >= need_blocks:
                # The whole blocks after each row; they grow by one at most a row.
                made = sum((np.cumsum(m, dtype=np.int32) + c) // k
                           for c, m in zip(counts, classes))
                blocks_end = drawn + int(np.searchsorted(made, need_blocks)) + 1
            counts, classes = after, None  # the masks go before the next chunk's
        parts.append(part)
        drawn += rows
    stop = max(blocks_end, disclosed_at + 1)
    parts[-1] = part[:rows - (drawn - stop)]
    table = np.empty((stop, len(ROUND_COLUMNS)), dtype=np.uint8, order="F")
    return np.concatenate(parts, out=table), blocks_end


def _chunks(size: int, per_row: int = 1) -> list[slice]:
    """Slices that cover rows 0 .. size - 1, each of ``_CHUNK`` cells at most where
    a row holds ``per_row`` cells (one row, if a row holds more)."""
    step = max(1, _CHUNK // per_row)
    return [slice(start, min(start + step, size)) for start in range(0, size, step)]


def _flat_ids(test, size: int) -> np.ndarray:
    """The rows below ``size`` where ``test`` holds, as ascending int32 ids.

    ``test`` maps a slice of rows to a bool array of them.  It runs twice
    on each chunk, once to count the ids and once to fill them in, so the
    ids are held once, as int32.
    """
    chunks = _chunks(size, 4)  # flatnonzero gives intp ids
    ids = np.empty(sum(np.count_nonzero(test(rows)) for rows in chunks), dtype=np.int32)
    at = 0
    for rows in chunks:
        found = np.flatnonzero(test(rows))
        np.add(found, rows.start, out=ids[at:at + found.size], casting="unsafe")
        at += found.size
    return ids


def replay_keys(transcript: Transcript) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Both keys as the transcript, the simulator's full record, gives them.

    The keys follow from the round table's ``a_bit`` and ``b_outcome``
    columns, which no session announces, the blocks, n and the hash
    subsets alone; (None, None) if the recorded session aborted.
    """
    return transcript.key_a, transcript.key_b
