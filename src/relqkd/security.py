"""Key-level security bounds and the inverse parameter solver.

Everything here is closed-form arithmetic on the protocol parameters: the
exact count of the raw strings compatible with one parity bit (and the
cosine side of its counting identity, which only the checks read), its
exact Hartley ratio eta, the ``SecurityReport`` that derives the
eavesdropper's advantage zeta, her key-guessing probability and the three
mutual informations of the final keys from its parameters, and the search
that inverts the security criterion into concrete (k, n, M).
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .adversary import eve_success_probability
from .errors import (InvalidParameterError, require_float, require_floats, require_integer,
                     require_integers)

LN2 = math.log(2.0)

REPORT_SCHEMA = "relqkd-report/1"
# The largest n*k that the parity count, and so a report, takes, and the
# solver's search bound: the count walks O((nk)^2) bit operations.
MAX_TOTAL = 1_000_000


def parity_count(n: int, k: int) -> int:
    """Number of ways one parity bit can be assembled from block-wise bits.

    The exact binomial sum (1/2) * sum_i C(n*k, i*k).  At k = 1 every j is
    a multiple of k, so it is 2^(n-1); otherwise it walks the binomial row
    in O((nk)^2) bit operations.  An n*k above ``MAX_TOTAL`` is refused.
    """
    n, k = require_integer("n", n), require_integer("k", k)
    if n < 1 or k < 1:
        raise InvalidParameterError(f"need n, k >= 1, got n={n}, k={k}")
    total = n * k
    if total > MAX_TOTAL:
        raise InvalidParameterError(f"n*k must be at most {MAX_TOTAL}, got {total}")
    if k == 1:
        return 1 << (n - 1)
    # C(total, j) for j = 0..total in one multiplicative pass.
    binom = twice = 1
    for j in range(1, total + 1):
        binom = binom * (total - j + 1) // j
        if j % k == 0:
            twice += binom
    return twice // 2


def parity_cosine(n: int, k: int) -> float:
    """The cosine side of the counting identity, a float to check ``parity_count`` by.

    (2^{nk}/2k) * sum_{l=1..k} cos^{nk}(l*pi/k) * cos(n*l*pi), evaluated
    term by term; an n*k of 1024 or more, past which 2^{nk} is no float,
    is refused.
    """
    n, k = require_integer("n", n), require_integer("k", k)
    if n < 1 or k < 1 or n * k >= 1024:
        raise InvalidParameterError(f"need n, k >= 1 and n*k < 1024, got n={n}, k={k}")
    total = n * k
    acc = 0.0
    for l in range(1, k + 1):
        c = math.cos(l * math.pi / k)
        sign = -1.0 if (n * l) % 2 else 1.0
        acc += (c ** total) * sign
    return (2.0 ** total) / (2.0 * k) * acc


def _log2_int(v: int) -> float:
    """log2 of a positive integer of any size; callers pass a count, never 0."""
    if v.bit_length() <= 900:
        return math.log2(v)
    shift = v.bit_length() - 64
    return math.log2(v >> shift) + shift


def _key_length(n_key) -> int:
    """The key length N as a Python int: an integer from 1 up to the float range."""
    n_key = require_integer("key length", n_key)
    if n_key < 1:
        raise InvalidParameterError(f"key length must be >= 1, got {n_key}")
    if n_key > sys.float_info.max:
        raise InvalidParameterError(f"key length must be at most {sys.float_info.max:g}, "
                                    f"got an integer of {n_key.bit_length()} bits")
    return n_key


@dataclass(frozen=True)
class SecurityReport:
    """One parameter set against the security criterion.

    The nine init fields are the parameters, and a session's error estimate
    and abort; ``__post_init__`` reads each once as a Python int, float or
    bool, refuses it out of range, and derives every bound and flag from
    them.  For key length N, M hash rounds and n blocks of k per parity bit:
    her per-parity-bit advantage ``zeta`` is [(1 + ratio)/2]^(eta n k), and
    1, a vacuous bound, at n = 1, whose parity set holds one string (eta = 0).
    ``pr_eve_key`` = 2^-N (1 + 2 zeta)^N bounds her guessing the whole key;
    it is computed in log space, and past the float range it is inf and
    flagged invalid, as is any value above 1.  In bits, I(A;B) =
    N + log2(1 - 2^-M), I(A;E) = N log2(1 + 2 zeta), and the I(B;E) bound
    (2 N zeta + 2^-M)/ln 2 combines the two through the information triangle
    inequality with the conservative + sign, so it is never negative.
    """

    n_key: int
    blocks_per_parity: int
    block_size: int
    hash_rounds: int
    ratio: float
    eta: float = field(init=False)
    zeta: float = field(init=False)
    pr_eve_key: float = field(init=False)
    pr_eve_key_valid: bool = field(init=False)
    i_ab: float = field(init=False)
    i_ae: float = field(init=False)
    i_be: float = field(init=False)
    pr_key_mismatch: float = field(init=False)
    eps1: float
    eps2: float
    identical_ok: bool = field(init=False)
    eve_prob_ok: bool = field(init=False)
    i_ae_ok: bool = field(init=False)
    i_be_ok: bool = field(init=False)
    p_err_estimate: float | None = None
    aborted: bool | None = None

    def __post_init__(self):
        require_integers(self, "n_key", "blocks_per_parity", "block_size", "hash_rounds")
        require_floats(self, "ratio", "eps1", "eps2")
        if self.p_err_estimate is not None:
            require_floats(self, "p_err_estimate")
        for name in ("eps1", "eps2"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise InvalidParameterError(f"{name} must lie in (0, 1), got {value}")
        if not (self.p_err_estimate is None or 0.0 <= self.p_err_estimate <= 1.0):
            raise InvalidParameterError(f"p_err_estimate {self.p_err_estimate} is outside [0, 1]")
        if not isinstance(self.aborted, (type(None), bool, np.bool_)):
            raise InvalidParameterError(f"aborted must be a bool, got {self.aborted!r:.40}")
        object.__setattr__(self, "aborted", None if self.aborted is None else bool(self.aborted))
        if not (0.0 <= self.ratio < 1.0):
            raise InvalidParameterError(f"channel ratio must lie in [0, 1), got {self.ratio}")
        n_key = _key_length(self.n_key)
        if self.hash_rounds < 1:
            raise InvalidParameterError(f"hash rounds must be >= 1, got {self.hash_rounds}")
        # The count last: it walks O((nk)^2) bit operations, and refuses n, k out of range.
        n, k = self.blocks_per_parity, self.block_size
        eta = exact_eta(n, k)
        z = eve_success_probability(self.ratio) ** (eta * n * k)
        try:
            pr_eve_key = math.exp(n_key * (math.log1p(2.0 * z) - LN2))
        except OverflowError:
            pr_eve_key = math.inf
        p_miss = 2.0 ** (-self.hash_rounds)
        i_ae = n_key * math.log1p(2.0 * z) / LN2
        # N zeta first: 2.0 * N overflows to inf near the float range, and inf * 0 is NaN.
        i_be = (2.0 * (n_key * z) + p_miss) / LN2
        derived = dict(
            eta=eta, zeta=z, pr_eve_key=pr_eve_key, pr_eve_key_valid=pr_eve_key <= 1.0 + 1e-12,
            i_ab=n_key + math.log1p(-p_miss) / LN2, i_ae=i_ae, i_be=i_be,
            pr_key_mismatch=p_miss, identical_ok=p_miss <= self.eps1,
            eve_prob_ok=pr_eve_key <= 2.0 ** (-n_key) + self.eps2,
            i_ae_ok=i_ae <= self.eps2, i_be_ok=i_be <= self.eps2)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    @property
    def all_ok(self) -> bool:
        return self.identical_ok and self.eve_prob_ok and self.i_ae_ok and self.i_be_ok

    def _items(self):
        """Each written (key, value): the fields in order, the derived all_ok
        after i_be_ok, and the session fields only when they are set."""
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                yield f.name, value
            if f.name == "i_be_ok":
                yield "all_ok", self.all_ok

    def to_text(self) -> str:
        """The text form, rendered on each call."""
        lines = [REPORT_SCHEMA] + [f"{key}={_render(value)}" for key, value in self._items()]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SecurityReport":
        """Parse ``to_text`` output; any other input raises InvalidParameterError.

        Only the parameters are read.  The report built from them is
        written back and must give ``text`` again, so a text whose bounds
        or flags contradict its parameters is rejected.
        """
        if not isinstance(text, str):
            raise InvalidParameterError(f"a report is a str, got {type(text).__name__}")
        lines = text.split("\n")
        if lines[0] != REPORT_SCHEMA:
            raise InvalidParameterError(
                f"expected a {REPORT_SCHEMA} block, got first line {lines[0][:40]!r}")
        kv = dict(line.partition("=")[::2] for line in lines[1:])
        try:
            # Annotations are strings here, such as "int" or "float | None".
            report = cls(**{f.name: _PARSERS[f.type.split(" |")[0]](kv[f.name])
                            for f in fields(cls)
                            if f.init and (f.name in kv or f.default is MISSING)})
        except InvalidParameterError:
            raise
        except (KeyError, ValueError, OverflowError) as exc:
            raise InvalidParameterError(f"malformed report: {exc!r}") from exc
        if report.to_text() != text:
            raise InvalidParameterError("the text differs from what to_text writes")
        return report


_PARSERS = {"int": int, "float": float, "bool": {"true": True, "false": False}.__getitem__}


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # the shortest text that reads back to the same float
    return str(value)


def exact_eta(n: int, k: int) -> float:
    """Hartley information of the parity set per raw bit, computed exactly.

    ``parity_count`` reads n and k, and refuses them out of its range.
    """
    return _log2_int(parity_count(n, k)) / (n * k)


def build_report(
    n_key: int,
    blocks_per_parity: int,
    block_size: int,
    hash_rounds: int,
    ratio: float,
    eps1: float,
    eps2: float,
    p_err_estimate: float | None = None,
    aborted: bool | None = None,
) -> SecurityReport:
    """Evaluate every security quantity for one concrete parameter set."""
    return SecurityReport(n_key, blocks_per_parity, block_size, hash_rounds, ratio,
                          eps1, eps2, p_err_estimate, aborted)


class SolvedParameters(NamedTuple):
    block_size: int        # k, odd
    blocks_per_parity: int  # n
    hash_rounds: int       # M


def solve_parameters(
    eps1: float,
    eps2: float,
    n_key: int,
    ratio: float,
) -> tuple[SolvedParameters, SecurityReport]:
    """Smallest (k, n, M) satisfying the two-part security criterion.

    M is the smallest hash-round count compatible with both criteria: the
    2^-M key-mismatch probability must undercut eps1, and its contribution
    to the I(B;E) bound must leave room under eps2 (half of eps2*ln2 is
    reserved for it, so a solution in (n, k) always exists for ratio < 1).

    The answer is the candidate with the smallest n*k, and among those the
    smallest odd k, that passes ``build_report(...).all_ok``.  That is
    always k = 1:

    - The report depends on (n, k) only through the exponent eta*n*k =
      log2 parity_count(n, k) of zeta = [(1 + ratio)/2]^(eta*n*k).  zeta
      falls as the exponent grows, and the three flags that read zeta
      hold for all smaller zeta once they hold; the mismatch flag reads M
      only.  So every flag is monotone in the exponent.
    - At a fixed total t = n*k the parity set holds at most half of the
      2^t strings, so the exponent is at most t - 1, and k = 1 reaches it:
      parity_count(t, 1) = 2^(t-1).  If any odd k passes at t, so does
      k = 1.

    So the search is over n alone with k = 1, and since the exponent n - 1
    grows with n it is monotone: n doubles from 2 until the report passes,
    then bisects.  n = 1 never passes: its parity set has one element.
    The search stops at n*k = ``MAX_TOTAL``, the largest n*k a report takes.
    """
    eps1, eps2 = require_float("eps1", eps1), require_float("eps2", eps2)
    if not (0.0 < eps1 < 1.0 and 0.0 < eps2 < 1.0):
        raise InvalidParameterError("eps1 and eps2 must lie in (0, 1)")
    n_key = _key_length(n_key)
    ratio = require_float("ratio", ratio)
    if not (0.0 <= ratio < 1.0):
        raise InvalidParameterError(
            f"channel ratio must lie in [0, 1) for a solution to exist, got {ratio}"
        )

    m1 = math.ceil(-math.log2(eps1))
    m2 = math.ceil(math.log2(2.0 / (eps2 * LN2)))
    hash_rounds = max(1, m1, m2)

    def report_at(n: int) -> SecurityReport:
        return build_report(n_key, n, 1, hash_rounds, ratio, eps1, eps2)

    # n = fail is known to fail; double the probe until a report passes.
    fail, probe = 1, min(2, MAX_TOTAL)
    while probe > fail:
        report = report_at(probe)
        if report.all_ok:
            break
        fail, probe = probe, min(2 * probe, MAX_TOTAL)
    else:
        raise InvalidParameterError(
            f"no (n, k) with n*k <= {MAX_TOTAL} satisfies the criterion"
        )
    # Bisect (fail, probe]: the smallest passing n.
    while probe - fail > 1:
        mid = (fail + probe) // 2
        candidate = report_at(mid)
        if candidate.all_ok:
            probe, report = mid, candidate
        else:
            fail = mid
    return SolvedParameters(1, probe, hash_rounds), report
