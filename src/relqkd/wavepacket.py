"""One-dimensional photon envelopes: the closed-form plateau.

The information carrier of one protocol round is a real non-negative
envelope F(x - t) travelling in the +x direction at unit speed.  The
canonical carrier is a flat plateau of extent L at height about
1/sqrt(L), terminated by raised-cosine ramps.  ``make_plateau`` returns it
as a ``Plateau``: three numbers (the plateau length L, the ramp width w
and the ramp overhang a) from which every integral the runtime needs is
a closed form.  Each non-zero piece of the carrier is A + B cos(k y + phi),
so the mass of F^2 and the overlap of F with a translated copy over any
interval are sums of cosine antiderivatives; no grid is built.
``Plateau`` refuses every shape for which those sums would overflow.

The mass left outside the plateau window (the tail mass) is the fidelity
knob of the whole model: ``make_plateau`` slides the ramps across the
window edges until the closed-form tail equals the requested one.

``AmplitudeProfile`` is a sampled envelope: F on a grid, linear between
samples and zero outside the support, with exact piecewise-linear mass
and overlap integrals; the tests compose it state by state through
``relqkd.measurement`` and hold the closed forms against it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError, require_float, require_floats

#: Longest plateau with edge ramps.  The ramps' closed-form integrals add
#: coordinates that reach five plateau lengths (a delayed copy's cosine
#: phase sums two of them), so past this the sums could overflow.
MAX_RAMPED_LENGTH = sys.float_info.max / 8


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the propagation axis."""

    lo: float
    hi: float

    def __post_init__(self):
        require_floats(self, "lo", "hi")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParameterError("interval endpoints must be finite")
        if self.hi < self.lo:
            raise InvalidParameterError(
                f"interval endpoints out of order: [{self.lo}, {self.hi}]"
            )

    @property
    def length(self) -> float:
        return self.hi - self.lo


def _exact_mass(x: np.ndarray, f: np.ndarray, a: float, b: float) -> float:
    """Integral of the squared piecewise-linear envelope over [a, b]."""
    a = max(a, float(x[0]))
    b = min(b, float(x[-1]))
    if b <= a:
        return 0.0
    i0 = int(np.searchsorted(x, a, side="right"))
    i1 = int(np.searchsorted(x, b, side="left"))
    pts = np.concatenate(([a], x[i0:i1], [b]))
    vals = np.interp(pts, x, f)
    h = np.diff(pts)
    f0, f1 = vals[:-1], vals[1:]
    # On each cell f is linear, so f^2 integrates to h*(f0^2+f0*f1+f1^2)/3.
    return float(np.sum(h * (f0 * f0 + f0 * f1 + f1 * f1)) / 3.0)


def _exact_product(
    xa: np.ndarray, fa: np.ndarray, xb: np.ndarray, fb: np.ndarray,
    a: float, b: float,
) -> float:
    """Integral of the product of two piecewise-linear envelopes over [a, b]."""
    a = max(a, float(xa[0]), float(xb[0]))
    b = min(b, float(xa[-1]), float(xb[-1]))
    if b <= a:
        return 0.0
    inner_a = xa[(xa > a) & (xa < b)]
    inner_b = xb[(xb > a) & (xb < b)]
    pts = np.unique(np.concatenate(([a], inner_a, inner_b, [b])))
    va = np.interp(pts, xa, fa)
    vb = np.interp(pts, xb, fb)
    h = np.diff(pts)
    a0, a1 = va[:-1], va[1:]
    b0, b1 = vb[:-1], vb[1:]
    # Product of two linear pieces is quadratic; this closed form is exact.
    return float(np.sum(h * (2 * a0 * b0 + a0 * b1 + a1 * b0 + 2 * a1 * b1)) / 6.0)


@dataclass(frozen=True)
class AmplitudeProfile:
    """Sampled envelope F(x) at reference time t = 0.

    Attributes
    ----------
    x : ndarray
        Ascending sample positions spanning the compact support.
    f : ndarray
        Envelope samples; real and non-negative.  The envelope is the
        linear interpolant of these samples and zero outside ``x``.
    plateau_length : float
        Nominal extent L of the plateau window.
    window_lo : float
        Left edge of the plateau window at t = 0.
    """

    x: np.ndarray
    f: np.ndarray
    plateau_length: float
    window_lo: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if x.ndim != 1 or x.shape != f.shape or x.size < 2:
            raise InvalidParameterError("profile needs matching 1-d sample arrays")
        if np.any(np.diff(x) <= 0):
            raise InvalidParameterError("sample grid must be strictly increasing")
        if np.any(f < -1e-12):
            raise InvalidParameterError("envelope must be non-negative")
        x.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)

    @property
    def support(self) -> Interval:
        return Interval(float(self.x[0]), float(self.x[-1]))

    @property
    def window(self) -> Interval:
        return Interval(self.window_lo, self.window_lo + self.plateau_length)

    @property
    def flat_value(self) -> float:
        """Envelope height at the centre of the plateau window."""
        centre = self.window_lo + 0.5 * self.plateau_length
        return float(np.interp(centre, self.x, self.f, left=0.0, right=0.0))

    def value(self, points) -> np.ndarray:
        return np.interp(points, self.x, self.f, left=0.0, right=0.0)

    def total_mass(self) -> float:
        return _exact_mass(self.x, self.f, float(self.x[0]), float(self.x[-1]))

    @property
    def tail_mass(self) -> float:
        """Achieved fraction of the total mass lying outside the plateau window."""
        total = self.total_mass()
        if not total > 0.0:
            return 0.0
        inside = _exact_mass(self.x, self.f, self.window_lo,
                             self.window_lo + self.plateau_length)
        return max(0.0, 1.0 - inside / total)

    def shifted(self, delta: float) -> "AmplitudeProfile":
        """Envelope translated by +delta; the plateau window moves with it."""
        return replace(self, x=self.x + delta, window_lo=self.window_lo + delta)

    def restrict(self, window: Interval) -> "AmplitudeProfile":
        """Envelope clipped to ``window`` (zero outside)."""
        lo = max(window.lo, float(self.x[0]))
        hi = min(window.hi, float(self.x[-1]))
        if hi <= lo:
            raise InvalidParameterError("window does not intersect the support")
        inner = self.x[(self.x > lo) & (self.x < hi)]
        new_x = np.concatenate(([lo], inner, [hi]))
        new_f = np.interp(new_x, self.x, self.f)
        return replace(self, x=new_x, f=new_f)

    def normalized(self) -> "AmplitudeProfile":
        """Same shape rescaled to unit total mass."""
        m = self.total_mass()
        if m <= 0.0:
            raise InvalidParameterError("cannot normalize an identically zero profile")
        return replace(self, f=self.f / math.sqrt(m))


def _ramp_tail(t: float) -> float:
    """G(t) = int_0^t sin^4(pi s/2) ds, the mass of a unit ramp's first t.

    In closed form G(t) = 3t/8 - sin(pi t)/(2 pi) + sin(2 pi t)/(16 pi).
    Below t = 1/4 those three terms cancel down to O(t^5), so G is summed
    there from the power series of sin^4 = (3 - 4 cos(pi s) + cos(2 pi s))/8
    instead, which keeps every digit of a tiny tail.
    """
    if t >= 0.25:
        return (3.0 * t / 8.0 - math.sin(math.pi * t) / (2.0 * math.pi)
                + math.sin(2.0 * math.pi * t) / (16.0 * math.pi))
    # The n-th terms of the cosine series of 2v and v, v = pi t.
    v2 = (math.pi * t) ** 2
    wide = narrow = 1.0
    total = 0.0
    n = 1
    while True:
        step = (2 * n - 1) * (2 * n)
        wide *= -4.0 * v2 / step
        narrow *= -v2 / step
        if n >= 2:
            term = (wide - 4.0 * narrow) / (2 * n + 1)
            total += term
            if abs(term) <= 1e-17 * abs(total):
                return t * total / 8.0
        n += 1


def _outside(L: float, w: float, a: float) -> float:
    """Tail mass 2w G(a/w) / (L + 2a - 5w/4) of the overhang-a plateau."""
    if w == 0.0:
        return 0.0
    return 2.0 * w * _ramp_tail(a / w) / (L + 2.0 * a - 1.25 * w)


def _cos_integral(k: float, y0: float, lo: float, hi: float) -> float:
    """int_lo^hi cos(k (y - y0)) dy, written so a short interval keeps its digits."""
    if k == 0.0:
        return hi - lo
    return 2.0 * math.cos(k * (0.5 * (lo + hi) - y0)) * math.sin(0.5 * k * (hi - lo)) / k


def _product_integral(terms_a, terms_b, lo: float, hi: float) -> float:
    """int_lo^hi of (sum of terms_a)(sum of terms_b).

    A term (c, k, y0) stands for c cos(k (y - y0)); k is 0 (a constant) or
    the one ramp frequency pi/w, so a product of two cosines is a constant
    difference term plus a cosine at 2k.
    """
    total = 0.0
    for c1, k1, y1 in terms_a:
        for c2, k2, y2 in terms_b:
            if k1 == 0.0 or k2 == 0.0:
                total += c1 * c2 * _cos_integral(k1 + k2, y1 if k1 else y2, lo, hi)
            else:
                total += 0.5 * c1 * c2 * (math.cos(k1 * (y1 - y2)) * (hi - lo)
                                          + _cos_integral(2.0 * k1, 0.5 * (y1 + y2), lo, hi))
    return total


_FLAT = ((1.0, 0.0, 0.0),)


@dataclass(frozen=True)
class Plateau:
    """Unit-mass plateau envelope in closed form, window [0, L] at t = 0.

    The carrier C is 1 on the flat top [b, L - b], b = w - a, and rises
    over [-a, b] as the raised cosine (1 - cos(pi (x + a)/w))/2, falling as
    its mirror image over [L - b, L + a]: each ramp of width w overhangs the
    window by a.  With w = 0 it is the indicator of [0, L].  The envelope
    is C / sqrt(norm), norm = int C^2 = L + 2a - 5w/4.

    ``carrier_mass`` and ``carrier_overlap`` integrate C placed with its
    window at [-L, 0], the frame of ``relqkd.adversary.channel_probabilities``;
    there the ideal plateau's integrals are exact interval lengths.  Each
    envelope computes C's pieces once, on first use, outside its fields.

    Attributes
    ----------
    plateau_length : float
        Extent L of the plateau window, > 0.
    ramp_width : float
        Width w of each edge ramp, in [0, L/2]; a positive w must keep the
        ramps' highest cosine frequency 2 pi/w finite (w >= about 3.5e-308).
    overhang : float
        Part a of each ramp outside the window, in [0, w].
    """

    plateau_length: float
    ramp_width: float = 0.0
    overhang: float = 0.0

    def __post_init__(self):
        require_floats(self, "plateau_length", "ramp_width", "overhang")
        L, w, a = self.plateau_length, self.ramp_width, self.overhang
        if not (0.0 < L < math.inf):
            raise InvalidParameterError(f"plateau length must be positive, got {L}")
        if not (0.0 <= w <= 0.5 * L):
            raise InvalidParameterError(f"ramp width must lie in [0, L/2], got {w}")
        if not (0.0 <= a <= w):
            raise InvalidParameterError(f"overhang must lie in [0, w], got {a}")
        if w > 0.0 and L > MAX_RAMPED_LENGTH:
            raise InvalidParameterError(
                f"plateau length {L} is too long for edge ramps: their closed-form "
                f"integrals overflow past {MAX_RAMPED_LENGTH:.4g}")
        if w > 0.0 and 2.0 * (math.pi / w) == math.inf:
            raise InvalidParameterError(
                f"ramp width {w} is too narrow: its cosine frequency 2 pi/w overflows")

    @property
    def support(self) -> Interval:
        return Interval(-self.overhang, self.plateau_length + self.overhang)

    @property
    def norm(self) -> float:
        """Mass L + 2a - 5w/4 of the unit-height carrier C."""
        return self.plateau_length + 2.0 * self.overhang - 1.25 * self.ramp_width

    @property
    def tail_mass(self) -> float:
        """Fraction 2w G(a/w) / norm of the mass outside the plateau window."""
        return _outside(self.plateau_length, self.ramp_width, self.overhang)

    @property
    def flat_value(self) -> float:
        """Height 1/sqrt(norm) of the normalized envelope's flat top."""
        return 1.0 / math.sqrt(self.norm)

    @cached_property
    def _pieces(self):
        """(lo, hi, terms) of C with its window at [-L, 0]; zero elsewhere."""
        L, w, a = self.plateau_length, self.ramp_width, self.overhang
        if w == 0.0:
            return ((-L, 0.0, _FLAT),)
        b = w - a
        k = math.pi / w
        return ((-L - a, b - L, ((0.5, 0.0, 0.0), (-0.5, k, -L - a))),
                (b - L, -b, _FLAT),
                (-b, a, ((0.5, 0.0, 0.0), (-0.5, k, a))))

    def carrier_mass(self, lo: float, hi: float) -> float:
        """int C(y)^2 dy over [lo, hi], window at [-L, 0]."""
        total = 0.0
        for p_lo, p_hi, terms in self._pieces:
            a, b = max(lo, p_lo), min(hi, p_hi)
            if a < b:
                total += _product_integral(terms, terms, a, b)
        return total

    def carrier_overlap(self, chi: float, lo: float, hi: float) -> float:
        """int C(y) C(y + chi) dy over [lo, hi], window at [-L, 0]."""
        shifted = [(q_lo - chi, q_hi - chi, tuple((c, k, y0 - chi) for c, k, y0 in q_terms))
                   for q_lo, q_hi, q_terms in self._pieces]
        total = 0.0
        for p_lo, p_hi, p_terms in self._pieces:
            for q_lo, q_hi, q_terms in shifted:
                a, b = max(lo, p_lo, q_lo), min(hi, p_hi, q_hi)
                if a < b:
                    total += _product_integral(p_terms, q_terms, a, b)
        return total


def _bisect(outside, target: float, w: float) -> float:
    """Overhang in [0, w] at which the increasing ``outside`` crosses ``target``."""
    lo, hi = 0.0, w
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            # The bracket has collapsed; later steps would keep the result at mid.
            break
        if outside(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def make_plateau(
    plateau_length: float,
    tail_mass: float = 0.0,
    ramp_fraction: float = 0.0,
) -> Plateau:
    """Build a unit-mass plateau envelope with window [0, L].

    Parameters
    ----------
    plateau_length : float
        Extent L of the plateau window, > 0.
    tail_mass : float
        Requested mass outside the plateau window, in [0, 1).  The ramps
        are slid across the window edges until the tail mass matches the
        request (see Notes); if the ramp width cannot carry that much
        mass outside, the ramps sit fully outside and the (smaller)
        achieved value is reported by ``tail_mass``.
    ramp_fraction : float
        Width of each raised-cosine edge ramp as a fraction of L, in
        [0, 1/2); must be positive when ``tail_mass`` is.  A positive
        fraction whose width ramp_fraction * L rounds to 0 is refused, and
        ``Plateau`` refuses a ramp too narrow for its closed forms.

    Notes
    -----
    The tail mass of overhang a is the closed form 2w G(a/w) / (L + 2a -
    5w/4), w being the ramp width and G(t) = 3t/8 - sin(pi t)/(2 pi) +
    sin(2 pi t)/(16 pi) the mass of a unit ramp's first t.  It increases
    with a, and bisection on [0, w] solves it for the request to the last
    bit of a, so the achieved ``tail_mass`` equals the request to about
    1e-15 relative.

    The flat-top height equals 1/sqrt(L) only up to a correction of order
    of the tail mass: unit total mass and window mass 1 - tail_mass
    together pin the height to slightly below 1/sqrt(L).  The achieved
    value is exposed as ``flat_value``.
    """
    L = require_float("plateau length", plateau_length)
    tail_mass = require_float("tail mass", tail_mass)
    ramp_fraction = require_float("ramp fraction", ramp_fraction)
    if not (L > 0.0 and math.isfinite(L)):
        raise InvalidParameterError(f"plateau length must be positive, got {L}")
    if not (0.0 <= tail_mass < 1.0):
        raise InvalidParameterError(f"tail mass must lie in [0, 1), got {tail_mass}")
    if not (0.0 <= ramp_fraction < 0.5):
        raise InvalidParameterError(
            f"ramp fraction must lie in [0, 1/2), got {ramp_fraction}"
        )
    if tail_mass > 0.0 and ramp_fraction == 0.0:
        raise InvalidParameterError(
            f"tail mass {tail_mass} needs edge ramps to carry it; ramp fraction is 0"
        )
    w = ramp_fraction * L
    if ramp_fraction > 0.0 and w == 0.0:
        raise InvalidParameterError(
            f"ramp fraction {ramp_fraction} of L = {L} gives a ramp width that rounds to 0")

    # Solve the ramp overhang so the achieved tail mass hits the request.
    a = 0.0
    if tail_mass > 0.0:
        def outside(overhang: float) -> float:
            return _outside(L, w, overhang)

        a = w if outside(w) <= tail_mass else _bisect(outside, tail_mass, w)
    return Plateau(L, w, a)


def mass_in_interval(profile: AmplitudeProfile, window: Interval, t: float = 0.0) -> float:
    """Mass integral of |F(x - t)|^2 over ``window``.

    The envelope at time t is the reference envelope shifted by +t, so the
    integral equals the reference mass over the window pulled back by -t.
    An empty or disjoint window contributes 0.
    """
    if not math.isfinite(t):
        raise InvalidParameterError("time must be finite")
    m = _exact_mass(profile.x, profile.f, window.lo - t, window.hi - t)
    return min(max(m, 0.0), 1.0 + 1e-12)


def overlap(a: AmplitudeProfile, b: AmplitudeProfile, window: Interval,
            t: float = 0.0) -> float:
    """Overlap integral of F_a(x - t) F_b(x - t) over ``window``.

    For real envelopes the result is real; its square is the probability
    of passing a projection test onto ``a`` when ``b`` is received.
    """
    return _exact_product(a.x, a.f, b.x, b.f, window.lo - t, window.hi - t)
