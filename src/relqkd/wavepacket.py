"""One-dimensional photon envelopes: construction, translation, integrals.

The information carrier of one protocol round is a real non-negative
envelope F(x - t) travelling in the +x direction at unit speed.  An
``AmplitudeProfile`` stores F sampled on a uniform grid over its compact
support; between samples the envelope is linear and outside the support it
vanishes.  Every mass and overlap integral is evaluated *exactly* for that
piecewise-linear model (partial cells included), so normalization and
window-mass guarantees hold to float precision instead of degrading with a
grid-dependent quadrature error at support edges.

The canonical carrier is a flat plateau of extent L at height about
1/sqrt(L), terminated by raised-cosine ramps.  The mass left outside the
plateau window (the tail mass) is the fidelity knob of the whole model:
``make_plateau`` places the ramps so that the achieved tail mass comes close
to the requested one whenever the ramp width allows it (see its Notes for
the size of the gap).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError

#: Number of samples across one plateau length; every grid uses it.
DEFAULT_SAMPLES_ACROSS_PLATEAU = 4096

#: A ramp represented by fewer samples than this is considered unresolved.
MIN_SAMPLES_PER_RAMP = 8


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] on the propagation axis."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidParameterError("interval endpoints must be finite")
        if self.hi < self.lo:
            raise InvalidParameterError(
                f"interval endpoints out of order: [{self.lo}, {self.hi}]"
            )

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def shifted(self, delta: float) -> "Interval":
        return Interval(self.lo + delta, self.hi + delta)


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


def _ramp(u: np.ndarray) -> np.ndarray:
    """Raised-cosine rise from 0 at u=0 to 1 at u=1."""
    return np.sin(0.5 * np.pi * np.clip(u, 0.0, 1.0)) ** 2


def _plateau_samples(L: float, w: float, a: float, x: np.ndarray) -> np.ndarray:
    """Unnormalized plateau shape: unit flat top, ramps of width w.

    Each ramp spans [-a, w - a] relative to its window edge, i.e. it
    overhangs the plateau window by ``a`` on the outside.
    """
    f = np.zeros_like(x)
    if w == 0.0:
        f[(x >= 0.0) & (x <= L)] = 1.0
        return f
    b = w - a
    left = x < b
    right = x > L - b
    mid = ~(left | right)
    f[mid] = 1.0
    f[left] = _ramp((x[left] + a) / w)
    f[right] = _ramp((L + a - x[right]) / w)
    return f


def _grid(x_lo: float, x_hi: float, resolution: float) -> np.ndarray:
    n = max(2, int(math.ceil((x_hi - x_lo) * resolution)) + 1)
    return np.linspace(x_lo, x_hi, n)


def _overhang_tail(L: float, w: float, x: np.ndarray):
    """Return ``outside(a)``: the tail mass of the overhang-``a`` plateau.

    The plateau is sampled on the grid ``x``, which spans [-w, L + w] for
    every overhang a in [0, w].  On [w, L - w] the envelope is 1 whatever
    a is; only the two samples that bound that span are kept, and the one
    cell between them carries its constant mass.  Each call resamples the
    ramp cells alone.  The tail is 1 - inside/total, which does not
    depend on scale, so nothing is normalized.
    """
    first_flat = int(np.searchsorted(x, w, side="left"))
    last_flat = int(np.searchsorted(x, L - w, side="right")) - 1
    keep = np.ones(x.size, dtype=bool)
    keep[first_flat + 1:last_flat] = False
    x = x[keep]
    # Left of the centre f is _ramp((x + a) / w), right of it
    # _ramp((L + a - x) / w), both 1 on the flat span; offset + a + signed_x
    # adds in the order _plateau_samples does, so the samples are its own.
    right = x > 0.5 * L
    offset = np.where(right, L, 0.0)
    signed_x = np.where(right, -x, x)
    # Nodes at the window edges 0 and L split the cells that hold them, so
    # the inside mass is a sum of whole cells.  Their values interpolate
    # the grid samples, as in _exact_mass.
    edges = np.searchsorted(x, (0.0, L))
    nodes = np.insert(x, edges, (0.0, L))
    h = np.diff(nodes)
    inside = slice(int(edges[0]), int(edges[1]) + 1)

    def outside(a: float) -> float:
        f = np.interp(nodes, x, _ramp((offset + a + signed_x) / w))
        f0, f1 = f[:-1], f[1:]
        cells = h * (f0 * f0 + f0 * f1 + f1 * f1)
        return 1.0 - cells[inside].sum() / cells.sum()

    return outside


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
) -> AmplitudeProfile:
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
        [0, 1/2); must be positive when ``tail_mass`` is.  A ramp below
        8/4096 of L (``MIN_SAMPLES_PER_RAMP`` samples of the grid) is
        unresolved and rejected.

    Notes
    -----
    The grid is fixed: ``DEFAULT_SAMPLES_ACROSS_PLATEAU`` = 4096 samples
    across L, i.e. 4096 / L samples per unit length.

    The flat-top height equals 1/sqrt(L) only up to a correction of order
    of the tail mass: unit total mass and window mass 1 - tail_mass
    together pin the height to slightly below 1/sqrt(L).  The achieved
    value is exposed as ``flat_value``.

    The overhang is solved on one padded grid over [-w, L + w], w being
    the ramp width, the same for every trial overhang, so the tail varies
    smoothly with the overhang instead of jumping as the support's ends
    cross grid points.  The returned profile is then sampled on
    [-a, L + a] for the solved overhang a, a grid whose points differ
    from the padded one, so its achieved ``tail_mass`` misses the request
    by a small relative amount: -4.3e-8 at (L, tail, ramp) =
    (1, 1e-3, 0.05) and -1.4e-5 at (0.7, 1e-4, 0.01).  Solving on the
    returned grid instead would move the solved overhang, and with it
    every profile and every output built from one.
    """
    L = float(plateau_length)
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
    resolution = DEFAULT_SAMPLES_ACROSS_PLATEAU / L

    w = ramp_fraction * L
    if w > 0.0 and w * resolution < MIN_SAMPLES_PER_RAMP:
        raise InvalidParameterError(
            f"ramp fraction {ramp_fraction} is below "
            f"{MIN_SAMPLES_PER_RAMP}/{DEFAULT_SAMPLES_ACROSS_PLATEAU}: fewer than "
            f"{MIN_SAMPLES_PER_RAMP} grid samples per ramp"
        )

    def build(a: float, x_lo: float, x_hi: float) -> AmplitudeProfile:
        x = _grid(x_lo, x_hi, resolution)
        return AmplitudeProfile(x, _plateau_samples(L, w, a, x), L, 0.0).normalized()

    if w == 0.0:
        return build(0.0, 0.0, L)

    # Solve the ramp overhang so the achieved tail mass hits the request.
    if tail_mass <= 0.0:
        a_star = 0.0
    else:
        outside = _overhang_tail(L, w, _grid(-w, L + w, resolution))
        a_star = w if outside(w) <= tail_mass else _bisect(outside, tail_mass, w)

    return build(a_star, -a_star, L + a_star)


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
