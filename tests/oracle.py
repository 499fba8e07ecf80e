"""The sampled test oracle for the closed-form plateau.

``sampled(plateau)`` gives the envelope of a ``relqkd.wavepacket.Plateau``
as the package's ``AmplitudeProfile`` on a fixed grid of 4096 samples
across L: F on a uniform grid, linear between samples, with every mass
and overlap integral exact for that piecewise-linear interpolant.  The
tests hold the closed forms against it, directly and through the outcome
distributions of ``relqkd.measurement``; it converges to them as the
square of the grid step, which ``sample(plateau, resolution)`` shows.
"""

import math

import numpy as np

from relqkd.wavepacket import AmplitudeProfile, Plateau

#: Number of samples across one plateau length in ``sampled``.
SAMPLES_ACROSS_PLATEAU = 4096


def _ramp(u: np.ndarray) -> np.ndarray:
    """Raised-cosine rise from 0 at u=0 to 1 at u=1."""
    return np.sin(0.5 * np.pi * np.clip(u, 0.0, 1.0)) ** 2


def plateau_samples(L: float, w: float, a: float, x: np.ndarray) -> np.ndarray:
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


def sample(plateau: Plateau, resolution: float) -> AmplitudeProfile:
    """``plateau`` sampled on [-a, L + a] at ``resolution`` points per unit length."""
    L, w, a = plateau.plateau_length, plateau.ramp_width, plateau.overhang
    x = _grid(-a, L + a, resolution)
    return AmplitudeProfile(x, plateau_samples(L, w, a, x), L, 0.0).normalized()


def sampled(plateau: Plateau) -> AmplitudeProfile:
    """``plateau`` on the fixed grid of 4096 samples across L."""
    return sample(plateau, SAMPLES_ACROSS_PLATEAU / plateau.plateau_length)
