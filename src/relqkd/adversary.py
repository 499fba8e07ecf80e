"""Eavesdropper strategy space: the delay tradeoff and the noise instrument.

Delaying the carrier by chi enlarges the fraction of the state the
eavesdropper can measure, at the price of shrinking the region her resent
substitute can causally occupy by the receiver's measurement time.  The
closed forms below quantify both sides and their product.
``instrument_contraction_check`` gives the mass she finds in her domain
after a noise instrument, a Rayleigh quotient of its admissibility matrix,
which no admissible instrument can lift above the ideal-channel value.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, frozen, require_float
from .measurement import PhotonState
from .wavepacket import AmplitudeProfile, Interval, Plateau

_TOL = 1e-9
DELAY_GRID_POINTS = 1000  # delays ``optimal_delay`` scans


class ResendPolicy(Enum):
    TRUNCATED_RENORMALIZED = "truncated"
    SHIFTED_COPY = "shifted"
    NO_RESEND = "none"


@frozen
class EveStrategy:
    """What the eavesdropper chooses: her delay chi and what she forwards.

    The channel length is the protocol's geometry, not her choice; it is
    passed wherever it is needed, as to ``channel_probabilities``.
    """

    delay: float
    resend_policy: ResendPolicy = ResendPolicy.TRUNCATED_RENORMALIZED

    def __post_init__(self):
        object.__setattr__(self, "delay", require_float("delay", self.delay))
        if not (0.0 <= self.delay < math.inf):
            raise InvalidParameterError(
                f"delay must be finite and >= 0, got {self.delay}")
        if not isinstance(self.resend_policy, ResendPolicy):
            raise InvalidParameterError(
                f"resend policy must be a ResendPolicy, got {self.resend_policy!r}")


def eve_success_probability(f):
    """Probability (1 + f)/2 of knowing the bit with available fraction f.

    A firing measurement identifies the bit and a silent one leaves a fair
    coin flip.  The fraction saturates at 1 once the accessible region
    covers the whole state.  ``f`` may be an array; a scalar gives a float.
    Callers pass real fractions f >= 0.
    """
    p = 0.5 * (1.0 + np.minimum(1.0, f))
    return p if np.ndim(p) else float(p)


def bob_pass_bound(chi, extent: float):
    """Supremum 1 - chi/L of the receiver-test pass probability at delay chi.

    ``chi`` may be an array of delays; a scalar gives a float.  Callers
    pass a finite extent L > 0 and real delays in [0, L].
    """
    p = 1.0 - np.minimum(chi, extent) / extent
    return p if np.ndim(p) else float(p)


def optimal_delay(channel_length: float, extent: float) -> tuple[float, float]:
    """Best delay and its joint-success value, confirmed by a grid scan.

    The joint success, ``eve_success_probability((L_ch + chi)/L)`` times
    ``bob_pass_bound(chi, L)``, is strictly decreasing in the delay, so the optimum
    sits at chi = 0 with value (1 + L_ch/L)/2; the scan over
    ``DELAY_GRID_POINTS`` delays, evaluated as one array, asserts no grid
    value exceeds it.  Callers pass floats with 0 <= L_ch < L < inf.
    """
    pr_max = eve_success_probability(channel_length / extent)
    chis = np.linspace(0.0, extent - channel_length, DELAY_GRID_POINTS)
    values = (eve_success_probability((channel_length + chis) / extent)
              * bob_pass_bound(chis, extent))
    if int(np.argmax(values)) != 0 or values.max() > pr_max + _TOL:
        raise InvalidParameterError(
            "grid scan contradicts the boundary optimum; geometry arguments invalid")
    return 0.0, pr_max


def apply_resend(
    strategy: EveStrategy, honest_profile: AmplitudeProfile, bit: int,
    emission_time: float = 0.0,
) -> PhotonState | None:
    """Substitute carrier forwarded after the intercept, or None.

    The truncated policy re-emits the honest envelope clipped to the part
    of its support that a chi-delayed state can still causally occupy, and
    renormalizes; the shifted policy forwards an intact but lagging copy.
    A truncated resend delayed by the whole support has nothing left to
    send, and gives None as ``NO_RESEND`` does.
    """
    chi = strategy.delay
    if strategy.resend_policy is ResendPolicy.NO_RESEND:
        return None
    if strategy.resend_policy is ResendPolicy.SHIFTED_COPY or chi == 0.0:
        return PhotonState(bit=bit, profile=honest_profile,
                           emission_time=emission_time, delay=chi)
    support = honest_profile.support
    if chi >= support.length:
        return None
    reachable = Interval(support.lo + chi, support.hi)
    resent = honest_profile.restrict(reachable).normalized()
    return PhotonState(bit=bit, profile=resent, emission_time=emission_time,
                       delay=chi)


def channel_probabilities(
    envelope: Plateau, channel_length: float,
    eve: EveStrategy | None = None,
) -> tuple[float, float]:
    """Per-round firing and receiver-pass probabilities, (f_eve, p_pass).

    ``envelope`` is a plateau of extent L as ``make_plateau`` builds it;
    the carrier C is its unit-height shape placed with its window at
    [-L, 0], with support [s0, s1] = [-L - a, a] (S = L + 2a), a being the
    ramp overhang.  The receiver's domain starts at the channel end L_ch
    and is S long, and he measures at t_b = L_ch - s0, once the plateau
    can fill it: his projector is C itself, translated there and
    normalized.  Both probabilities are closed-form integrals of C
    (``Plateau.carrier_mass`` and ``Plateau.carrier_overlap``):

    - the honest mass m_B = int C(y)^2 dy over [s0, s1] is the
      normalizer ``envelope.norm`` itself, so without an eavesdropper
      p_pass is exactly 1 and f_eve is 0;
    - f_eve = int C(y)^2 dy over [-(L_ch + chi), 0] / m_B, the mass her
      accessible region [0, L_ch + chi] holds when she measures at
      t = L_ch + chi;
    - for a resend delayed by chi, I = int C(y) C(y + chi) dy over
      [s0, s1 - chi], the part the substitute can still reach, and
      p_pass = I^2 / (m_B m_R); m_R is the mass of C over [s0 + chi, s1]
      for the truncated copy and m_B for the shifted one.  Forwarding
      nothing gives p_pass = 0, and so does a truncated copy at chi >= S,
      which has nothing left to send, or one whose m_R rounds to 0 or less.

    This geometry always meets the causality checks that
    ``bob_outcome_distribution`` enforces, so none is repeated here: with
    L_ch >= 0 and the support covering the window (s0 <= -L), the
    measurement time t_b >= L_ch + L is after the emission at t = 0 and no
    earlier than the plateau's rear edge can reach the domain, and the
    domain is S >= L long.  The tests compose those measurements on the
    envelope sampled on a grid and agree with this to within the grid error.

    This is the boundary: it checks its arguments and composes two halves
    that trust theirs, ``_fired_fraction`` at the reach L_ch + chi and
    ``_pass_probability``, which depends on the delay alone.
    """
    channel_length = require_float("channel length", channel_length)
    if not (0.0 <= channel_length < math.inf):
        raise InvalidParameterError(
            f"channel length must be finite and >= 0, got {channel_length}")
    if not isinstance(envelope, Plateau):
        raise InvalidParameterError(f"envelope must be a Plateau, got {envelope!r:.40}")
    if not isinstance(eve, (EveStrategy, type(None))):
        raise InvalidParameterError(f"eve must be an EveStrategy or None, got {eve!r:.40}")
    if eve is None:
        return 0.0, 1.0
    return (_fired_fraction(envelope, channel_length + eve.delay),
            _pass_probability(envelope, eve))


def _fired_fraction(envelope: Plateau, reach: float) -> float:
    """f_eve: the carrier mass over [-reach, 0] over m_B, at reach L_ch + chi."""
    return _unit(envelope.carrier_mass(-reach, 0.0) / envelope.norm)


def _pass_probability(envelope: Plateau, eve: EveStrategy) -> float:
    """p_pass of ``eve``'s resend on ``envelope``, as ``channel_probabilities`` says."""
    L, a = envelope.plateau_length, envelope.overhang
    s0, s1 = -L - a, a
    m_b = envelope.norm
    chi = eve.delay
    truncated = eve.resend_policy is ResendPolicy.TRUNCATED_RENORMALIZED
    m_r = envelope.carrier_mass(s0 + chi, s1) if truncated and chi > 0.0 else m_b
    # Rounding cancels m_R to 0 or below only within about 1e-5 of chi = S,
    # where p_pass <= carrier_mass(s0, s1 - chi) / m_B (Cauchy-Schwarz) lies
    # below 1e-19.
    if (eve.resend_policy is ResendPolicy.NO_RESEND or (truncated and chi >= s1 - s0)
            or m_r <= 0.0):
        return 0.0
    overlap = envelope.carrier_overlap(chi, s0, s1 - chi)
    return _unit((overlap / m_b) * (overlap / m_r))


def _unit(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def instrument_contraction_check(admissibility: np.ndarray, f: float, psi: np.ndarray):
    """Domain mass psi^H A psi after a noise instrument, with psi rescaled to norm^2 f.

    A rank-one instrument S_k = sqrt(lam_k) |out_k><in_k| has the
    admissibility matrix A = sum_k lam_k S_k^+ S_k = sum_k lam_k^2
    |in_k><in_k|; it is trace-non-increasing exactly when A <= I, and an
    ``admissibility`` that is not is refused with InvalidParameterError
    before ``psi``'s values are read.  The mass is then a Rayleigh quotient
    of A, at most its top eigenvalue times f, so noise cannot lift it above
    f.  A stack of Hermitian matrices, shape (..., d, d), takes one state
    per matrix, shape (..., d), and gives an array of its leading shape.
    Callers pass f in [0, 1], Hermitian matrices and non-zero, finite states
    of those shapes; only the admissibility is checked.
    """
    a, psi = np.asarray(admissibility, dtype=complex), np.asarray(psi, dtype=complex)
    if not np.all(_admissible(a)):
        raise InvalidParameterError("instrument is not trace-non-increasing: A exceeds I")
    norm2 = np.einsum("...i,...i->...", psi.conj(), psi).real
    return np.einsum("...i,...ij,...j->...", psi.conj(), a, psi).real * (f / norm2)


def _admissible(admissibility: np.ndarray) -> np.ndarray:
    """Whether each A of the stack is at most I: its top eigenvalue is at most 1."""
    return np.linalg.eigvalsh(admissibility)[..., -1] <= 1.0 + _TOL
