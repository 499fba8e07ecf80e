"""Projective measurements of the receiver and the restricted eavesdropper.

The receiver (B) projects onto the expected envelope translated to the
measurement time and restricted to his domain; outcomes are the two
polarization channels plus an inconclusive remainder.  The eavesdropper (E)
only controls a sub-interval of the line, so her optimal measurement either
fires -- identifying the bit without error thanks to the locally orthogonal
polarizations -- or does not fire at all, in which case she is reduced to
guessing.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import CausalityViolationError, InvalidParameterError, frozen, require_float
from .wavepacket import AmplitudeProfile, Interval, mass_in_interval, overlap

_EDGE_TOL = 1e-9


class BobOutcome(Enum):
    ZERO = "zero"
    ONE = "one"
    INCONCLUSIVE = "inconclusive"


class EveOutcome(Enum):
    FIRED_ZERO = "fired_zero"
    FIRED_ONE = "fired_one"
    NO_FIRE = "no_fire"


_BOB_BIT = {0: BobOutcome.ZERO, 1: BobOutcome.ONE}
_EVE_BIT = {0: EveOutcome.FIRED_ZERO, 1: EveOutcome.FIRED_ONE}


@frozen
class PhotonState:
    """One transmitted carrier.

    ``profile`` holds the envelope in emission coordinates (the envelope as
    it stood at ``emission_time``).  ``delay`` retards the free propagation:
    at time t the envelope occupies the profile support shifted by
    t - emission_time - delay.
    """

    bit: int
    profile: AmplitudeProfile
    emission_time: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise InvalidParameterError(f"bit must be 0 or 1, got {self.bit}")
        for name in ("emission_time", "delay"):
            object.__setattr__(self, name, require_float(name, getattr(self, name)))
        if not math.isfinite(self.emission_time):
            raise InvalidParameterError(f"emission_time must be finite, got {self.emission_time}")
        if not (0.0 <= self.delay < math.inf):
            raise InvalidParameterError(f"delay must be finite and >= 0, got {self.delay}")

    def envelope_shift(self, t: float) -> float:
        return t - self.emission_time - self.delay

    def envelope_at(self, t: float) -> AmplitudeProfile:
        """Envelope positioned where it stands at time ``t``."""
        return self.profile.shifted(self.envelope_shift(t))


def bob_outcome_distribution(
    state: PhotonState,
    t_b: float,
    omega_b: Interval,
    reference: AmplitudeProfile | None = None,
) -> dict[BobOutcome, float]:
    """Outcome distribution of the receiver's identity-resolution test.

    ``reference`` is the honest envelope in emission coordinates; it
    defaults to the state's own profile (appropriate for untampered
    carriers).  The projector is the reference translated to ``t_b``,
    restricted to ``omega_b`` and normalized; the conclusive probability is
    the squared overlap with the received envelope, the wrong-polarization
    probability is exactly zero, and the remainder is inconclusive.
    """
    if reference is None:
        reference = state.profile
    if t_b < state.emission_time:
        raise CausalityViolationError(
            f"measurement at t={t_b} precedes emission at t={state.emission_time}"
        )
    if omega_b.length < reference.plateau_length - _EDGE_TOL:
        raise InvalidParameterError(
            "receiver domain is shorter than the state extent"
        )
    # Even at light speed the undelayed plateau cannot sit inside the
    # receiver domain before its rear edge has reached the domain.
    earliest = state.emission_time + (omega_b.lo - reference.window.lo)
    if t_b < earliest - _EDGE_TOL:
        raise CausalityViolationError(
            f"state cannot be inside the receiver domain before t={earliest}"
        )

    ref_now = reference.shifted(t_b - state.emission_time)
    projector = ref_now.restrict(omega_b).normalized()
    amp = overlap(projector, state.envelope_at(t_b), omega_b)
    p_conclusive = min(max(amp * amp, 0.0), 1.0)

    dist = {
        BobOutcome.ZERO: 0.0,
        BobOutcome.ONE: 0.0,
        BobOutcome.INCONCLUSIVE: 1.0 - p_conclusive,
    }
    dist[_BOB_BIT[state.bit]] = p_conclusive
    return dist


def eve_outcome_distribution(
    state: PhotonState, omega_e: Interval, t_e: float
) -> dict[EveOutcome, float]:
    """Outcome distribution of the restricted-domain measurement.

    The firing probability is the envelope mass inside ``omega_e`` at the
    measurement time; a firing identifies the bit without error (local
    orthogonality), and causality is enforced by the geometry itself -- an
    envelope that has not reached the domain carries no mass there.
    """
    f = mass_in_interval(state.profile, omega_e, state.envelope_shift(t_e))
    f = min(max(f, 0.0), 1.0)
    dist = {
        EveOutcome.FIRED_ZERO: 0.0,
        EveOutcome.FIRED_ONE: 0.0,
        EveOutcome.NO_FIRE: 1.0 - f,
    }
    dist[_EVE_BIT[state.bit]] = f
    return dist

