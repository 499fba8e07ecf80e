"""Eavesdropper strategy space: the delay tradeoff and the noise instrument.

Delaying the carrier by chi enlarges the fraction of the state the
eavesdropper can measure, at the price of shrinking the region her resent
substitute can causally occupy by the receiver's measurement time.  The
closed forms below quantify both sides and their product; the Kraus-set
machinery checks numerically that no admissible noise instrument can lift
the mass she finds in her domain above the ideal-channel value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidParameterError, RejectedInstrumentError, require_float
from .measurement import PhotonState
from .wavepacket import AmplitudeProfile, Interval, Plateau

_TOL = 1e-9
DIMENSION = 8             # of the truncation ``draw_kraus_sets`` draws on
N_OPERATORS = 12          # per set ``draw_kraus_sets`` draws
DELAY_GRID_POINTS = 1000  # delays ``optimal_delay`` scans


class ResendPolicy(Enum):
    TRUNCATED_RENORMALIZED = "truncated"
    SHIFTED_COPY = "shifted"
    NO_RESEND = "none"


@dataclass(frozen=True)
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
    """
    p = 0.5 * (1.0 + np.minimum(1.0, f))
    return p if np.ndim(p) else float(p)


def bob_pass_bound(chi, extent: float):
    """Supremum 1 - chi/L of the receiver-test pass probability at delay chi.

    ``chi`` may be an array of delays; a scalar gives a float.
    """
    extent = require_float("state extent", extent)
    if not (0.0 < extent < math.inf):
        raise InvalidParameterError(f"state extent must be finite and positive, got {extent}")
    if not np.all((0.0 <= chi) & (chi <= extent + _TOL)):
        raise InvalidParameterError(f"delay must lie in [0, L], got {chi}")
    p = 1.0 - np.minimum(chi, extent) / extent
    return p if np.ndim(p) else float(p)


def optimal_delay(channel_length: float, extent: float) -> tuple[float, float]:
    """Best delay and its joint-success value, confirmed by a grid scan.

    The joint success, ``eve_success_probability((L_ch + chi)/L)`` times
    ``bob_pass_bound(chi, L)``, is strictly decreasing in the delay, so the optimum
    sits at chi = 0 with value (1 + L_ch/L)/2; the scan over
    ``DELAY_GRID_POINTS`` delays, evaluated as one array, asserts no grid
    value exceeds it.
    """
    channel_length = require_float("channel length", channel_length)
    extent = require_float("state extent", extent)
    if not (0.0 <= channel_length < extent < math.inf):
        raise InvalidParameterError(
            f"need 0 <= L_ch < L < inf, got L_ch={channel_length}, L={extent}"
        )
    pr_max = eve_success_probability(channel_length / extent)
    chis = np.linspace(0.0, extent - channel_length, DELAY_GRID_POINTS)
    values = (eve_success_probability((channel_length + chis) / extent)
              * bob_pass_bound(chis, extent))
    if int(np.argmax(values)) != 0 or values.max() > pr_max + _TOL:
        raise InvalidParameterError(
            "grid scan contradicts the boundary optimum; geometry arguments invalid"
        )
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
    """
    channel_length = require_float("channel length", channel_length)
    if not (0.0 <= channel_length < math.inf):
        raise InvalidParameterError(
            f"channel length must be finite and >= 0, got {channel_length}")
    if eve is None:
        return 0.0, 1.0
    L, a = envelope.plateau_length, envelope.overhang
    s0, s1 = -L - a, a
    m_b = envelope.norm
    chi = eve.delay
    f_eve = _unit(envelope.carrier_mass(-(channel_length + chi), 0.0) / m_b)
    truncated = eve.resend_policy is ResendPolicy.TRUNCATED_RENORMALIZED
    m_r = envelope.carrier_mass(s0 + chi, s1) if truncated and chi > 0.0 else m_b
    # Rounding cancels m_R to 0 or below only within about 1e-5 of chi = S,
    # where p_pass <= carrier_mass(s0, s1 - chi) / m_B (Cauchy-Schwarz) lies
    # below 1e-19.
    if (eve.resend_policy is ResendPolicy.NO_RESEND or (truncated and chi >= s1 - s0)
            or m_r <= 0.0):
        return f_eve, 0.0
    overlap = envelope.carrier_overlap(chi, s0, s1 - chi)
    return f_eve, _unit((overlap / m_b) * (overlap / m_r))


def _unit(p: float) -> float:
    return min(max(p, 0.0), 1.0)


def _check_shapes(weights: np.ndarray, outputs: np.ndarray, inputs: np.ndarray):
    """Reject Kraus-set arrays whose ranks, lengths or dimensions disagree."""
    if weights.ndim < 1 or outputs.ndim != weights.ndim + 1 or inputs.ndim != weights.ndim + 1:
        raise InvalidParameterError("Kraus set arrays have wrong ranks")
    if not (weights.shape == outputs.shape[:-1] == inputs.shape[:-1]):
        raise InvalidParameterError("Kraus set lengths disagree")
    if outputs.shape[-1] != inputs.shape[-1]:
        raise InvalidParameterError("input/output dimensions disagree")


def _admissibility(weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    scaled = weights[..., None] * inputs
    return scaled.conj().swapaxes(-1, -2) @ scaled


@dataclass(frozen=True)
class KrausSet:
    """Rank-one noise instrument on a finite-dimensional truncation.

    Operators S_k = sqrt(lam_k) |out_k><in_k| with unit vectors; the
    instrument acts as T[rho] = sum_k lam_k S_k rho S_k^+.  Admissibility
    (the trace-non-increasing condition) requires
    sum_k lam_k S_k^+ S_k <= identity, which is what makes the domain
    contraction bound a theorem.

    The arrays may carry leading axes: weights of shape (..., K) and
    vectors of shape (..., K, d) hold a stack of sets, and the admissibility
    matrix, ``validate`` and ``domain_mass_after`` act on every set at once.
    """

    weights: np.ndarray         # lam_k >= 0
    outputs: np.ndarray         # rows: unit vectors |out_k>
    inputs: np.ndarray          # rows: unit vectors |in_k>

    def __post_init__(self):
        # Copies, frozen below: the caller's own arrays stay writeable.
        lam = np.array(self.weights, dtype=float)
        outs = np.array(self.outputs, dtype=complex)
        ins = np.array(self.inputs, dtype=complex)
        _check_shapes(lam, outs, ins)
        if np.any(lam < 0.0):
            raise InvalidParameterError("weights must be non-negative")
        for name, rows in (("output", outs), ("input", ins)):
            norms = np.linalg.norm(rows, axis=-1)
            if np.any(np.abs(norms - 1.0) > 1e-9):
                raise InvalidParameterError(f"{name} vectors must be unit norm")
        for name, arr in (("weights", lam), ("outputs", outs), ("inputs", ins)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def admissibility_matrix(self) -> np.ndarray:
        """sum_k lam_k S_k^+ S_k = sum_k lam_k^2 |in_k><in_k|, shape (..., d, d)."""
        return _admissibility(self.weights, self.inputs)

    def validate(self):
        """Raise RejectedInstrumentError unless every set is trace-non-increasing."""
        top = np.linalg.eigvalsh(self.admissibility_matrix())[..., -1]
        if np.any(top > 1.0 + _TOL):
            raise RejectedInstrumentError(
                f"instrument is not trace-non-increasing: top eigenvalue {top.max():.6g}"
            )

    def domain_mass_after(self, psi: np.ndarray) -> float | np.ndarray:
        """Tr{T[|psi><psi|]} restricted to the available-domain truncation.

        ``psi`` has shape (..., d), one state per set; a single set gives a
        float, a stack an array of its leading shape.
        """
        psi = np.asarray(psi, dtype=complex)[..., None]
        amps = (self.inputs.conj() @ psi)[..., 0]
        mass = np.sum(self.weights ** 2 * np.abs(amps) ** 2, axis=-1)
        return float(mass) if mass.ndim == 0 else mass


def draw_kraus_sets(rng: np.random.Generator, n_sets: int, headroom: float | None = None):
    """The draws of ``n_sets`` instruments, stacked along a leading axis.

    One normal draw gives every vector: set by set, the outputs then the
    inputs, each the real parts then the imaginary parts of ``N_OPERATORS``
    complex Gaussian rows of ``DIMENSION``, not yet normalised.  One uniform
    draw on [0.1, 1.0] gives every weight, and a ``headroom`` of None is
    drawn last, uniformly from [0.3, 1.0] for each set.  So a stack costs
    three generator calls whatever its size, two with a given headroom.

    Returns (weights, outputs, inputs, headroom), which
    ``kraus_set_from_draws`` turns into a stack of admissible sets.
    """
    if n_sets < 1:
        raise InvalidParameterError(f"need n_sets >= 1, got {n_sets}")
    vectors = rng.normal(size=(n_sets, 2, 2, N_OPERATORS, DIMENSION))
    outs, ins = (vectors[:, j, 0] + 1j * vectors[:, j, 1] for j in (0, 1))
    lam = rng.uniform(0.1, 1.0, size=(n_sets, N_OPERATORS))
    target = (rng.uniform(0.3, 1.0, size=n_sets) if headroom is None
              else np.full(n_sets, float(headroom)))
    return lam, outs, ins, target


def kraus_set_from_draws(weights, outputs, inputs, headroom) -> KrausSet:
    """Normalise the vectors and scale the weights to the top eigenvalue ``headroom``.

    Every argument may carry the same leading axes (``headroom`` one value
    per set), which builds a stack of sets at once.  The top eigenvalue of
    the unscaled set comes from its normalised inputs and weights, so only
    the scaled set is built.
    """
    target = np.asarray(headroom, dtype=float)
    if not np.all((0.0 < target) & (target <= 1.0)):
        raise InvalidParameterError(f"headroom must lie in (0, 1], got {headroom}")
    lam = np.asarray(weights, dtype=float)
    outs, ins = (np.asarray(v / np.linalg.norm(v, axis=-1, keepdims=True), dtype=complex)
                 for v in (outputs, inputs))
    _check_shapes(lam, outs, ins)
    top = np.linalg.eigvalsh(_admissibility(lam, ins))[..., -1]
    return KrausSet(weights=lam * np.sqrt(target / top)[..., None], outputs=outs, inputs=ins)


def instrument_contraction_check(
    kraus: KrausSet, f: float, psi: np.ndarray,
) -> tuple[bool | np.ndarray, float | np.ndarray]:
    """Verify that noise cannot raise the mass found in the available domain.

    The truncation models the eavesdropper's available region, so ``psi``
    enters rescaled to norm-squared ``f``.  Returns (bound_holds, lhs) where
    lhs is the post-instrument domain mass; an inadmissible set raises
    RejectedInstrumentError before ``psi`` is read.  A stack of sets takes
    one ``psi`` per set, shape (..., d), and gives arrays of its leading shape.
    """
    if not (0.0 <= f <= 1.0):
        raise InvalidParameterError(f"available fraction must lie in [0, 1], got {f}")
    kraus.validate()
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise InvalidParameterError("state vector must be non-zero")
    psi = psi / norm * math.sqrt(f)
    lhs = kraus.domain_mass_after(psi)
    return lhs <= f + _TOL, lhs
