"""Campaign front end: config loading, sweeps, Monte Carlo, self-checks.

A campaign is described by a flat INI-style text file (section headers,
``key = value`` lines) and runs in one of three modes: ``analyze`` tabulates
the closed-form tradeoff over a (ratio, delay) grid, ``simulate`` adds
seeded Monte Carlo columns with binomial standard errors and z-scores, and
``distill`` runs one key-distillation session and returns the transcript and
security report.  ``cmd_verify``, with no campaign, runs the ``check_*``
self-checks, which the acceptance suite runs too, one criterion each.  The
commands return their results, and ``relqkd.cli`` writes them.  Given the
same campaign file and seed, every output is byte-identical across runs.

``load_campaign`` reads each section through ``_SCHEMA``, refuses any key
that the file's mode does not read (``_READ_BY``), and returns the mode's
spec, ``AnalyzeSpec``, ``SimulateSpec`` or ``DistillSpec``, whose fields are
what the mode reads.  It passes on only the keys the file sets, so every
other value is the default of the dataclass field it fills.  It builds the
envelope once, which the ``SimulateSpec`` or the ``DistillSpec``'s
``ProtocolConfig`` carries; ``cmd_simulate`` and ``run_session`` build none.

Both sweep modes build one row type, ``InterceptResendSummary``, whose
first ten fields are the CSV columns.  ``_closed_forms`` computes the
analytic columns, the only ones ``analyze`` sets, once per grid as float64
arrays, whose elementwise IEEE arithmetic gives each point the bits of a
scalar evaluation; ``simulate`` adds the Monte Carlo columns to each row.

``simulate`` draws each grid point's counts exactly, as four binomials
(see ``_simulate_point``), so a point's cost and memory do not depend on
``trials``, and the envelope computes its closed-form pieces once, not
once per point.  The pass probability, which depends on the delay alone,
is integrated once per delay and the fired fraction once per point.  One
generator, ``default_rng(SeedSequence(seed))``, draws every point's counts
in row order, so a one-point campaign gives the row that
``simulate_intercept_resend`` gives at the same seed.  Its ``zscore``
compares the empirical joint rate against the truncated-resend bound
min(1, (1 + ratio + chi/L)/2) * (1 - chi/L), whatever the envelope and
resend policy; the ``available_fraction`` (f) and ``pass_probability``
columns give the envelope's own per-round rates, whose (1 + f)/2 * p_pass
is what the empirical rate estimates.
"""

from __future__ import annotations

import configparser
import itertools
import math
import os
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import distill, security
from .adversary import (
    _TOL,
    EveStrategy,
    ResendPolicy,
    _fired_fraction,
    _pass_probability,
    bob_pass_bound,
    channel_probabilities,
    eve_success_probability,
    instrument_contraction_check,
    optimal_delay,
)
from .distill import ProtocolConfig, Transcript, majority_decode, run_session
from .errors import InvalidParameterError, require_integers
from .security import SecurityReport, build_report
from .wavepacket import Plateau, make_plateau

MODES = ("analyze", "simulate", "distill")

#: Largest per-point trial count: the binomial draws take a signed 64-bit n.
MAX_TRIALS = 2**63 - 1


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


#: Each campaign-file section's keys and how each value is read; any other
#: section or key is rejected.
_SCHEMA = {
    "campaign": {"mode": str, "seed": int, "trials": int, "out": str},
    "sweep": {"ratios": _floats, "chi_fractions": _floats},
    "geometry": {"state_extent": float, "channel_length": float},
    "state": {"tail_mass": float, "ramp_fraction": float},
    "eve": {"enabled": _boolean, "delay": float, "resend": ResendPolicy},
    "protocol": {"key_length": int, "block_size": int, "blocks_per_parity": int,
                 "hash_rounds": int, "disclose_fraction": float,
                 "flip_probability": float, "loss_probability": float},
    "security": {"eps1": float, "eps2": float},
}

#: The modes that read each section, and the keys that fewer of their
#: section's modes read; a file may set only the keys its mode reads.
_READ_BY = {
    "campaign": MODES, "sweep": ("analyze", "simulate"), "geometry": ("simulate", "distill"),
    "state": ("simulate", "distill"), "eve": ("simulate", "distill"),
    "protocol": ("distill",), "security": ("distill",),
    ("campaign", "trials"): ("simulate",), ("geometry", "channel_length"): ("distill",),
    ("eve", "enabled"): ("distill",), ("eve", "delay"): ("distill",),
}


@dataclass(frozen=True)
class AnalyzeSpec:
    """An ``analyze`` campaign: its seed, sweep axes and output path."""

    mode = "analyze"

    seed: int
    ratios: tuple[float, ...] = ()
    chi_fractions: tuple[float, ...] = ()
    out: str | None = None

    def __post_init__(self):
        require_integers(self, "seed")
        if self.out == "":
            raise InvalidParameterError("out must be a non-empty path or None, got ''")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        self._check_sweep()

    def _check_sweep(self):
        if not self.ratios or not self.chi_fractions:
            raise InvalidParameterError(f"mode {self.mode!r} needs non-empty sweep grids")
        for axis, values, length in (("ratio", self.ratios, "channel length"),
                                     ("chi fraction", self.chi_fractions, "delay")):
            for value in values:
                if not (0.0 <= value <= 1.0):
                    raise InvalidParameterError(
                        f"sweep {axis} {value} is outside [0, 1]: "
                        f"the {length} must lie in [0, L]")


@dataclass(frozen=True)
class SimulateSpec(AnalyzeSpec):
    """A ``simulate`` campaign: an ``analyze`` one, its trials per point, envelope and resend."""

    mode = "simulate"

    trials: int = 1
    envelope: Plateau = Plateau(1.0)
    resend_policy: ResendPolicy = ResendPolicy.TRUNCATED_RENORMALIZED

    def _check_sweep(self):
        if not 1 <= self.trials <= MAX_TRIALS:
            raise InvalidParameterError(
                f"trials must lie in [1, {MAX_TRIALS}], got {self.trials}")
        super()._check_sweep()


@dataclass(frozen=True)
class DistillSpec:
    """A ``distill`` campaign: its protocol (seed, envelope, eavesdropper), epsilons and out."""

    mode = "distill"

    protocol: ProtocolConfig
    eps1: float = 1e-3
    eps2: float = 1e-3
    out: str | None = None

    def __post_init__(self):
        if self.out == "":
            raise InvalidParameterError("out must be a non-empty path or None, got ''")
        for name, value in (("eps1", self.eps1), ("eps2", self.eps2)):
            if not (0.0 < value < 1.0):
                raise InvalidParameterError(f"[security] {name} must lie in (0, 1), got {value}")


Spec = AnalyzeSpec | SimulateSpec | DistillSpec


def load_campaign(path, seed_override: int | None = None) -> Spec:
    """The mode's spec of the campaign file at ``path``, a str, bytes or ``os.PathLike``.

    ``seed_override``, if given, replaces the file's seed.  Values are read
    literally, and a key that the file's mode does not read is refused; see the README.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InvalidParameterError(
            f"the campaign path must be a str, bytes or os.PathLike, got {type(path).__name__}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        if parser.read(path):
            return _from_parser(parser, seed_override)
    except (configparser.Error, ValueError) as exc:
        raise InvalidParameterError(f"bad campaign file {path!r}: {exc}") from exc
    raise InvalidParameterError(f"cannot read campaign file {path!r}")


def _check_schema(parser):
    """Reject any section or key outside ``_SCHEMA``, then any the file's mode does not read."""
    sections = parser.sections()
    if parser.defaults():
        sections.insert(0, parser.default_section)
    for section in sections:
        known = _SCHEMA.get(section)
        if known is None:
            raise InvalidParameterError(
                f"unknown section [{section}]: the file takes "
                + ", ".join(f"[{name}]" for name in _SCHEMA))
        for key in parser[section]:
            if key not in known:
                raise InvalidParameterError(f"unknown [{section}] key {key!r}: "
                                            f"the section takes {', '.join(known)}")
    mode = parser.get("campaign", "mode", fallback=None)  # a missing or unknown one is named later
    for section in sections if mode in MODES else ():
        for key in parser[section]:
            if mode not in _READ_BY.get((section, key), _READ_BY[section]):
                raise InvalidParameterError(f"mode {mode!r} does not read [{section}] {key!r}")


def _given(parser, section: str) -> dict:
    """The keys the file sets in ``section``, each read as ``_SCHEMA`` says."""
    if not parser.has_section(section):
        return {}
    readers = _SCHEMA[section]
    return {key: readers[key](value) for key, value in parser.items(section)}


def _require(cls, section: str, given: dict):
    """Reject a ``section`` that lacks a key ``cls`` has no default for, naming the key."""
    for f in fields(cls):
        if f.default is MISSING and f.name in _SCHEMA[section] and f.name not in given:
            raise InvalidParameterError(f"[{section}] lacks {f.name!r}")


def _from_parser(parser, seed_override) -> Spec:
    """Build the mode's spec from the keys the file sets; the dataclasses default the rest."""
    _check_schema(parser)
    campaign = _given(parser, "campaign")
    if seed_override is not None:
        campaign["seed"] = seed_override
    for key in ("mode", "seed"):
        if key not in campaign:
            raise InvalidParameterError(f"[campaign] lacks {key!r}")
    mode = campaign.pop("mode")
    if mode not in MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if mode == "analyze":
        return AnalyzeSpec(**campaign, **_given(parser, "sweep"))

    geometry = _given(parser, "geometry")
    extent = geometry.get("state_extent", 1.0)
    try:
        envelope = make_plateau(extent, **_given(parser, "state"))
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"no envelope of state_extent {extent}: {exc}") from exc
    eve = _given(parser, "eve")
    policy = {"resend_policy": eve["resend"]} if "resend" in eve else {}
    if mode == "simulate":
        return SimulateSpec(**campaign, **_given(parser, "sweep"), **policy, envelope=envelope)

    if eve and "enabled" not in eve:
        # Without it the other keys would be read and no eavesdropper run.
        raise InvalidParameterError(
            f"[eve] sets {', '.join(map(repr, eve))} but lacks 'enabled': set "
            "enabled = true to run the eavesdropper, or enabled = false to run without one")
    strategy = EveStrategy(eve.get("delay", 0.0), **policy) if eve.get("enabled") else None
    if not parser.has_section("protocol"):
        raise InvalidParameterError("mode 'distill' needs a [protocol] section")
    settings = _given(parser, "protocol")
    _require(ProtocolConfig, "protocol", settings)
    protocol = ProtocolConfig(
        **settings, envelope=envelope, channel_length=geometry.get("channel_length", 0.0),
        seed=campaign.pop("seed"), eve=strategy)
    return DistillSpec(protocol, **campaign, **_given(parser, "security"))


@dataclass(frozen=True)
class InterceptResendSummary:
    """One grid point of the delay tradeoff; its first ten fields are a CSV row.

    ``_closed_forms`` gives the analytic part, which is all that ``analyze``
    writes; ``simulate`` also sets the Monte Carlo fields, which stay None
    in ``analyze`` mode.
    """

    ratio: float
    chi_over_L: float
    pr_e_analytic: float
    pr_b_bound: float
    joint_analytic: float
    joint_empirical: float | None = None
    stderr: float | None = None
    zscore: float | None = None
    available_fraction: float | None = None   # envelope mass in the accessible region
    pass_probability: float | None = None     # envelope pass probability of the resend
    eve_empirical: float | None = None
    bob_empirical: float | None = None


CSV_COLUMNS = tuple(f.name for f in fields(InterceptResendSummary)[:10])


def _closed_forms(ratios, chi_fractions) -> list[tuple[float, ...]]:
    """Each grid point's analytic columns, in row order, from one pass over the grid."""
    ratio, cf = np.array(list(itertools.product(ratios, chi_fractions)), dtype=float).T
    pr_e, pr_b = eve_success_probability(ratio + cf), bob_pass_bound(cf, 1.0)
    return list(zip(*(column.tolist() for column in (ratio, cf, pr_e, pr_b, pr_e * pr_b))))


def _stderr(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def _zscore(empirical: float, analytic: float, trials: int) -> float:
    sigma = _stderr(analytic, trials)
    if sigma == 0.0:
        return 0.0 if empirical == analytic else math.inf
    return (empirical - analytic) / sigma


def simulate_intercept_resend(
    state_extent: float,
    channel_length: float,
    chi: float,
    trials: int,
    seed,
    tail_mass: float = 0.0,
    ramp_fraction: float = 0.0,
    policy: ResendPolicy = ResendPolicy.TRUNCATED_RENORMALIZED,
) -> InterceptResendSummary:
    """Monte Carlo one intercept-resend grid point against the closed forms.

    Callers pass a channel length and a delay in [0, L], L = ``state_extent``,
    as a sweep's ratios and chi fractions lie in [0, 1], an int trial count
    in [1, ``MAX_TRIALS``] and an integer seed >= 0 or a sequence of them,
    which ``numpy.random.SeedSequence`` reads; the point draws from
    ``default_rng(SeedSequence(seed))``, as a campaign's first point does.
    """
    envelope = make_plateau(state_extent, tail_mass, ramp_fraction)
    L = envelope.plateau_length
    forms = _closed_forms((channel_length / L,), (chi / L,))[0]
    eve = EveStrategy(forms[1] * L, policy)
    return _simulate_point(forms, *channel_probabilities(envelope, forms[0] * L, eve),
                           trials, np.random.default_rng(np.random.SeedSequence(seed)))


def _simulate_point(forms, f, p_pass, trials, rng) -> InterceptResendSummary:
    """One grid point's row from its ``_closed_forms`` tuple and ``trials`` rounds from ``rng``.

    Closed forms come once per grid and the envelope's pieces once per
    envelope; the row, with the grid fractions exactly, is built once.

    Draws come from the per-round probabilities ``channel_probabilities``,
    or its two halves, integrate on the envelope, so the comparison checks
    the envelope integrals against the closed forms, not the closed forms
    against themselves.  The four counts are drawn in turn from ``rng``,
    which ``cmd_simulate`` shares among its points in row order.

    Each trial is one round: the eavesdropper's measurement fires with
    probability f, otherwise she guesses a fair coin, and her resend passes
    the receiver's test with probability p_pass, independently of both.
    Only the counts E (she is right), B (it passes) and J (both) are
    reported, so they are drawn directly instead of trial by trial.  F fired
    rounds are Bin(T, f), and each of the T - F silent ones is right with
    probability 1/2, so E = F + Bin(T - F, 1/2) has the law of the count of
    fired-or-coin rounds.  Given E, passing is independent of being right,
    so the passing rounds among the E right ones are J ~ Bin(E, p_pass) and
    among the T - E others Bin(T - E, p_pass), which gives B.  The four
    binomials therefore give (E, B, J) the joint law of the per-trial
    process, and a point costs the same at any ``trials``.

    The z-score compares the joint rate against the truncated-resend
    bound, not against (1 + f)/2 * p_pass, so on a tailed envelope or
    under another resend policy it measures the distance to the bound.
    """
    fired = rng.binomial(trials, f)
    eve_correct = fired + rng.binomial(trials - fired, 0.5)
    joint = rng.binomial(eve_correct, p_pass)
    passed = joint + rng.binomial(trials - eve_correct, p_pass)
    j_emp = joint / trials
    return InterceptResendSummary(*forms, j_emp, _stderr(j_emp, trials),
                                  _zscore(j_emp, forms[4], trials), f, p_pass,
                                  eve_correct / trials, passed / trials)


def _fmt(value) -> str:
    return "" if value is None else format(value, ".10g")


def rows_to_csv(rows) -> str:
    lines = [",".join(_fmt(getattr(row, c)) for c in CSV_COLUMNS) for row in rows]
    return "\n".join([",".join(CSV_COLUMNS), *lines, ""])


def cmd_analyze(spec: AnalyzeSpec) -> list[InterceptResendSummary]:
    """The closed-form tradeoff rows over the (ratio, chi) grid."""
    return [InterceptResendSummary(*forms)
            for forms in _closed_forms(spec.ratios, spec.chi_fractions)]


def cmd_simulate(spec: SimulateSpec) -> list[InterceptResendSummary]:
    """The Monte Carlo rows: empirical joint success next to the closed form."""
    envelope, L = spec.envelope, spec.envelope.plateau_length
    eves = [EveStrategy(cf * L, spec.resend_policy) for cf in spec.chi_fractions]
    delays = [(eve.delay, _pass_probability(envelope, eve)) for eve in eves]
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    return [_simulate_point(forms, _fired_fraction(envelope, forms[0] * L + chi), p_pass,
                            spec.trials, rng)
            for forms, (chi, p_pass) in zip(_closed_forms(spec.ratios, spec.chi_fractions),
                                            itertools.cycle(delays))]


def cmd_distill(spec: DistillSpec) -> tuple[Transcript, SecurityReport]:
    """Run the campaign's session; return its transcript and security report."""
    cfg = spec.protocol
    transcript = run_session(cfg)
    report = build_report(
        n_key=cfg.key_length,
        blocks_per_parity=cfg.blocks_per_parity,
        block_size=cfg.block_size,
        hash_rounds=cfg.hash_rounds,
        ratio=cfg.channel_length / cfg.envelope.plateau_length,
        eps1=spec.eps1, eps2=spec.eps2,
        p_err_estimate=transcript.p_err_estimate,
        aborted=transcript.aborted,
    )
    return transcript, report


# ---------------------------------------------------------------------------
# verify mode: built-in identity and bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_parity_identity() -> CheckResult:
    """Binomial sum, cosine form, and brute-force enumeration agree exactly for n*k <= 20.

    ``histogram[j]`` counts the v < 2**total of popcount j.  Each pass of
    ``total`` adds the popcounts of [2**(total-1), 2**total), one chunk of
    ``distill._chunks`` at a time, and each (n, k) then sums the histogram
    at the multiples of k.
    """
    limit = 20
    histogram = np.zeros(limit + 1, dtype=np.int64)
    histogram[0] = 1
    for total in range(1, limit + 1):
        half = 1 << (total - 1)
        for rows in distill._chunks(half):
            values = np.arange(half + rows.start, half + rows.stop, dtype=np.uint32)
            histogram += np.bincount(np.bitwise_count(values), minlength=limit + 1)
        for k in range(1, total + 1):
            if total % k:
                continue
            n = total // k
            count = security.parity_count(n, k)
            if round(security.parity_cosine(n, k)) != count:
                return CheckResult("parity-identity", False,
                                   f"cosine side mismatch at (n={n}, k={k})")
            if int(histogram[::k].sum()) // 2 != count:
                return CheckResult("parity-identity", False,
                                   f"enumeration mismatch at (n={n}, k={k})")
    return CheckResult("parity-identity", True,
                       f"exact agreement for all n*k <= {limit} (tolerance: exact)")


def check_parity_cosine(totals=(24, 60, 96, 144, 200), ks=(1, 2, 3, 4, 6)) -> CheckResult:
    """Cosine closed form tracks the big-integer side at large n*k, to 1e-6 relative.

    Every (total, k) pair with k dividing the total is checked, and at
    least one must; ``parity_cosine`` refuses a total of 1024 or more.
    """
    tol = 1e-6
    for name, values in (("totals", totals), ("ks", ks)):
        if not all(value >= 1 for value in values):
            raise InvalidParameterError(f"{name} must all be >= 1, got {values}")
    pairs = [(total, k) for total in totals for k in ks if total % k == 0]
    if not pairs:
        raise InvalidParameterError(
            f"no k in ks={ks} divides a total in totals={totals}: nothing to check")
    worst = 0.0
    for total, k in pairs:
        cosine = security.parity_cosine(total // k, k)  # refuses a total past 1023
        count = float(security.parity_count(total // k, k))
        worst = max(worst, abs(cosine - count) / count)
    return CheckResult("parity-cosine", worst < tol,
                       f"worst relative error {worst:.3g} (tolerance {tol:g})")


def check_delay_bound() -> CheckResult:
    """The envelope's pass probability never beats 1 - chi/L; optimum at chi=0.

    A delay scan that contradicts the optimum (1 + ratio)/2 fails the check.
    """
    L = 1.0
    envelope = make_plateau(L)
    for chi in np.linspace(0.0, 0.96, 25):
        p_pass = _pass_probability(envelope, EveStrategy(float(chi)))
        if p_pass > bob_pass_bound(float(chi), L) + _TOL:
            return CheckResult("delay-bound", False,
                               f"pass probability beats the bound at chi={chi}")
    for ratio in (0.0, 0.25, 0.5, 0.9, 0.99):
        try:
            chi_star, pr_max = optimal_delay(ratio * L, L)
        except InvalidParameterError as exc:
            return CheckResult("delay-bound", False, f"at ratio {ratio}: {exc}")
        if abs(pr_max - 0.5 * (1.0 + ratio)) > _TOL:
            return CheckResult("delay-bound", False,
                               f"optimum {pr_max!r} at chi={chi_star} for ratio {ratio}")
    return CheckResult("delay-bound", True,
                       "bound respected on a 25-point delay grid; 1000-point scans peak at "
                       f"chi=0 with value (1+ratio)/2 at 5 ratios (tolerance {_TOL:g})")


def check_intercept_resend() -> CheckResult:
    """Monte Carlo eavesdropper and pass rates match the closed forms at 3 sigma.

    ``cmd_simulate`` runs the README grid at 10^5 trials and seed 2026.  The
    eavesdropper's rate may also sit 1e-12 off, for where it saturates at 1
    and its sigma is 0, and the pass rate 1e-3 off its bound.
    """
    trials = 100_000
    rows = cmd_simulate(SimulateSpec(2026, (0.0, 0.25, 0.5, 0.9), (0.0, 0.1, 0.25, 0.5),
                                     trials=trials))
    for row in rows:
        for rate, empirical, analytic, slack in (
                ("eavesdropper", row.eve_empirical, row.pr_e_analytic, 1e-12),
                ("pass", row.bob_empirical, row.pr_b_bound, 1e-3)):
            if abs(empirical - analytic) > 3.0 * _stderr(analytic, trials) + slack:
                return CheckResult("intercept-resend", False,
                                   f"{rate} rate {empirical:.6g} vs {analytic:.6g} "
                                   f"at ratio {row.ratio}, chi/L {row.chi_over_L}")
    return CheckResult("intercept-resend", True,
                       f"16 grid points x {trials} trials match the closed forms "
                       "(tolerance 3 sigma, +1e-3 on the pass rate)")


def check_instrument_bound(seed: int = 715) -> CheckResult:
    """100 random admissible instruments never lift the available-domain mass.

    ``_draw_admissibility`` draws their admissibility matrices as one stack;
    one normal draw then gives each its state.  Each domain mass must stay
    at most headroom * f, and the identity, the largest admissible matrix,
    must give f.  The negative control, set 0 at headroom 1 with its weights
    scaled by sqrt(1.5), must be refused before its state is read.
    """
    n_sets, f = 100, 0.6
    rng = np.random.default_rng(seed)
    stack, headroom = _draw_admissibility(rng, n_sets)
    real, imag = rng.normal(size=(2, n_sets, stack.shape[-1]))
    states = real + 1j * imag
    lhs = instrument_contraction_check(stack, f, states)
    worst = int(np.argmax(lhs - headroom * f))
    if not lhs[worst] <= headroom[worst] * f + _TOL:
        return CheckResult("instrument-bound", False, f"bound violated: lhs="
                           f"{lhs[worst]:.12g} > {headroom[worst] * f:.12g}")
    attained = instrument_contraction_check(np.eye(stack.shape[-1]), f, states[0])
    if abs(attained - f) > 1e-12:
        return CheckResult("instrument-bound", False, f"the identity gives {attained!r}")
    try:
        instrument_contraction_check(stack[0] * (1.5 / headroom[0]), f, states[0])
    except InvalidParameterError:
        pass
    else:
        return CheckResult("instrument-bound", False, "inadmissible instrument was not rejected")
    return CheckResult("instrument-bound", True,
                       f"{n_sets} admissible sets below headroom * f (tolerance {_TOL:g}); "
                       "the identity attains f (tolerance 1e-12); negative control rejected")


def _draw_admissibility(rng: np.random.Generator, n_sets: int):
    """(n_sets, 8, 8) admissibility matrices sum_k lam_k^2 |in_k><in_k|, and headrooms.

    One normal draw gives every set's 12 unit vectors, the real parts then
    the imaginary parts, one uniform draw on [0.1, 1] the weights, and one
    on [0.3, 1] each set's headroom, to which one ``eigvalsh`` pass scales
    its top eigenvalue.
    """
    real, imag = rng.normal(size=(2, n_sets, 12, 8))
    inputs = real + 1j * imag
    inputs /= np.linalg.norm(inputs, axis=-1, keepdims=True)
    scaled = rng.uniform(0.1, 1.0, size=(n_sets, 12))[..., None] * inputs
    stack = scaled.swapaxes(-1, -2) @ scaled.conj()
    headroom = rng.uniform(0.3, 1.0, size=n_sets)
    return stack * (headroom / np.linalg.eigvalsh(stack)[:, -1])[:, None, None], headroom


def check_hash_calibration(trials: int = 100_000, rounds: int = 5,
                           seed: int = 716) -> CheckResult:
    """A single discrepancy escapes M hash rounds with probability 2^-M.

    Each trial is one uint32 row per string pair, of 16 + M bits, run
    through the session's own hash step; M is at most 16, where at 10^5
    trials 1.5 rows are expected to survive.  A round walks the surviving
    rows in ``distill._chunks`` of 2^13 rows: it draws one subset per row,
    hashes the chunk, and moves the rows that match to the front of ``ia``
    and ``ib``, in order, where the next round reads them.  A bounded draw
    continues one stream across calls, so the chunks draw what one draw
    per round would.  A bounded draw below 2^32 takes the same 32-bit path
    for either dtype, so the values and the stream are those of uint64 rows.
    """
    n_bits = 16 + rounds
    if trials < 1 or not 1 <= rounds <= 16:
        raise InvalidParameterError(
            f"need trials >= 1 and 1 <= rounds <= 16, got trials={trials}, rounds={rounds}")
    rng = np.random.default_rng(seed)
    ia = rng.integers(0, 1 << n_bits, size=trials, dtype=np.uint32)
    ib = np.empty_like(ia)
    for rows in distill._chunks(trials, 8):  # 2^13 rows
        flip = rng.integers(0, n_bits, size=rows.stop - rows.start, dtype=np.uint32)
        np.bitwise_xor(ia[rows], np.left_shift(np.uint32(1), flip, out=flip), out=ib[rows])
    survivors = trials
    for length in range(n_bits, n_bits - rounds, -1):
        kept = 0
        for rows in distill._chunks(survivors, 8):
            subset = rng.integers(1, 1 << length, size=rows.stop - rows.start, dtype=np.uint32)
            pa, pb, next_a, next_b = distill._hash_step(ia[rows], ib[rows], subset)
            match = np.flatnonzero(pa == pb)
            end = kept + match.size
            ia[kept:end], ib[kept:end] = next_a.take(match), next_b.take(match)
            kept = end
        survivors = kept
    expected = 2.0 ** (-rounds)
    sigma = _stderr(expected, trials)
    return CheckResult("hash-calibration", abs(survivors / trials - expected) <= 3.0 * sigma,
                       f"undetected {survivors / trials:.5f} vs 2^-{rounds}="
                       f"{expected:.5f} (tolerance 3 sigma = {3 * sigma:.2g})")


def check_majority_tail(trials: int = 200_000, seed: int = 717) -> CheckResult:
    """Decoded error of 5-round blocks at flip probability 0.05 matches the binomial tail."""
    if trials < 1:
        raise InvalidParameterError(f"need trials >= 1, got {trials}")
    k, p_flip = 5, 0.05
    rng = np.random.default_rng(seed)
    errors = 0
    # Chunks of 2^13 rows draw the same uniforms as one (trials, k) draw
    # would, without holding all of them at once; each reuses two buffers.
    chunks = distill._chunks(trials, 8)
    uniforms = np.empty((chunks[0].stop, k))
    flips = np.empty(uniforms.shape, dtype=bool)
    for rows in chunks:
        size = rows.stop - rows.start
        chunk = np.less(rng.random(out=uniforms[:size]), p_flip, out=flips[:size])
        errors += int(np.count_nonzero(majority_decode(chunk)))
    expected = sum(math.comb(k, j) * p_flip ** j * (1 - p_flip) ** (k - j)
                   for j in range(k // 2 + 1, k + 1))
    sigma = _stderr(expected, trials)
    return CheckResult("majority-tail", abs(errors / trials - expected) <= 3.0 * sigma,
                       f"block error {errors / trials:.3e} vs binomial tail "
                       f"{expected:.3e} (tolerance 3 sigma = {3 * sigma:.2g})")


def check_information() -> CheckResult:
    """Her information about the sent bits in a session is f(chi), within 3 sigma.

    Two eavesdropped sessions (N = 64, k = 3, n = 4, M = 10, disclosure
    0.15, L_ch/L = 0.5, seed 808) run at delays 0 and 0.25.  A firing
    measurement names the bit and a silent one is equally likely for
    either, so for uniform bits I(A;E) is her fired fraction, a binomial
    rate: the plug-in I(A;E) of each round table must lie within 3 sigma
    of the f that ``_fired_fraction``, the f half of
    ``channel_probabilities``, gives at the reach L_ch + chi.
    """
    envelope = make_plateau(1.0)
    ok, parts = True, []
    for delay in (0.0, 0.25):
        eve = EveStrategy(delay)
        f = _fired_fraction(envelope, 0.5 + delay)
        table = run_session(ProtocolConfig(64, 3, 4, 10, 0.15, envelope, 0.5, 808,
                                           eve=eve)).round_table
        info = eve_information(table)
        z = _zscore(info, f, len(table))
        ok = ok and abs(z) <= 3.0
        parts.append(f"{info:.4f} bit over {len(table)} rounds vs f={f:g} at chi={delay:g} "
                     f"(z={z:+.2f})")
    return CheckResult("information", ok, "; ".join(parts) + " (tolerance 3 sigma)")


def eve_information(table: np.ndarray) -> float:
    """Plug-in I(A;E) in bits of a round table's sent bits and her outcome codes."""
    joint = np.bincount(table[:, 0] * 4 + table[:, 2], minlength=8).reshape(2, 4) / len(table)
    outer = joint.sum(axis=1, keepdims=True) * joint.sum(axis=0, keepdims=True)
    seen = joint > 0.0
    return float(np.sum(joint[seen] * np.log2(joint[seen] / outer[seen])))


def check_session() -> CheckResult:
    """The solver's (k, n, M) at N = 64, L_ch/L = 0.5 distil identical keys, no abort."""
    seed = 808
    params, report = security.solve_parameters(1e-3, 1e-3, 64, 0.5)
    transcript = run_session(ProtocolConfig(
        key_length=64, block_size=params.block_size,
        blocks_per_parity=params.blocks_per_parity, hash_rounds=params.hash_rounds,
        disclose_fraction=0.1, envelope=make_plateau(1.0), channel_length=0.5, seed=seed))
    keys_agree = (not transcript.aborted and transcript.key_a.size == 64
                  and np.array_equal(transcript.key_a, transcript.key_b))
    keys = "identical 64-bit keys" if keys_agree else transcript.abort_reason or "differing keys"
    return CheckResult("session", report.all_ok and keys_agree,
                       f"solver's (k={params.block_size}, n={params.blocks_per_parity}, "
                       f"M={params.hash_rounds}) yields {keys} at seed {seed}, and a report that "
                       f"{'meets' if report.all_ok else 'fails'} the criterion (tolerance: exact)")


DEFAULT_CHECKS = (
    check_parity_identity,
    check_parity_cosine,
    check_delay_bound,
    check_instrument_bound,
    check_hash_calibration,
    check_majority_tail,
    check_intercept_resend,
    check_information,
    check_session,
)


@dataclass(frozen=True)
class VerifySummary:
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}" for r in self.results]
        lines.append(f"{sum(r.passed for r in self.results)}/{len(self.results)} checks passed")
        return "\n".join(lines) + "\n"


def cmd_verify() -> VerifySummary:
    """Run ``DEFAULT_CHECKS``, as bound when called, and summarize one line per check."""
    return VerifySummary(tuple(check() for check in DEFAULT_CHECKS))
