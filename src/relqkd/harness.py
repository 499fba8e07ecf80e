"""Campaign front end: config loading, sweeps, Monte Carlo, self-checks.

A campaign is described by a flat INI-style text file (section headers,
``key = value`` lines) and runs in one of four modes: ``analyze`` tabulates
the closed-form tradeoff over a (ratio, delay) grid, ``simulate`` adds
seeded Monte Carlo columns with binomial standard errors and z-scores,
``distill`` runs one full key-distillation session and emits the transcript
and security report, and ``verify`` replays the built-in identity and bound
checks.  Given the same campaign file and seed, every output is
byte-identical across runs.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

import numpy as np

from . import security
from .adversary import (
    EveStrategy,
    ResendPolicy,
    bob_pass_bound,
    channel_probabilities,
    eve_success_probability,
    instrument_contraction_check,
    optimal_delay,
    random_kraus_set,
    scaled_invalid_kraus_set,
)
from .distill import ProtocolConfig, Transcript, hash_rounds, majority_decode, run_session
from .errors import InvalidParameterError, RejectedInstrumentError
from .security import SecurityReport, build_report

CSV_COLUMNS = ("ratio", "chi_over_L", "pr_e_analytic", "pr_b_bound",
               "joint_analytic", "joint_empirical", "stderr", "zscore")

MODES = ("analyze", "simulate", "distill", "verify")

_POLICIES = {p.value: p for p in ResendPolicy}


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign: mode, sweep axes, protocol settings, outputs."""

    mode: str
    seed: int
    trials: int = 1
    ratios: tuple[float, ...] = ()
    chi_fractions: tuple[float, ...] = ()
    state_extent: float = 1.0
    tail_mass: float = 0.0
    ramp_fraction: float = 0.0
    resolution: float | None = None
    resend_policy: ResendPolicy = ResendPolicy.TRUNCATED_RENORMALIZED
    protocol: ProtocolConfig | None = None
    eps1: float = 1e-3
    eps2: float = 1e-3
    out: str | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(f"unknown mode {self.mode!r}")
        if self.trials < 1:
            raise InvalidParameterError(f"trials must be >= 1, got {self.trials}")
        if self.mode in ("analyze", "simulate") and (
            not self.ratios or not self.chi_fractions
        ):
            raise InvalidParameterError(f"mode {self.mode!r} needs non-empty sweep grids")
        if self.mode == "distill" and self.protocol is None:
            raise InvalidParameterError("mode 'distill' needs a [protocol] section")


def load_campaign(path: str, seed_override: int | None = None,
                  out_override: str | None = None) -> CampaignSpec:
    """Parse a campaign file; see the README for the schema."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise InvalidParameterError(f"cannot read campaign file {path!r}")
    try:
        return _from_parser(parser, seed_override, out_override)
    except (configparser.Error, KeyError, ValueError) as exc:
        raise InvalidParameterError(f"bad campaign file {path!r}: {exc}") from exc


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def _from_parser(parser, seed_override, out_override) -> CampaignSpec:
    camp = parser["campaign"]
    mode = camp.get("mode", "").strip()
    if seed_override is None and "seed" not in camp:
        raise InvalidParameterError("campaign must carry an explicit seed")
    seed = seed_override if seed_override is not None else camp.getint("seed")
    trials = camp.getint("trials", fallback=1)
    out = out_override if out_override is not None else camp.get("out", fallback=None)

    geometry = parser["geometry"] if parser.has_section("geometry") else {}
    state_extent = float(geometry.get("state_extent", 1.0))
    channel_length = float(geometry.get("channel_length", 0.0))

    state = parser["state"] if parser.has_section("state") else {}
    tail_mass = float(state.get("tail_mass", 0.0))
    ramp_fraction = float(state.get("ramp_fraction", 0.0))
    resolution = float(state["resolution"]) if "resolution" in state else None

    sweep = parser["sweep"] if parser.has_section("sweep") else {}
    ratios = _floats(sweep.get("ratios", ""))
    chi_fractions = _floats(sweep.get("chi_fractions", ""))

    eve = None
    policy = ResendPolicy.TRUNCATED_RENORMALIZED
    if parser.has_section("eve"):
        sec = parser["eve"]
        policy = _POLICIES.get(sec.get("resend", "truncated"))
        if policy is None:
            raise InvalidParameterError(
                f"unknown resend policy {sec.get('resend')!r}"
            )
        if sec.getboolean("enabled", fallback=False):
            eve = EveStrategy(
                delay=sec.getfloat("delay", fallback=0.0),
                channel_length=channel_length,
                resend_policy=policy,
            )

    protocol = None
    if parser.has_section("protocol"):
        sec = parser["protocol"]
        protocol = ProtocolConfig(
            key_length=sec.getint("key_length"),
            block_size=sec.getint("block_size"),
            blocks_per_parity=sec.getint("blocks_per_parity"),
            hash_rounds=sec.getint("hash_rounds"),
            disclose_fraction=sec.getfloat("disclose_fraction"),
            state_extent=state_extent,
            channel_length=channel_length,
            seed=seed,
            flip_probability=sec.getfloat("flip_probability", fallback=0.0),
            loss_probability=sec.getfloat("loss_probability", fallback=0.0),
            eve=eve,
            tail_mass=tail_mass,
            ramp_fraction=ramp_fraction,
            resolution=resolution,
        )

    eps1, eps2 = 1e-3, 1e-3
    if parser.has_section("security"):
        eps1 = parser["security"].getfloat("eps1", fallback=1e-3)
        eps2 = parser["security"].getfloat("eps2", fallback=1e-3)

    return CampaignSpec(
        mode=mode, seed=seed, trials=trials, ratios=ratios,
        chi_fractions=chi_fractions, state_extent=state_extent,
        tail_mass=tail_mass, ramp_fraction=ramp_fraction,
        resolution=resolution, resend_policy=policy, protocol=protocol,
        eps1=eps1, eps2=eps2, out=out,
    )


@dataclass(frozen=True)
class InterceptResendSummary:
    """One grid point of the delay-tradeoff Monte Carlo."""

    ratio: float
    chi_fraction: float
    available_fraction: float      # quadrature mass in the accessible region
    pass_probability: float        # quadrature pass probability of the resend
    eve_analytic: float
    bob_analytic: float
    joint_analytic: float
    eve_empirical: float
    bob_empirical: float
    joint_empirical: float
    eve_stderr: float
    bob_stderr: float
    joint_stderr: float
    joint_zscore: float


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
    resolution: float | None = None,
    policy: ResendPolicy = ResendPolicy.TRUNCATED_RENORMALIZED,
) -> InterceptResendSummary:
    """Monte Carlo one intercept-resend grid point against the closed forms.

    Draws come from the exact per-round outcome distributions (which are
    themselves quadrature results), so the comparison exercises the whole
    envelope/measurement stack, not just the analytic formulas.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    L = state_extent
    if not (0.0 <= chi <= L):
        raise InvalidParameterError(f"delay must lie in [0, L], got {chi}")
    strategy = EveStrategy(delay=chi, channel_length=channel_length,
                           resend_policy=policy)
    f, p_pass = channel_probabilities(L, channel_length, strategy,
                                      tail_mass, ramp_fraction, resolution)

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fired = rng.random(trials) < f
    coin = rng.random(trials) < 0.5
    eve_correct = np.where(fired, True, coin)
    passed = rng.random(trials) < p_pass
    joint = eve_correct & passed

    ratio = channel_length / L
    chi_fraction = chi / L
    eve_analytic = eve_success_probability(ratio + chi_fraction)
    bob_analytic = bob_pass_bound(chi, L)
    joint_analytic = eve_analytic * bob_analytic

    e_emp = float(np.mean(eve_correct))
    b_emp = float(np.mean(passed))
    j_emp = float(np.mean(joint))
    return InterceptResendSummary(
        ratio=ratio, chi_fraction=chi_fraction, available_fraction=f,
        pass_probability=p_pass,
        eve_analytic=eve_analytic, bob_analytic=bob_analytic,
        joint_analytic=joint_analytic,
        eve_empirical=e_emp, bob_empirical=b_emp, joint_empirical=j_emp,
        eve_stderr=_stderr(e_emp, trials), bob_stderr=_stderr(b_emp, trials),
        joint_stderr=_stderr(j_emp, trials),
        joint_zscore=_zscore(j_emp, joint_analytic, trials),
    )


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row[c]) for c in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def cmd_analyze(spec: CampaignSpec) -> list[dict]:
    """Closed-form tradeoff table over the (ratio, chi) grid."""
    rows = []
    for ratio in spec.ratios:
        for cf in spec.chi_fractions:
            L = spec.state_extent
            pr_e = eve_success_probability(ratio + cf)
            pr_b = bob_pass_bound(cf * L, L)
            rows.append({
                "ratio": ratio, "chi_over_L": cf,
                "pr_e_analytic": pr_e, "pr_b_bound": pr_b,
                "joint_analytic": pr_e * pr_b,
                "joint_empirical": "", "stderr": "", "zscore": "",
            })
    _maybe_write(spec.out, rows_to_csv(rows))
    return rows


def cmd_simulate(spec: CampaignSpec) -> list[dict]:
    """Monte Carlo table: empirical joint success next to the closed form."""
    rows = []
    point = 0
    for ratio in spec.ratios:
        for cf in spec.chi_fractions:
            summary = simulate_intercept_resend(
                spec.state_extent, ratio * spec.state_extent,
                cf * spec.state_extent, spec.trials,
                seed=(spec.seed, point),
                tail_mass=spec.tail_mass, ramp_fraction=spec.ramp_fraction,
                resolution=spec.resolution, policy=spec.resend_policy,
            )
            rows.append({
                "ratio": ratio, "chi_over_L": cf,
                "pr_e_analytic": summary.eve_analytic,
                "pr_b_bound": summary.bob_analytic,
                "joint_analytic": summary.joint_analytic,
                "joint_empirical": summary.joint_empirical,
                "stderr": summary.joint_stderr,
                "zscore": summary.joint_zscore,
            })
            point += 1
    _maybe_write(spec.out, rows_to_csv(rows))
    return rows


def cmd_distill(spec: CampaignSpec) -> tuple[Transcript, SecurityReport]:
    """Run one session; emit transcript and security report files."""
    cfg = spec.protocol
    transcript = run_session(cfg)
    report = build_report(
        n_key=cfg.key_length,
        blocks_per_parity=cfg.blocks_per_parity,
        block_size=cfg.block_size,
        hash_rounds=cfg.hash_rounds,
        ratio=cfg.channel_length / cfg.state_extent,
        eps1=spec.eps1, eps2=spec.eps2,
        p_err_estimate=transcript.p_err_estimate,
        aborted=transcript.aborted,
    )
    if spec.out:
        _write(spec.out + ".transcript.txt", transcript.to_text())
        _write(spec.out + ".report.txt", report.to_text())
    return transcript, report


def _maybe_write(path, text):
    if path:
        _write(path, text)


def _write(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# verify mode: built-in identity and bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_parity_identity(limit: int = 20) -> CheckResult:
    """Binomial sum, cosine form, and brute-force enumeration agree exactly."""
    # weights[v] is the popcount of v for every v < 2**limit.
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(limit):
        weights = np.concatenate((weights, weights + 1))
    for total in range(1, limit + 1):
        for k in range(1, total + 1):
            if total % k:
                continue
            n = total // k
            count = security.parity_count(n, k)
            if round(count.cosine) != count.exact:
                return CheckResult("parity-identity", False,
                                   f"cosine side mismatch at (n={n}, k={k})")
            enumerated = np.count_nonzero(weights[:2 ** total] % k == 0) // 2
            if enumerated != count.exact:
                return CheckResult("parity-identity", False,
                                   f"enumeration mismatch at (n={n}, k={k})")
    return CheckResult("parity-identity", True,
                       f"exact agreement for all n*k <= {limit} (tolerance: exact)")


def check_parity_cosine(limit: int = 200, tol: float = 1e-6) -> CheckResult:
    """Cosine closed form tracks the big-integer side at large n*k."""
    worst = 0.0
    for total in (24, 60, 96, 144, limit):
        for k in (1, 2, 3, 4, 6):
            if total % k:
                continue
            count = security.parity_count(total // k, k)
            rel = abs(count.cosine - float(count.exact)) / float(count.exact)
            worst = max(worst, rel)
    ok = worst < tol
    return CheckResult("parity-cosine", ok,
                       f"worst relative error {worst:.3g} (tolerance {tol:g})")


def check_delay_bound(tol: float = 1e-9) -> CheckResult:
    """Quadrature pass probability never beats 1 - chi/L; optimum at chi=0."""
    L = 1.0
    for chi in np.linspace(0.0, 0.96, 25):
        strategy = EveStrategy(delay=float(chi), channel_length=0.4)
        _, p_pass = channel_probabilities(L, 0.4, strategy)
        if p_pass > bob_pass_bound(float(chi), L) + tol:
            return CheckResult("delay-bound", False,
                               f"pass probability beats the bound at chi={chi}")
    for ratio in (0.0, 0.25, 0.5, 0.9):
        optimal_delay(ratio * L, L, grid_points=1000)
    return CheckResult("delay-bound", True,
                       f"bound respected on a 25-point delay grid (tolerance {tol:g})")


def check_instrument_bound(n_sets: int = 100, seed: int = 715, tol: float = 1e-9) -> CheckResult:
    """Random admissible instruments never lift the available-domain mass."""
    rng = np.random.default_rng(seed)
    for _ in range(n_sets):
        kraus = random_kraus_set(rng, dimension=8)
        holds, lhs = instrument_contraction_check(kraus, f=0.6, rng=rng, tol=tol)
        if not holds:
            return CheckResult("instrument-bound", False,
                               f"bound violated: lhs={lhs:.12g} > 0.6")
    try:
        instrument_contraction_check(scaled_invalid_kraus_set(rng), f=0.6, rng=rng)
    except RejectedInstrumentError:
        pass
    else:
        return CheckResult("instrument-bound", False,
                           "inadmissible instrument was not rejected")
    return CheckResult("instrument-bound", True,
                       f"{n_sets} admissible sets below f (tolerance {tol:g}); "
                       "negative control rejected")


def check_hash_calibration(trials: int = 100_000, rounds: int = 5,
                           seed: int = 716) -> CheckResult:
    """A single discrepancy escapes M hash rounds with probability 2^-M."""
    rng = np.random.default_rng(seed)
    n_bits = 16 + rounds
    undetected = 0
    for _ in range(trials):
        bits_a = rng.integers(0, 2, size=n_bits)
        bits_b = bits_a.copy()
        bits_b[rng.integers(0, n_bits)] ^= 1
        if not hash_rounds(bits_a, bits_b, rounds, rng).aborted:
            undetected += 1
    expected = 2.0 ** (-rounds)
    sigma = _stderr(expected, trials)
    dev = abs(undetected / trials - expected)
    ok = dev <= 3.0 * sigma
    return CheckResult("hash-calibration", ok,
                       f"undetected {undetected / trials:.5f} vs 2^-{rounds}="
                       f"{expected:.5f} (tolerance 3 sigma = {3 * sigma:.2g})")


def check_majority_tail(trials: int = 200_000, k: int = 5, p_flip: float = 0.05,
                        seed: int = 717) -> CheckResult:
    """Decoded block error matches the exact binomial tail."""
    rng = np.random.default_rng(seed)
    flips = rng.random((trials, k)) < p_flip
    errors = np.count_nonzero(majority_decode(flips))
    expected = sum(math.comb(k, j) * p_flip ** j * (1 - p_flip) ** (k - j)
                   for j in range(k // 2 + 1, k + 1))
    sigma = _stderr(expected, trials)
    dev = abs(errors / trials - expected)
    ok = dev <= 3.0 * sigma
    return CheckResult("majority-tail", ok,
                       f"block error {errors / trials:.3e} vs binomial tail "
                       f"{expected:.3e} (tolerance 3 sigma = {3 * sigma:.2g})")


DEFAULT_CHECKS = (
    check_parity_identity,
    check_parity_cosine,
    check_delay_bound,
    check_instrument_bound,
    check_hash_calibration,
    check_majority_tail,
)


@dataclass(frozen=True)
class VerifySummary:
    results: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        lines.append(f"{sum(r.passed for r in self.results)}/{len(self.results)} checks passed")
        return "\n".join(lines) + "\n"


def cmd_verify(checks=None, out: str | None = None) -> VerifySummary:
    """Run the self-check suite and summarize one line per check."""
    if checks is None:
        checks = DEFAULT_CHECKS
    summary = VerifySummary(tuple(check() for check in checks))
    if out:
        _write(out, summary.to_text())
    return summary
