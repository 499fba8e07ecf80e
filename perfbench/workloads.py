"""The four benchmark workloads: campaign generation, ops and output checks.

Every workload is a closed loop with one client: each op starts when the
previous one has finished.  An op is a timed call into the package's
public API (mostly ``relqkd.cli.main``, in process) followed by an untimed
check of its output.  Inputs come only from the campaign files that
``setup`` writes from the workload seed; the package never sees the seed
itself.  A *cycle* is the smallest repeating group of ops (a distill op
and the audit of its transcript per configuration; one sweep; one verify
and the four solves at r <= 0.95).  A run takes a fixed number of cycles
and then the workload's ``final`` ops once, so the ops a run attempts
depend only on the seed and ``--seconds``, never on the machine's speed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import re
from dataclasses import dataclass, field

# Geometry shared by every distill campaign.
_GEOMETRY = "[geometry]\nstate_extent = 1.0\nchannel_length = 0.5\n"

# README sweep grid, run on the tailed envelope.
SWEEP_RATIOS = (0.0, 0.25, 0.5, 0.9)
SWEEP_CHIS = (0.0, 0.1, 0.25, 0.5)
SWEEP_TRIALS = 100_000
SWEEP_TAIL_MASS = 1e-3
SWEEP_RAMP_FRACTION = 0.05

SOLVE_RATIOS = (0.0, 0.5, 0.9, 0.95, 0.99)


@dataclass
class OpResult:
    kind: str
    start: float                  # perf_counter() when the op began
    seconds: float
    error: str | None = None      # exception type, "exit <rc>" or "check: ..."
    wrong_output: bool = False    # the op returned, but its output failed the check
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class Op:
    kind: str
    timed: object                 # () -> value; the only part that is timed
    check: object                 # value -> stats dict; raises OpFailed/CheckFailed


class OpFailed(Exception):
    """The op ran to completion but reported failure (non-zero exit)."""


class CheckFailed(Exception):
    """The op returned output that is wrong."""


def _cli(pkg, argv):
    """``relqkd <argv>`` in process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = pkg.cli.main(argv)
    return rc, buf.getvalue()


def _require(condition, what):
    if not condition:
        raise CheckFailed(what)


def _exit_ok(rc):
    if rc != 0:
        raise OpFailed(f"exit {rc}")


# ---------------------------------------------------------------------------
# distill-large / distill-small
# ---------------------------------------------------------------------------

def _distill_campaign(seed, key_length, block_size, blocks_per_parity,
                      disclose, flip=0.0, loss=0.0, eve_delay=None):
    text = (f"[campaign]\nmode = distill\nseed = {seed}\n{_GEOMETRY}"
            f"[protocol]\nkey_length = {key_length}\nblock_size = {block_size}\n"
            f"blocks_per_parity = {blocks_per_parity}\nhash_rounds = 10\n"
            f"disclose_fraction = {disclose}\n"
            f"flip_probability = {flip}\nloss_probability = {loss}\n")
    if eve_delay is not None:
        text += f"[eve]\nenabled = true\ndelay = {eve_delay}\nresend = truncated\n"
    return text, key_length


class DistillWorkload:
    """Per campaign, a distill op and then an audit op on its transcript.

    One cycle runs one campaign of each configuration, so every cycle does
    the same mix of work and per-cycle medians do not jump between the
    configurations' different op times.
    """

    headline = "distill"
    cycle_kinds = ("distill", "audit")

    def __init__(self, name, nominal_cycle_s, pool, configs):
        self.name = name
        self.nominal_cycle_s = nominal_cycle_s
        self.pool = pool          # distinct campaigns, more than one run uses
        self._configs = configs   # seed -> (campaign text, key length)

    def setup(self, pkg, workdir, seed):
        self.pkg = pkg
        rng = random.Random(seed)
        self.campaigns = []
        for i in range(self.pool):
            text, key_length = self._configs[i % len(self._configs)](
                rng.randrange(1, 2**31))
            path = os.path.join(workdir, f"{self.name}-{i}.ini")
            with open(path, "w") as fh:
                fh.write(text)
            self.campaigns.append((path, key_length))
        self.workdir = workdir

    def warmup(self):
        return self.cycle(0)[:1]

    def final(self):
        return []

    def cycle(self, i):
        n = len(self._configs)
        return [op for j in range(n)
                for op in self._pair((i * n + j) % self.pool, f"run{i}-{j}")]

    def _pair(self, index, tag):
        path, key_length = self.campaigns[index]
        prefix = os.path.join(self.workdir, tag)
        shared = {}
        pkg = self.pkg

        def distill():
            return _cli(pkg, ["distill", path, "--out", prefix])

        def check_distill(value):
            rc, stdout = value
            _exit_ok(rc)
            report = pkg.security.SecurityReport.from_text(stdout)
            _require(report.n_key == key_length, "report key length")
            with open(prefix + ".report.txt") as fh:
                _require(fh.read() == stdout, "report file differs from stdout")
            shared["aborted"] = report.aborted
            return {}

        def audit():
            with open(prefix + ".transcript.txt") as fh:
                text = fh.read()
            transcript = pkg.distill.Transcript.from_text(text)
            key_a, key_b = pkg.distill.replay_keys(transcript)
            if transcript.aborted:
                replayed = key_a is None and key_b is None
            else:
                replayed = (_equal(key_a, transcript.key_a)
                            and _equal(key_b, transcript.key_b))
            agree = transcript.aborted or _equal(transcript.key_a, transcript.key_b)
            return transcript, replayed, agree, len(text.encode())

        def check_audit(value):
            transcript, replayed, agree, size = value
            for suffix in (".transcript.txt", ".report.txt"):
                os.remove(prefix + suffix)
            _require(replayed, "replayed keys differ from the recorded keys")
            _require(shared.get("aborted", transcript.aborted) == transcript.aborted,
                     "report and transcript disagree on the abort")
            _require(transcript.aborted or len(transcript.key_a) == key_length,
                     "final key length")
            if not agree:
                # A residual mismatch escapes the M hash rounds with
                # probability about 2^-M; the session failed, but the
                # program did what the protocol specifies.
                raise OpFailed("undetected key mismatch")
            rounds = transcript.rounds
            return {"key_bits": 0 if transcript.aborted else key_length,
                    "rounds": len(rounds),
                    "block_rounds": sum(r.block is not None for r in rounds),
                    "transcript_bytes": size}

        return [Op("distill", distill, check_distill), Op("audit", audit, check_audit)]


def _equal(a, b):
    return a is not None and b is not None and len(a) == len(b) and bool((a == b).all())


# ---------------------------------------------------------------------------
# sweep-tailed
# ---------------------------------------------------------------------------

class SweepWorkload:
    """``relqkd simulate`` on the README grid with a tailed envelope."""

    name = "sweep-tailed"
    headline = "simulate"
    cycle_kinds = ("simulate",)
    nominal_cycle_s = 0.9
    pool = 16

    def setup(self, pkg, workdir, seed):
        self.pkg = pkg
        rng = random.Random(seed)
        self.campaigns = []
        for i in range(self.pool):
            path = os.path.join(workdir, f"{self.name}-{i}.ini")
            with open(path, "w") as fh:
                fh.write(
                    f"[campaign]\nmode = simulate\ntrials = {SWEEP_TRIALS}\n"
                    f"seed = {rng.randrange(1, 2**31)}\n[sweep]\n"
                    f"ratios = {', '.join(map(str, SWEEP_RATIOS))}\n"
                    f"chi_fractions = {', '.join(map(str, SWEEP_CHIS))}\n"
                    "[geometry]\nstate_extent = 1.0\n"
                    f"[state]\ntail_mass = {SWEEP_TAIL_MASS}\n"
                    f"ramp_fraction = {SWEEP_RAMP_FRACTION}\n")
            self.campaigns.append(path)
        # Reference joint success per grid point from the quadrature values
        # behind the sweep, (1 + f)/2 * p_pass.  The CSV's own zscore column
        # compares against the ideal-envelope closed forms, which drift from
        # the tailed envelope by 11-13 sigma at this tail mass; that drift is
        # left for item 4 of ROADMAP.md (session statistics and provenance)
        # and is not what this check guards.
        self.references = []
        for ratio in SWEEP_RATIOS:
            for chi in SWEEP_CHIS:
                s = pkg.harness.simulate_intercept_resend(
                    1.0, ratio, chi, trials=1, seed=0,
                    tail_mass=SWEEP_TAIL_MASS, ramp_fraction=SWEEP_RAMP_FRACTION)
                self.references.append(
                    (ratio, chi, 0.5 * (1.0 + s.available_fraction) * s.pass_probability))

    def warmup(self):
        return self.cycle(0)

    def final(self):
        return []

    def cycle(self, i):
        path = self.campaigns[i % self.pool]
        pkg = self.pkg

        def simulate():
            return _cli(pkg, ["simulate", path])

        def check(value):
            rc, stdout = value
            _exit_ok(rc)
            rows = list(csv.DictReader(io.StringIO(stdout)))
            _require(len(rows) == len(self.references), f"{len(rows)} rows")
            for row, (ratio, chi, ref) in zip(rows, self.references):
                _require(math.isclose(float(row["ratio"]), ratio)
                         and math.isclose(float(row["chi_over_L"]), chi), "grid order")
                joint = float(row["joint_empirical"])
                _require(math.isfinite(joint), "non-finite joint_empirical")
                # Binomial standard error at the reference, not the CSV's
                # stderr column, so the tolerance does not trust the output.
                sigma = math.sqrt(ref * (1.0 - ref) / SWEEP_TRIALS)
                _require(abs(joint - ref) <= 5.0 * sigma,
                         f"joint {joint} vs reference {ref:.6f} at ({ratio}, {chi})")
            return {}

        return [Op("simulate", simulate, check)]


# ---------------------------------------------------------------------------
# verify-solve
# ---------------------------------------------------------------------------

_VERIFY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


def solve_kind(ratio):
    return "solve.r" + f"{ratio:g}".replace(".", "_")


class VerifySolveWorkload:
    """``relqkd verify`` then ``solve_parameters`` at five channel ratios.

    A cycle is the verify op and the solves at r <= 0.95.  The r = 0.99
    solve currently raises OverflowError after about 20 s, so it runs once
    per run, after the cycles (``final``): it is attempted and counted as
    a failed op, but kept out of the cycle time.
    """

    name = "verify-solve"
    headline = "verify"
    cycle_kinds = ("verify",) + tuple(solve_kind(r) for r in SOLVE_RATIOS[:-1])
    nominal_cycle_s = 10.0

    def setup(self, pkg, workdir, seed):
        self.pkg = pkg   # deterministic: the seed is not used

    def warmup(self):
        return [self._solve(0.9)]

    def cycle(self, i):
        pkg = self.pkg

        def verify():
            return _cli(pkg, ["verify"])

        def check_verify(value):
            rc, stdout = value
            _exit_ok(rc)
            match = _VERIFY_LINE.match(stdout.rstrip("\n").rsplit("\n", 1)[-1])
            _require(match and match[1] == match[2] and int(match[2]) >= 6,
                     "verify summary is not all-passed")
            return {}

        return [Op("verify", verify, check_verify)] + [
            self._solve(r) for r in SOLVE_RATIOS[:-1]]

    def final(self):
        return [self._solve(SOLVE_RATIOS[-1])]

    def _solve(self, ratio):
        pkg = self.pkg

        def solve():
            return pkg.security.solve_parameters(1e-3, 1e-3, 64, ratio)

        def check(value):
            _params, report = value
            _require(report.all_ok, "solved parameters fail the criterion")
            return {}

        return Op(solve_kind(ratio), solve, check)


def _large_clean(seed):
    return _distill_campaign(seed, 1024, 1, 55, 0.1)


def _large_noisy(seed):
    return _distill_campaign(seed, 1024, 7, 9, 0.1, flip=0.02, loss=0.1)


def _small_clean(seed):
    return _distill_campaign(seed, 64, 3, 4, 0.15)


def _small_noisy(seed):
    return _distill_campaign(seed, 64, 3, 4, 0.15, flip=0.02, loss=0.1)


def _small_eve(seed):
    return _distill_campaign(seed, 64, 3, 4, 0.15, eve_delay=0.25)


# Why each workload exists (also the "why" lines of BENCHMARK.json):
#
# distill-large: per-round Python loops, majority, parity, hash and
#   transcript text dominate (distill about 1 s, audit about 0.8 s; the
#   envelope and probability setup is under 1%).  The workload for the
#   vectorised session engine.
# distill-small: per-session fixed costs dominate: campaign parsing,
#   make_plateau, the outcome distributions and resend setup, two file
#   writes and early hash aborts (distill about 24 ms, audit about 14 ms).
#   A vectorised engine should barely move it; a setup cache should.
# sweep-tailed: sixteen tailed make_plateau bisections (about 55 ms each)
#   dominate and distill is not touched: the target of the tailed-plateau
#   solve and the no-change control for distill work.
# verify-solve: hash_rounds on 100k short strings inside the hash
#   calibration check (most of verify), big-integer parity counting in
#   security, and the solver; at r = 0.99 the solver overflows, so its
#   defect shows as one failed op per run.
WORKLOADS = {
    "distill-large": lambda: DistillWorkload("distill-large", 3.4, 48,
                                             (_large_clean, _large_noisy)),
    "distill-small": lambda: DistillWorkload("distill-small", 0.12, 600,
                                             (_small_clean, _small_noisy, _small_eve)),
    "sweep-tailed": SweepWorkload,
    "verify-solve": VerifySolveWorkload,
}
