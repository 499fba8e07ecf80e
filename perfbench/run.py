#!/usr/bin/env python3
"""relqkd benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload distill-large --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the workload runs closed loop for a fixed number of
cycles, about ``--seconds`` long on the host the nominal cycle times were
measured on, and the result carries the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` half as many cycles run twice each,
once plain and once with every listed package function wrapped in a span;
the result carries the per-layer metrics, and the spans are written to
``perfbench/out/``.  Either way the workload's final ops (the r = 0.99
solve of verify-solve) run once after the cycles, and a run record
(versions, seed, op counts, failures, sample counts, every metric) is
written to ``perfbench/out/``.

The default workload seed is 1.  A performance claim must also hold on a
seed other than the ones used while the change was written.

The program is imported from ``src/`` of the checkout this script sits
in; nothing is installed.  The workload runs in a child process with
OPENBLAS_NUM_THREADS and OMP_NUM_THREADS set to 1 for that process only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import spans
from calibration import Calibration
from workloads import SOLVE_RATIOS, WORKLOADS, OpFailed, OpResult, solve_kind

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DEFAULT_SEED = 1
SETUP_REPS = 3
CHILD_TIMEOUT_S = 170
P90_MIN_SAMPLES = 100
# Workload-specific end-to-end figures, reported by name in the traced run.
WORKLOAD_FIGURES = ("distill_s.p50", "distill_s.p90", "audit_s.p50", "audit_s.p90",
                 "key_bits_per_s", "sweep_s.p50", "verify_s", "solve_s",
                 "ops_failed_frac")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(run_workload(args)))
        return 0

    if not (SRC / "relqkd" / "__init__.py").is_file():
        print(f"perfbench: no relqkd sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, __file__, "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    # A terminated benchmark must not leave its workload process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(5))
    child = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: workload timed out", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    if child.returncode != 0:
        print(f"perfbench: workload exited with {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 4
    print(stdout.strip().splitlines()[-1])
    return 0


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def import_package():
    """Import relqkd afresh from the checkout's sources."""
    for name in [n for n in sys.modules if n == "relqkd" or n.startswith("relqkd.")]:
        del sys.modules[name]
    pkg = SimpleNamespace(**{name: importlib.import_module(f"relqkd.{name}")
                             for name in ("cli", "distill", "security", "harness")})
    if not Path(pkg.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"relqkd imported from {pkg.cli.__file__}, not {SRC}")
    return pkg


def run_op(clock, op, recorder=None) -> OpResult:
    t0 = clock()
    try:
        value = op.timed() if recorder is None else recorder.run("op." + op.kind, op.timed)
    except (Exception, SystemExit) as exc:  # any failure of the program is an op failure
        return OpResult(op.kind, t0, clock() - t0, error=type(exc).__name__)
    seconds = clock() - t0
    try:
        return OpResult(op.kind, t0, seconds, stats=op.check(value))
    except OpFailed as exc:
        return OpResult(op.kind, t0, seconds, error=str(exc))
    except Exception as exc:  # CheckFailed, or output too broken to parse
        return OpResult(op.kind, t0, seconds, error=f"check: {type(exc).__name__}: {exc}",
                        wrong_output=True)


def run_cycle(clock, workload, i, recorder=None):
    return [run_op(clock, op, recorder) for op in workload.cycle(i)]


def run_workload(args) -> dict:
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload]()
        calibration = Calibration()
        clock = calibration.clock
        setups, warmups = [], []
        calibration.start()
        try:
            for _ in range(SETUP_REPS):
                t0 = clock()
                pkg = import_package()
                workload.setup(pkg, workdir, args.seed)
                warmups += [run_op(clock, op) for op in workload.warmup()]
                setups.append((t0, clock() - t0))
            if args.trace:
                traced = traced_run(clock, workload, args)
            else:
                cycles = timed_run(clock, workload, args.seconds)
        finally:
            calibration.stop()
        setup_s = [seconds for _, seconds in setups]
        setup_ref_s = [calibration.reference_seconds(*s) for s in setups]
        if args.trace:
            cycles, record = traced_metrics(workload, *traced, calibration)
        else:
            metrics, samples = end_to_end(workload, cycles, setup_ref_s, calibration)
            record = {"metrics": metrics, "samples": samples,
                      "workload_figures": workload_figures(workload, cycles),
                      "ops": [[op.kind, op.start, op.seconds, op.ok] for c in cycles for op in c]}
        record["calibration"] = calibration.summary()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for cycle in cycles for op in cycle]
    record.update(describe(args), setup_reps_s=setup_s, setup_reps_ref_s=setup_ref_s,
                  attempted=len(ops), failed=sum(not op.ok for op in ops),
                  failures=[[op.kind, op.error] for op in ops + warmups if not op.ok])
    wanted = bench_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": record["metrics"][name], "unit": unit}
               for name, unit in wanted}
    path = OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return {"correct": not any(op.wrong_output for op in ops + warmups),
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def cycle_count(workload, seconds, runs_per_cycle=1):
    """A fixed number of cycles for ``seconds``, so that which ops a run
    attempts (and which of them fail) depends on the seed, not on speed."""
    return max(1, round(seconds / (runs_per_cycle * workload.nominal_cycle_s)))


def timed_run(clock, workload, seconds):
    """Closed loop over the cycles, then the final ops as one more group."""
    cycles = [run_cycle(clock, workload, i) for i in range(cycle_count(workload, seconds))]
    final = [run_op(clock, op) for op in workload.final()]
    return cycles + [final] if final else cycles


def bench_metrics(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


def describe(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0))}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else None


def _p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= P90_MIN_SAMPLES else None


def _seconds(cycles, kind):
    return [op.seconds for cycle in cycles for op in cycle if op.kind == kind and op.ok]


def _cycle_totals(cycles, kinds, cost):
    """Per cycle whose ``kinds`` ops all succeeded, their summed ``cost(op)``."""
    out = []
    for cycle in cycles:
        counted = [op for op in cycle if op.kind in kinds]
        if counted and all(op.ok for op in counted):
            out.append(sum(cost(op) for op in counted))
    return out


def in_kernels(calibration):
    """Cost of an op in calibration-kernel units ("cal")."""
    return lambda op: op.seconds / calibration.around(op.start, op.start + op.seconds)


def end_to_end(workload, cycles, setup_ref_s, calibration) -> tuple[dict, dict]:
    def seconds(op):
        return op.seconds

    main = (workload.headline,)
    cal = in_kernels(calibration)
    samples = {
        "main_cal.p50": _cycle_totals(cycles, main, cal),
        "cycle_cal.p50": _cycle_totals(cycles, workload.cycle_kinds, cal),
        "main_s.p50": _cycle_totals(cycles, main, seconds),
        "cycle_s.p50": _cycle_totals(cycles, workload.cycle_kinds, seconds),
    }
    if not samples["cycle_s.p50"]:
        raise RuntimeError(f"no cycle of {workload.name} succeeded")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics.update(setup_s=statistics.median(setup_ref_s),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return metrics, {name: len(values) for name, values in samples.items()}


def workload_figures(workload, cycles) -> dict:
    """The workload-specific end-to-end figures, by name, with sample counts.

    Only figures that a workload produces are present; the others are
    reported as 0 in the traced run's per-layer output.
    """
    out, samples = {}, {}

    def put(name, values, stat):
        value = stat(values) if values else None
        if value is not None:
            out[name] = value
            samples[name] = len(values)

    for kind, base in (("distill", "distill_s"), ("audit", "audit_s")):
        put(f"{base}.p50", _seconds(cycles, kind), _median)
        put(f"{base}.p90", _seconds(cycles, kind), _p90)
    audits = [op for cycle in cycles for op in cycle if op.kind == "audit" and op.ok]
    distill_time = sum(_seconds(cycles, "distill"))
    if audits and distill_time:
        out["key_bits_per_s"] = sum(op.stats["key_bits"] for op in audits) / distill_time
        samples["key_bits_per_s"] = len(audits)
    put("sweep_s.p50", _seconds(cycles, "simulate"), _median)
    put("verify_s", _seconds(cycles, "verify"), _median)
    solves = [solve_kind(r) for r in SOLVE_RATIOS[:-1]]   # r = 0.99 is not in a cycle
    put("solve_s", _cycle_totals(cycles, solves, lambda op: op.seconds), _median)
    ops = [op for cycle in cycles for op in cycle]
    out["ops_failed_frac"] = sum(not op.ok for op in ops) / len(ops)
    samples["ops_failed_frac"] = len(ops)
    return {"values": out, "samples": samples}


def traced_run(clock, workload, args):
    """Interleave plain and traced copies of the same cycles, then the final ops traced."""
    recorder = spans.Recorder(clock)
    patches = spans.Patches(recorder)
    plain, traced = [], []

    def traced_ops(run):
        patches.install()
        try:
            return run()
        finally:
            patches.uninstall()

    for i in range(cycle_count(workload, args.seconds, runs_per_cycle=2)):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                traced.append(traced_ops(lambda: run_cycle(clock, workload, i, recorder)))
            else:
                plain.append(run_cycle(clock, workload, i))
    final = traced_ops(lambda: [run_op(clock, op, recorder) for op in workload.final()])
    recorder.save(str(OUT / f"spans-{args.workload}-s{args.seed}.npz"))
    return recorder, plain, traced, final


def traced_metrics(workload, recorder, plain, traced, final, calibration):
    """All cycles of a traced run, and its record with the per-layer metrics."""
    table = span_table(recorder, sum(len(c) for c in traced) + len(final))
    derived = derived_metrics(recorder, table, traced)
    figures = workload_figures(workload, plain + [final])
    cal = in_kernels(calibration)
    plain_cal = statistics.median(sum(map(cal, c)) for c in plain)
    traced_cal = statistics.median(sum(map(cal, c)) for c in traced)
    derived.update({name: figures["values"].get(name, 0) for name in WORKLOAD_FIGURES},
                   trace_overhead_cal=traced_cal - plain_cal,
                   trace_overhead_frac=(traced_cal - plain_cal) / plain_cal)
    metrics = {name: derived[name] if name in derived else per_layer_value(name, table)
               for name, _unit in bench_metrics("per_layer")}
    return plain + traced + [final], {"metrics": metrics, "workload_figures": figures,
                                      "spans": table, "traced_cycles": len(traced)}


def span_table(recorder, n_ops) -> dict:
    """calls, self time per workload op and median span length, by span name."""
    names, _parents, dur, self_s = spans.self_times(recorder)
    table = {}
    for nid, name in enumerate(recorder.names):
        mask = names == nid
        if mask.any():
            table[name] = {"calls": int(mask.sum()),
                           "self_s": float(self_s[mask].sum()) / n_ops,
                           "call_s.p50": float(np.median(dur[mask]))}
    return table


def per_layer_value(metric, table):
    """``<function>.calls|.self_s|.call_s.p50|.call_s`` from the span table; 0 if never called."""
    for suffix, key in ((".calls", "calls"), (".self_s", "self_s"),
                        (".call_s.p50", "call_s.p50"), (".call_s", "call_s.p50")):
        if metric.endswith(suffix):
            row = table.get(metric[: -len(suffix)])
            return row[key] if row else 0
    raise KeyError(f"no rule computes the per-layer metric {metric!r}")


def derived_metrics(recorder, table, traced) -> dict:
    names, parents, dur, _ = spans.self_times(recorder)
    ids = {name: i for i, name in enumerate(recorder.names)}

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def inside(inner, outer):
        """Spans named ``inner`` nested in a span named ``outer``."""
        if inner not in ids or outer not in ids:
            return 0
        enc = spans.enclosing(recorder, parents, names, {outer})
        return int(np.count_nonzero((names == ids[inner]) & (enc >= 0)))

    def ratio(num, den):
        return num / den if den else 0

    out = {
        "profiles_per_plateau": ratio(inside("AmplitudeProfile.normalized", "make_plateau"),
                                      calls("make_plateau")),
        "candidates_per_solve": ratio(inside("build_report", "solve_parameters"),
                                      calls("solve_parameters")),
        "attempts_per_session": ratio(calls("estimate_error"), calls("run_session")),
        "block_use_frac": 0, "rounds_per_key_bit": 0, "transcript_bytes": 0,
    }
    out.update({"solve_parameters.call_s." + solve_kind(r).removeprefix("solve."): 0
                for r in SOLVE_RATIOS[2:]})
    if "solve_parameters" in ids:
        # Every traced call runs inside the root span of the op that made it.
        op_of = spans.enclosing(recorder, parents, names,
                                {n for n in recorder.names if n.startswith("op.")})
        by_op = {}
        for i in np.flatnonzero(names == ids["solve_parameters"]):
            by_op.setdefault(recorder.names[names[op_of[i]]], []).append(dur[i])
        for r in SOLVE_RATIOS[2:]:
            kind = solve_kind(r)
            if "op." + kind in by_op:
                out["solve_parameters.call_s." + kind.removeprefix("solve.")] = float(
                    np.median(by_op["op." + kind]))

    audits = [op.stats for cycle in traced for op in cycle if op.kind == "audit" and op.ok]
    if audits:
        rounds = sum(a["rounds"] for a in audits)
        out["block_use_frac"] = ratio(sum(a["block_rounds"] for a in audits), rounds)
        out["rounds_per_key_bit"] = ratio(rounds, sum(a["key_bits"] for a in audits))
        out["transcript_bytes"] = statistics.mean(a["transcript_bytes"] for a in audits)
    return out


if __name__ == "__main__":
    sys.exit(main())
