"""The benchmark script still runs against the package.

Each case runs ``perfbench/run.py`` once at the shortest length (one cycle)
in a subprocess, so a renamed function, traced name or transcript field
that the benchmark uses fails here instead of in a benchmark run.  The
traced ``distill-small`` run covers the distill and audit ops and every
traced name; ``sweep-tailed`` covers ``relqkd simulate``; ``verify-solve``
covers ``relqkd verify`` and every solve, the r = 0.99 one included.  A
plain run reports the end-to-end metrics of ``BENCHMARK.json`` and a
traced run its per-layer metrics; the traced ``distill-large`` run makes
one N = 1024 distill and audit of each of its two campaigns.  The runs
write their JSON records to ``perfbench/out/``, as any benchmark run does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload, trace", [
    ("distill-small", 1), ("distill-large", 1), ("sweep-tailed", 0), ("verify-solve", 1)])
def test_benchmark_runs(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", "0.01", "--seed", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] > 0
    # An op that raises (a missing function, say) counts as failed, not as
    # wrong output; at seed 1 no session of these runs fails on its own.
    assert result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    assert not missing
