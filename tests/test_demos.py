"""Every narrative script in demos/ runs to completion and prints its pinned text.

A change that moves a demo's stdout must re-pin its digest here, openly.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The leading 16 hex digits of the sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_plateau_envelopes": "70edad0a6f80ba8a",
    "02_delay_tradeoff": "d6a6a2c8ce53d797",
    "03_information_quantities": "7c2f67a843fe063d",
    "04_distillation_session": "b0d290763b1b7d5c",
    "05_security_solver": "98061958a5853d19",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest()[:16] == STDOUT_SHA256[demo.stem]
