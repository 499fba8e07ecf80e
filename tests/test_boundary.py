"""The package exports its boundary, and the README's library example uses only it.

Any bad input to a boundary name raises a typed ``RelqkdError``; interior
functions trust their callers and are imported from their modules.
"""

import re
import types
from pathlib import Path

import relqkd

ROOT = Path(__file__).resolve().parents[1]
BOUNDARY = {
    "load_campaign", "ProtocolConfig", "run_session", "Transcript",
    "SecurityReport", "build_report", "solve_parameters", "make_plateau", "Plateau",
    "EveStrategy", "channel_probabilities", "ResendPolicy",
    "RelqkdError", "InvalidParameterError", "CausalityViolationError", "ResourceExhaustedError",
}


def test_exports_are_the_boundary():
    public = {name for name, value in vars(relqkd).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == BOUNDARY
    assert isinstance(relqkd.__version__, str)


def test_readme_quick_start_runs_on_exported_names():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library quick start"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "relqkd." not in code
    exec(compile(code, "README.md", "exec"), {})
