"""README.md's "Library quick start" block runs against the current API, so a
public name removed from the package cannot linger in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    converged, _, final_error = capsys.readouterr().out.splitlines()[0].split()
    assert converged == "True"
    assert float(final_error) <= 1e-13
