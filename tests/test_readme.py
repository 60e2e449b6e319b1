"""README.md's "Library quick start" block runs against the current API, so a
public name removed from the package cannot linger in the docs, and its
`simulate` section names the current trace.csv columns and artifact version."""

import re
from pathlib import Path

from demandinv.modelio import ARTIFACT_VERSION, TRACE_COLUMNS

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_code() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(quick_start_code(), str(README), "exec"), {})
    converged, _, final_error = capsys.readouterr().out.splitlines()[0].split()
    assert converged == "True"
    assert float(final_error) <= 1e-13


def simulate_section() -> str:
    return README.read_text(encoding="utf-8").split("### simulate\n", 1)[1].split("\n## ", 1)[0]


def test_simulate_section_lists_trace_columns():
    listed = re.search(r"`trace\.csv`:.*?columns\s+`([^`]*)`", simulate_section(), re.S).group(1)
    assert tuple(column.strip() for column in listed.split(",")) == TRACE_COLUMNS


def test_simulate_section_names_artifact_version():
    assert f"(artifact version {ARTIFACT_VERSION})" in simulate_section()
