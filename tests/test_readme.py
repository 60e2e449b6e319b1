"""README.md's "Library quick start" block runs against the current API, so a
public name removed from the package cannot linger in the docs, its `simulate`
section names the current trace.csv columns and artifact version, and it lists
the model families of `harness.FAMILIES`."""

import re
from pathlib import Path

from demandinv.harness import FAMILIES
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


def test_family_lists_match_families():
    text = README.read_text(encoding="utf-8")
    lists = re.findall(r"in\s+`harness\.FAMILIES`: ((?:`\w+`(?:, |,?\s+or\s+)?)+)", text)
    assert len(lists) == 2  # the model file and the spec file
    for listed in lists:
        assert tuple(re.findall(r"`(\w+)`", listed)) == tuple(FAMILIES)
