"""The maintenance scripts under tools/ run: each is started with this
interpreter from the repository root, at the smallest size it takes. The two
that import a given tree refuse one whose package comes from elsewhere."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tool(*args, env=None) -> subprocess.CompletedProcess:
    """`python tools/<args>` run to its end, its output captured as text."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120, env=env
    )


def tool_output(*args) -> str:
    """stdout of `python tools/<args>`; fails on a nonzero exit."""
    done = run_tool(*args)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_evaluator_parity_of_one_tree_with_itself():
    lines = tool_output("tools/evaluator_parity.py", "src", "src", "--per-kind", "2").splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "logit",
        "purechar",
        "logit maker",
        "purechar maker",
        "logit non-finite",
        "purechar non-finite",
    ]
    assert all(", 0 differ " in line for line in lines), lines


def test_scaling_prints_one_row_per_family():
    out = tool_output(
        "tools/scaling.py",
        *("--family", "logit", "purechar"),
        *("--J", "2", "--n", "5", "--repeat", "1", "--trials", "2"),
    )
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[:3] for row in rows] == [["logit", "2", "5"], ["purechar", "2", "5"]]


def test_bench_record_help():
    assert "usage: bench_record.py" in tool_output("tools/bench_record.py", "--help")


SCALING_SMALLEST = ("--family", "logit", "--J", "2", "--n", "5", "--repeat", "1", "--trials", "0")


@pytest.mark.parametrize(
    "args",
    [
        ("tools/evaluator_parity.py", "{tree}", "src", "--per-kind", "2"),
        ("tools/scaling.py", "--src", "{tree}", *SCALING_SMALLEST),
    ],
    ids=["evaluator_parity", "scaling"],
)
def test_tree_without_the_package_is_refused(tmp_path, args):
    # with the package on PYTHONPATH, an empty tree would silently run that one
    src = ROOT / "src"
    done = run_tool(
        *(arg.format(tree=tmp_path) for arg in args), env={**os.environ, "PYTHONPATH": str(src)}
    )
    assert done.returncode != 0
    assert done.stdout == ""
    imported = src / "demandinv" / "__init__.py"
    message = f"{tmp_path} holds no demandinv package: imported {imported}"
    assert done.stderr.splitlines() == [message]
