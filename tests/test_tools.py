"""The maintenance scripts under tools/ run: each is started with this
interpreter from the repository root, at the smallest size it takes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_tool(*args) -> str:
    """stdout of `python tools/<args>`; fails on a nonzero exit."""
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_evaluator_parity_of_one_tree_with_itself():
    lines = run_tool("tools/evaluator_parity.py", "src", "src", "--per-kind", "2").splitlines()
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
    out = run_tool(
        "tools/scaling.py",
        *("--family", "logit", "purechar"),
        *("--J", "2", "--n", "5", "--repeat", "1", "--trials", "2"),
    )
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[:3] for row in rows] == [["logit", "2", "5"], ["purechar", "2", "5"]]


def test_bench_record_help():
    assert "usage: bench_record.py" in run_tool("tools/bench_record.py", "--help")
