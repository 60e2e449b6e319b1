"""Record one checkout's benchmark summary as a top-level BENCH_<k>.json.

    python3 tools/bench_record.py BENCH_2.json --paper logit_paper
    python3 tools/bench_record.py BENCH_1.json --root ../parent --paper logit_paper

Runs `bench/run.py --seed 1 --seconds 24` of the checkout at --root (default:
this one) on every workload its BENCHMARK.json declares, untraced and then
traced, and gathers from the result files under its bench/out the
environment, the end-to-end and per-layer metrics with their sample counts,
the exact counts and the solve tallies. `worktree_clean` is false when
tracked files differ from `git_commit`, which is then the base of the code
measured. Each --paper spec then runs once
through `demandinv simulate` with two workers, and its wall time is recorded.
Standard library only; a perf change adds the next BENCH_<k>.json with it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SEED = 1
SECONDS = 24
PAPER_WORKERS = 2
# Keys of a result file's environment block that describe the run, not the machine.
RUN_KEYS = ("seed", "workload", "seconds", "trace")


def run_bench(root: Path, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED)]
    cmd += ["--seconds", str(SECONDS), "--trace", str(trace)]
    subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
    path = root / "bench" / "out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def paper_wall_s(root: Path, spec: str) -> float:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), DEMANDINV_WORKERS=str(PAPER_WORKERS))
    with tempfile.TemporaryDirectory() as out_dir:
        cmd = [sys.executable, "-m", "demandinv.cli", "simulate"]
        cmd += ["--spec", str(root / "specs" / f"{spec}.json"), "--out-dir", out_dir]
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        return perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--paper", action="append", default=[], metavar="SPEC")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    contract = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=no"],
        cwd=root, capture_output=True, text=True,
    )
    workloads = {}
    for workload in (w["name"] for w in contract["workloads"]):
        plain, traced = (run_bench(root, workload, trace) for trace in (0, 1))
        env = {k: v for k, v in plain["environment"].items() if k not in RUN_KEYS}
        workloads[workload] = {
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "end_to_end": plain["end_to_end"],
            "per_layer": traced["per_layer"],
            "exact_counts": traced["exact_counts"],
        }
    summary = {
        "command": f"bench/run.py --seed {SEED} --seconds {SECONDS}",
        "environment": dict(env, worktree_clean=None if status.returncode else status.stdout == ""),
        "workloads": workloads,
        "paper_suites": {
            spec: {"wall_s": paper_wall_s(root, spec), "workers": PAPER_WORKERS}
            for spec in args.paper
        },
    }
    args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
