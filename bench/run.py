"""Seeded benchmark of `demandinv simulate` and `invert`.

    python3 bench/run.py --workload logit_blp --seed 1 --seconds 24 --trace 0

Runs units of one workload (see workloads.py and README.md) for --seconds,
checks every solve, prints every end-to-end metric by name and unit (and,
with --trace 1, the per-layer metrics of a separate traced pass), writes all
of it with an environment block to bench/out/<workload>-seed<n>-trace<t>.json,
and ends with one JSON line {"correct", "attempted", "failed", "metrics"}
holding the metrics BENCHMARK.json declares for that mode.

Everything runs in this one process with BLAS and the harness pinned to one
thread/worker. Set-up time is measured in fresh child processes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Set before numpy is first imported, here and in the set-up probes.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DEMANDINV_WORKERS": "1",
}
SETUP_PROBES = 5
# Units run whatever --seconds says; the exact counts are taken over them.
MIN_UNITS = 3
# A p90 is reported only from at least this many solves of one method.
P90_MIN_SAMPLES = 100
LAYERS = ("cli", "harness", "modelio", "solvers", "logit", "purechar")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Child process: import demandinv and build unit 0's inputs, print seconds."""
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workloads.build_inputs(wl, args.seed, 0, OUT / "setup" / wl.name)
    print(repr(perf_counter() - t0))
    return 0


def measure_setup(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "demandinv_workers": os.environ.get("DEMANDINV_WORKERS"),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit, samples=None, note=None) -> dict:
    out = {"value": value, "unit": unit}
    if samples is not None:
        out["samples"] = samples
    if note is not None:
        out["note"] = note
    return out


def end_to_end(wl, units, setup_times, methods) -> dict:
    plain = [u for u in units if not u.traced]
    solves = [s for u in plain for s in u.solves]
    m = {}
    if setup_times:
        m["setup_s"] = metric(statistics.median(setup_times), "s", len(setup_times))
    m["suite_s"] = metric(statistics.median(u.wall_s for u in plain), "s", len(plain))
    # The same in multiples of the reference workload timed just before each unit.
    m["suite_ref"] = metric(statistics.median(u.wall_s / u.ref_s for u in plain), "ref", len(plain))
    m["reference_ms"] = metric(statistics.median(u.ref_s * 1e3 for u in plain), "ms", len(plain))
    for method in methods:
        ok = [s for s in solves if s.method == method and s.ok]
        if not ok:
            note = "no solve passed the checks"
            if method not in wl.methods:
                note = "method not in workload"
            for name, unit in (
                ("solve_ms_p50", "ms"),
                ("solve_ref_p50", "ref"),
                ("solve_ms_p90", "ms"),
                ("converged_frac", "frac"),
            ):
                m[f"{method}.{name}"] = metric(None, unit, 0, note)
            continue
        ms = [s.seconds * 1e3 for s in ok]
        m[f"{method}.solve_ms_p50"] = metric(statistics.median(ms), "ms", len(ms))
        rel = [s.seconds / u.ref_s for u in plain for s in u.solves if s.method == method and s.ok]
        m[f"{method}.solve_ref_p50"] = metric(statistics.median(rel), "ref", len(rel))
        if len(ms) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1]
            m[f"{method}.solve_ms_p90"] = metric(p90, "ms", len(ms))
        else:
            m[f"{method}.solve_ms_p90"] = metric(
                None, "ms", len(ms), f"fewer than {P90_MIN_SAMPLES} solves"
            )
        converged = sum(s.converged for s in ok)
        m[f"{method}.converged_frac"] = metric(converged / len(ok), "frac", len(ok))
    attempted = sum(len(u.solves) for u in plain)
    failed = sum(u.failed for u in plain)
    m["failed_frac"] = metric(failed / attempted, "frac", attempted)
    m["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return m


def per_layer(units, tracer, counts) -> dict:
    traced = [u for u in units if u.traced]
    plain = {u.k: u for u in units if not u.traced}
    n_units = len(traced)
    wall = sum(u.wall_s for u in traced)
    stats = tracer.stats

    def span(name):  # (calls, total_s, self_s, work)
        return stats.get(name, (0, 0.0, 0.0, 0))

    m = {}
    for family in ("logit", "purechar"):
        work_total = time_total = 0.0
        for kind in ("jac", "nojac"):
            calls, total, _, work = span(f"{family}.evaluate_{kind}")
            m[f"{family}.evaluate_{kind}.calls"] = metric(calls / n_units, "count")
            m[f"{family}.evaluate_{kind}.us_mean"] = metric(
                total / calls * 1e6 if calls else 0.0, "us", calls
            )
            work_total += work
            time_total += total
        # logit work is consumer x product utilities, purechar work is consumers
        name = "mutil_per_s" if family == "logit" else "mconsumers_per_s"
        rate = work_total / time_total / 1e6 if time_total else 0.0
        m[f"{family}.evaluate.{name}"] = metric(rate, "M/s")
    jac_calls = span("logit.evaluate_jac")[0] + span("purechar.evaluate_jac")[0]
    jac_time = span("logit.evaluate_jac")[1] + span("purechar.evaluate_jac")[1]
    jac_us = jac_time / jac_calls * 1e6 if jac_calls else 0.0
    m["evaluate_jac.us_mean"] = metric(jac_us, "us", jac_calls)

    calls, _, self_s, _ = span("purechar.upper_envelope")
    m["purechar.upper_envelope.calls"] = metric(calls / n_units, "count")
    m["purechar.upper_envelope.self_ms"] = metric(self_s / n_units * 1e3, "ms")
    m["purechar.upper_envelope.self_frac"] = metric(self_s / wall, "frac")

    for method, c in counts.items():
        trials = sum(
            s.evaluations - 1 for u in traced for s in u.solves if s.method == method and s.ok
        )
        self_s = span(f"solvers.{method}")[2]
        m[f"solvers.{method}.self_us_per_trial"] = metric(
            self_s / trials * 1e6 if trials else 0.0, "us", trials
        )
        m[f"solvers.{method}.evals_per_solve"] = metric(
            c["evaluations"] / c["solves"] if c["solves"] else 0.0, "count", c["solves"]
        )
        m[f"solvers.{method}.accept_ratio"] = metric(
            c["accepted"] / c["trials"] if c["trials"] else 0.0, "ratio", c["trials"]
        )

    m["harness.run_suite.self_ms"] = metric(span("harness.run_suite")[2] / n_units * 1e3, "ms")
    m["cli.main.self_ms"] = metric(span("cli.main")[2] / n_units * 1e3, "ms")
    write_s = span("modelio.write_trace_csv")[1] + span("modelio.write_json")[1]
    m["modelio.write_ms"] = metric(write_s / n_units * 1e3, "ms")
    m["modelio.bytes_written"] = metric(
        statistics.mean(u.bytes_written for u in traced), "B", n_units
    )

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, (_, _, self_s, _) in stats.items():
        layer_self[name.split(".")[0]] += self_s
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = metric(layer_self[layer] / wall, "frac")
    root = sum(u.root_s for u in traced)
    m["unaccounted_frac"] = metric((wall - root) / wall, "frac")
    m["suite_s.traced"] = metric(statistics.median(u.wall_s for u in traced), "s", n_units)
    overhead = [u.wall_s / plain[u.k].wall_s - 1.0 for u in traced]
    m["trace_overhead_frac"] = metric(statistics.median(overhead), "frac", n_units)
    return m


def declared(kind: str) -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [entry["name"] for entry in doc[kind]]


def show(title, metrics) -> None:
    print(title)
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        extra = []
        if "samples" in m:
            extra.append(f"n={m['samples']}")
        if "note" in m:
            extra.append(m["note"])
        tail = f"  ({', '.join(extra)})" if extra else ""
        print(f"  {name:<40} {value:>14} {m['unit']:<6}{tail}")


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(PINNED_ENV)
    if not (ROOT / "src" / "demandinv" / "__init__.py").is_file():
        print(f"error: no demandinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_times = [] if args.trace else measure_setup(args)
    runner = workloads.Runner(wl, args.seed, OUT / "work" / f"{wl.name}-trace{args.trace}")
    units = []
    start = perf_counter()
    k = 0
    while k < MIN_UNITS or perf_counter() - start < args.seconds:
        if args.trace:
            # Both passes of a unit run the same inputs; alternate which goes first.
            order = (False, True) if k % 2 == 0 else (True, False)
            units += [runner.unit(k, traced) for traced in order]
        else:
            units.append(runner.unit(k))
        k += 1

    counts = workloads.exact_counts(
        [s for u in units if not u.traced and u.k < MIN_UNITS for s in u.solves],
        workloads.ALL_METHODS,
    )
    e2e = end_to_end(wl, units, setup_times, workloads.ALL_METHODS)
    layers = per_layer(units, runner.tracer, counts) if args.trace else {}
    attempted = sum(len(u.solves) for u in units)
    failed = sum(u.failed for u in units)
    problems = [p for u in units for p in u.problems]

    report = {
        "environment": environment(args),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "units": k,
        "unit_wall_s": [u.wall_s for u in units if not u.traced],
        "end_to_end": e2e,
        "exact_counts": {"units": MIN_UNITS, "methods": counts},
        "per_layer": layers,
        "spans": {
            name: {"calls": c, "total_s": t, "self_s": s}
            for name, (c, t, s, _) in sorted(runner.tracer.stats.items())
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"workload {wl.name}, seed {args.seed}: {k} units, {attempted} solves, {failed} failed")
    for p in problems[:5]:
        print(f"  problem: {p}")
    show("end to end", e2e)
    if args.trace:
        show("per layer (traced pass)", layers)
        parts = sum(layers[f"{layer}.self_frac"]["value"] for layer in LAYERS)
        rest = layers["unaccounted_frac"]["value"]
        print(f"  layer self fractions sum to {parts:.6f}; unaccounted {rest:.6f}")
    print(f"wrote {result_path.relative_to(ROOT)}")

    source = layers if args.trace else e2e
    names = declared("per_layer" if args.trace else "end_to_end")
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": source[name]["value"], "unit": source[name]["unit"]} for name in names
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
