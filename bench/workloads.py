"""The benchmark's workloads: seeded inputs, one unit of work, output checks.

A run is a sequence of units k = 0, 1, 2, ...; unit k of seed s is fully
determined by (s, k). A simulate workload's unit is one `demandinv simulate`
call on a generated spec file; a tied workload's unit is a batch of generated
tied-slope markets solved through `invert`, followed by `write_trace_csv`.
Why each workload exists is written up in README.md next to this file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import demandinv as di  # noqa: E402
import demandinv.cli as cli_mod  # noqa: E402
import demandinv.modelio as modelio_mod  # noqa: E402

from spans import Solve, SolveLog, Tracer  # noqa: E402

ALL_METHODS = di.METHODS
TR_METHODS = ("convex_tr", "residual_tr")

# A solver's reported final error and a fresh evaluation at its x_final come
# from the same share computation; a legitimate reordering of the sums inside
# an evaluator (with versus without the Jacobian, say) may still move the last
# bits. 1e-15 is a few ulps of a share of order one and 1% of the tolerance.
ERROR_MATCH_ATOL = 1e-15

# Slopes of the tied workload are rounded to this grid, so products share them.
TIE_GRID = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    n: int
    methods: tuple[str, ...]
    max_iterations: int
    replications: int  # per unit
    via_cli: bool  # simulate through cli.main, else invert + write_trace_csv
    J: int = 10
    M: int = 5
    delta_norm: float = 20.0

    @property
    def solves_per_unit(self) -> int:
        return self.replications * len(self.methods)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("logit_blp", "logit", 5000, ALL_METHODS, 500, 1, True),
        Workload("purechar_desk", "purechar", 1000, TR_METHODS, 210, 1, True),
        Workload("small_market", "logit", 20, ALL_METHODS, 500, 20, True),
        Workload("purechar_tied", "purechar", 100, TR_METHODS, 210, 1, False),
    )
}


def unit_seed(seed: int, k: int) -> int:
    """Master seed of unit k: a 32-bit hash of (seed, k)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def tied_market(wl: Workload, master: int, replication: int):
    """A pure-characteristics market whose slopes z[:, 0] lie on a coarse grid.

    Drawn like the harness draws its markets, then rounded; x* = z beta and
    sigma* = shares(x*). A draw without a repeated slope (rare at J=10) is
    replaced by the next draw of the same stream.
    """
    attempt = 0
    while True:
        base, _, _ = di.make_purechar_instance(
            wl.J, wl.M, wl.n, np.random.SeedSequence([master, replication, 0, attempt])
        )
        z = np.array(base.z)
        z[:, 0] = np.round(z[:, 0] / TIE_GRID) * TIE_GRID
        market = di.PureCharMarket(z=z, nu_rest=base.nu_rest, beta=base.beta)
        if has_repeated_slope(market):
            break
        attempt += 1
    x_star = z @ base.beta
    sigma_star = market.evaluate(x_star).shares
    x0 = di.perturb_start(
        x_star, wl.delta_norm, np.random.SeedSequence([master, replication, 1])
    )
    return market, sigma_star, x0


def build_inputs(wl: Workload, seed: int, k: int, workdir: Path):
    """Generate unit k's inputs: a spec file, or the tied markets."""
    master = unit_seed(seed, k)
    if not wl.via_cli:
        return [tied_market(wl, master, r) for r in range(wl.replications)]
    workdir.mkdir(parents=True, exist_ok=True)
    spec = {
        "model_family": wl.family,
        "J": wl.J,
        "M": wl.M,
        "n": wl.n,
        "replications": wl.replications,
        "methods": list(wl.methods),
        "delta_norm": wl.delta_norm,
        "master_seed": master,
        "solver": {"max_iterations": wl.max_iterations},
    }
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def reference_seconds() -> float:
    """Time of a fixed reference workload that does not use demandinv.

    The geometric mean of an interpreter-bound loop and a numpy loop, each of
    about 10 to 20 ms. Dividing a unit's time by the reference time measured just
    before it cancels most of the speed changes of a shared machine, which
    move both kinds of code (see README.md).
    """
    t0 = perf_counter()
    totals: dict[int, float] = {}
    for i in range(80_000):
        totals[i % 97] = totals.get(i % 97, 0.0) + 0.5 * i
    t1 = perf_counter()
    draws = np.random.default_rng(0).standard_normal((5000, 10))
    for _ in range(30):
        np.exp(draws).sum(axis=1)
    t2 = perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


@dataclass(frozen=True)
class SolveStats:
    """What the metrics need from one checked solve; full results are dropped."""

    method: str
    seconds: float
    ok: bool
    converged: bool = False
    evaluations: int = 0
    accepted: int = 0


@dataclass
class UnitRecord:
    k: int
    traced: bool
    wall_s: float
    ref_s: float  # reference_seconds() measured just before the unit
    root_s: float  # time covered by top-level spans (traced units only)
    solves: list[SolveStats]
    problems: list[str]
    bytes_written: int

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.solves)


class Runner:
    """Runs units of one workload and checks every output outside the timing."""

    def __init__(self, wl: Workload, seed: int, workdir: Path):
        self.wl = wl
        self.seed = seed
        self.workdir = Path(workdir)
        self.cfg = di.SolverConfig(max_iterations=wl.max_iterations)
        self.tracer = Tracer()
        self.log = SolveLog(self.tracer)

    def unit(self, k: int, traced: bool = False) -> UnitRecord:
        inputs = build_inputs(self.wl, self.seed, k, self.workdir)
        out_dir = self.workdir / ("traced" if traced else "plain")
        out_dir.mkdir(parents=True, exist_ok=True)
        for stale in out_dir.iterdir():
            stale.unlink()
        stdout = io.StringIO()
        self.log.solves = []
        self.tracer.take_root_seconds()
        ref = reference_seconds()
        with self.log.installed(), self.tracer.active() if traced else nullcontext():
            wall, outcome = self._timed(inputs, out_dir, stdout)
        root = self.tracer.take_root_seconds()
        solves, self.log.solves = self.log.solves, []

        if isinstance(outcome, Exception):
            problems = [f"unit raised {outcome!r}"]
        else:
            problems = self._check_unit(outcome, stdout.getvalue(), out_dir, solves, inputs)
        unit_problem = problems[0] if problems else None
        stats = []
        for solve in solves:
            reason = unit_problem or check_solve(solve)
            if reason and not unit_problem:
                problems.append(f"{solve.method}: {reason}")
            res = solve.result
            if res is None:
                stats.append(SolveStats(solve.method, solve.seconds, ok=False))
                continue
            stats.append(
                SolveStats(
                    solve.method,
                    solve.seconds,
                    ok=reason is None,
                    converged=bool(res.converged),
                    evaluations=int(res.eval_counts["shares"]),
                    accepted=int(res.iterations_used),
                )
            )
        # A unit that lost solves counts the missing ones as failed.
        stats += [
            SolveStats("missing", 0.0, ok=False)
            for _ in range(self.wl.solves_per_unit - len(solves))
        ]
        written = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
        return UnitRecord(k, traced, wall, ref, root, stats, problems, written)

    def _timed(self, inputs, out_dir, stdout):
        t0 = perf_counter()
        try:
            outcome = self._work(inputs, out_dir, stdout)
        except Exception as exc:  # recorded as a failed unit, never fatal
            outcome = exc
        return perf_counter() - t0, outcome

    def _work(self, inputs, out_dir, stdout):
        if self.wl.via_cli:
            with redirect_stdout(stdout):
                return cli_mod.main(["simulate", "--spec", str(inputs), "--out-dir", str(out_dir)])
        results = {}
        for r, (market, sigma_star, x0) in enumerate(inputs):
            for method in self.wl.methods:
                results[(method, r)] = self.log(market, sigma_star, method, x0, self.cfg)
        modelio_mod.write_trace_csv(out_dir / "trace.csv", results)
        return results

    def _check_unit(self, outcome, printed, out_dir, solves, inputs) -> list[str]:
        wl = self.wl
        problems = []
        if len(solves) != wl.solves_per_unit:
            problems.append(f"{len(solves)} solves, expected {wl.solves_per_unit}")
        if wl.via_cli:
            if outcome != 0:
                problems.append(f"simulate exited {outcome}")
            if ", 0 failed runs;" not in printed:
                problems.append(f"simulate reported failures: {printed.strip()!r}")
            for name in ("bands.json", "degeneracy.json", "manifest.json"):
                if not (out_dir / name).is_file():
                    problems.append(f"missing {name}")
        else:
            problems += [
                f"market {r} has no repeated slope"
                for r, (market, _, _) in enumerate(inputs)
                if not has_repeated_slope(market)
            ]
        try:
            with open(out_dir / "trace.csv", encoding="utf-8", newline="") as fh:
                rows = sum(1 for _ in csv.reader(fh)) - 1
        except FileNotFoundError:
            return problems + ["missing trace.csv"]
        expected_rows = sum(s.result.error_trace.size for s in solves if s.result is not None)
        if rows != expected_rows:
            problems.append(f"trace.csv has {rows} rows, expected {expected_rows}")
        return problems


def has_repeated_slope(market) -> bool:
    """The tied workload's input property: two products share a slope z[j, 0]."""
    return np.unique(market.z[:, 0]).size < market.J


def check_solve(solve: Solve) -> str | None:
    """Why a solve's output is wrong, or None when it passes every check."""
    if solve.result is None:
        return f"raised {solve.error}"
    res = solve.result
    trace = np.asarray(res.error_trace)
    shares = solve.model.evaluate(res.x_final).shares
    error = float(np.max(np.abs(shares - solve.sigma_star)))
    if abs(error - float(trace[-1])) > ERROR_MATCH_ATOL:
        return f"x_final has error {error!r}, reported {float(trace[-1])!r}"
    if res.converged and error > solve.tolerance:
        return f"converged with error {error!r} > {solve.tolerance!r}"
    if np.any(np.diff(trace) > 0):
        return "error_trace increases"
    return None


def exact_counts(solves: list[SolveStats], methods) -> dict:
    """Per method: solves, converged, model evaluations, trials and accepted
    iterates, summed exactly; they repeat bit for bit for a given seed."""
    counts = {}
    for method in methods:
        rows = [s for s in solves if s.method == method and s.ok]
        evals = sum(s.evaluations for s in rows)
        counts[method] = {
            "solves": len(rows),
            "converged": sum(s.converged for s in rows),
            "evaluations": evals,
            "trials": evals - len(rows),
            "accepted": sum(s.accepted for s in rows),
        }
    return counts
