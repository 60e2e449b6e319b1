"""Replication experiments: seeded instances, perturbed starts, per-iteration
error bands across methods, and degeneracy statistics of the drawn targets."""

from __future__ import annotations

import math
import os
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .core import InvalidInputError, as_mean_utility, as_seed_sequence, check_market_size
from .logit import LogitMarket, make_logit_instance
from .purechar import PureCharMarket, make_purechar_instance
from .solvers import METHODS, InversionResult, SolverConfig, invert

# Worker processes for replication-level parallelism; defaults to all cores.
# Results are folded in replication order, so the setting never changes output.
WORKERS_ENV = "DEMANDINV_WORKERS"

# The model families a spec or model file may name, each with its market class,
# the class's draws field (written as "nu" in model files), its seeded instance
# maker and its smallest attribute count M.
Family = namedtuple("Family", "market draws make min_M")
FAMILIES = {
    "logit": Family(LogitMarket, "nu", make_logit_instance, 1),
    "purechar": Family(PureCharMarket, "nu_rest", make_purechar_instance, 2),
}

# A target coordinate (inside or outside share) below this counts as degenerate.
DEGENERACY_THRESHOLD = 1e-14


@dataclass(frozen=True)
class ExperimentSpec:
    """One suite: a model family/size, a replication count, and solver settings."""

    model_family: str
    J: int
    M: int
    n: int
    replications: int
    methods: tuple[str, ...] = METHODS
    delta_norm: float = 20.0
    master_seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.model_family not in FAMILIES:
            raise InvalidInputError(f"unknown model family {self.model_family!r}")
        check_market_size(self.J, self.M, self.n, min_M=FAMILIES[self.model_family].min_M)
        if self.replications < 1:
            raise InvalidInputError("replications must be >= 1")
        if not 0 <= self.delta_norm < math.inf:
            raise InvalidInputError("delta_norm must be finite and >= 0")
        if self.master_seed < 0:
            raise InvalidInputError("master_seed must be >= 0")
        methods = tuple(self.methods)
        if not methods:
            raise InvalidInputError("methods must not be empty")
        for method in methods:
            if method not in METHODS:
                raise InvalidInputError(f"unknown method {method!r}")
        object.__setattr__(self, "methods", methods)


@dataclass(frozen=True, eq=False)
class MethodBand:
    """Across-replication min/median/max error of one method at each iteration
    of its longest trace; shorter traces carry their final error forward."""

    minimum: np.ndarray
    median: np.ndarray
    maximum: np.ndarray
    empirical_rate: float


@dataclass(frozen=True, eq=False)
class DegeneracyStats:
    """Per replication: the smallest inside share, the outside share, and
    min_overall = min(min_j sigma*_j, 1 - sum sigma*_j) of the drawn target."""

    min_inside_share: np.ndarray
    outside_share: np.ndarray
    min_overall: np.ndarray

    def fraction_below(self, threshold: float = DEGENERACY_THRESHOLD) -> float:
        """Share of replications whose min_overall is below threshold."""
        return float(np.mean(self.min_overall < threshold))


@dataclass(frozen=True, eq=False)
class SuiteResult:
    spec: ExperimentSpec
    results: dict[tuple[str, int], InversionResult]
    bands: dict[str, MethodBand]  # methods whose runs all failed have no band
    degeneracy: DegeneracyStats
    failures: dict[tuple[str, int], str]


def perturb_start(x_star, delta_norm: float, seed):
    """x* plus a seeded perturbation of exact Euclidean length delta_norm,
    drawn uniformly on the sphere (normalized Gaussian direction)."""
    x_star = as_mean_utility(x_star)
    if not 0 <= delta_norm < math.inf:
        raise InvalidInputError("delta_norm must be finite and >= 0")
    if delta_norm == 0:
        return x_star.copy()
    root = as_seed_sequence(seed)
    direction = np.random.Generator(np.random.Philox(root)).standard_normal(x_star.shape[0])
    return x_star + (delta_norm / float(np.linalg.norm(direction))) * direction


def empirical_rate(trace, window: int = 5) -> float:
    """Median successive error ratio over the final `window` iterations.

    A proxy for the linear convergence modulus alpha: geometric traces
    e_k = alpha^k give back alpha. Exact zeros in the tail report rate 0.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 1:
        raise InvalidInputError("trace must be a vector of errors")
    if window < 2:
        raise InvalidInputError("window must be >= 2")
    if trace.size <= window:
        raise InvalidInputError(f"trace of length {trace.size} too short for window {window}")
    if np.any(trace < 0):
        raise InvalidInputError("trace entries must be nonnegative")
    tail = trace[-(window + 1) :]
    if np.any(tail == 0.0):
        return 0.0
    return float(np.median(tail[1:] / tail[:-1]))


def _run_replication(spec: ExperimentSpec, replication: int):
    """Worker: build the seeded instance, run every method from one shared start."""
    instance_seed = np.random.SeedSequence([spec.master_seed, replication, 0])
    start_seed = np.random.SeedSequence([spec.master_seed, replication, 1])
    make = FAMILIES[spec.model_family].make
    market, x_star, sigma_star = make(spec.J, spec.M, spec.n, instance_seed)
    x0 = perturb_start(x_star, spec.delta_norm, start_seed)
    outcomes = {}
    for method in spec.methods:
        try:
            outcomes[method] = invert(market, sigma_star, method, x0, spec.solver)
        except InvalidInputError as exc:
            outcomes[method] = str(exc)
    min_inside = float(sigma_star.min())
    outside = max(0.0, 1.0 - float(sigma_star.sum()))
    return replication, outcomes, (min_inside, outside, min(min_inside, outside))


def _worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidInputError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        if workers < 1:
            raise InvalidInputError(f"{WORKERS_ENV} must be >= 1")
        return workers
    return os.cpu_count() or 1


def run_suite(spec: ExperimentSpec) -> SuiteResult:
    """Run all replications and aggregate bands and degeneracy statistics.

    A solver failure inside one replication is recorded in `failures` and
    excluded from the bands; it never aborts the suite.
    """
    workers = _worker_count()
    replications = range(spec.replications)
    if workers > 1 and spec.replications > 1:
        with ProcessPoolExecutor(max_workers=min(workers, spec.replications)) as pool:
            rows = list(pool.map(_run_replication, repeat(spec), replications))
    else:
        rows = [_run_replication(spec, r) for r in replications]

    results: dict[tuple[str, int], InversionResult] = {}
    failures: dict[tuple[str, int], str] = {}
    stats = np.empty((spec.replications, 3))
    for replication, outcomes, deg in rows:
        stats[replication] = deg
        for method, outcome in outcomes.items():
            if isinstance(outcome, InversionResult):
                results[(method, replication)] = outcome
            else:
                failures[(method, replication)] = outcome

    degeneracy = DegeneracyStats(
        min_inside_share=stats[:, 0].copy(),
        outside_share=stats[:, 1].copy(),
        min_overall=stats[:, 2].copy(),
    )
    bands = _aggregate_bands(spec, results)
    return SuiteResult(
        spec=spec, results=results, bands=bands, degeneracy=degeneracy, failures=failures
    )


def _aggregate_bands(spec: ExperimentSpec, results) -> dict[str, MethodBand]:
    bands: dict[str, MethodBand] = {}
    for method in spec.methods:
        traces = [
            results[(method, r)].error_trace
            for r in range(spec.replications)
            if (method, r) in results
        ]
        if not traces:
            continue
        # Pad by carrying the last (best) error forward so every replication
        # is defined up to this method's longest trace.
        padded = np.empty((len(traces), max(trace.size for trace in traces)))
        rates = []
        for i, trace in enumerate(traces):
            padded[i, : trace.size] = trace
            padded[i, trace.size :] = trace[-1]
            if trace.size >= 3:
                rates.append(empirical_rate(trace, window=min(5, trace.size - 1)))
        bands[method] = MethodBand(
            minimum=padded.min(axis=0),
            median=np.median(padded, axis=0),
            maximum=padded.max(axis=0),
            empirical_rate=float(np.median(rates)) if rates else math.nan,
        )
    return bands
