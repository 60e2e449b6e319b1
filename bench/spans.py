"""Spans recorded from outside the package.

The benchmark never edits `src/`. It replaces public functions at the call
sites the package itself uses (module attributes and class methods) with
wrappers, and puts the originals back afterwards. `SolveLog` is installed on
every run: it times each `invert` call the harness makes and keeps the inputs
and the result for the output checks. `Tracer` adds one span per call into
each layer, and is installed only for traced passes.

Spans are aggregated in memory per name (calls, total, self time, work), not
kept one by one: a small-market run makes a quarter of a million evaluator calls.
Self time is a span's duration minus the durations of the spans it caused.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import demandinv.cli as cli_mod
import demandinv.harness as harness_mod
import demandinv.modelio as modelio_mod
import demandinv.purechar as purechar_mod
from demandinv import LogitMarket, PureCharMarket

# The modelio functions `cli.cmd_simulate` calls, by the names it imports them under.
CLI_MODELIO = (
    "read_json",
    "spec_from_dict",
    "write_trace_csv",
    "write_json",
    "bands_to_dict",
    "degeneracy_to_dict",
    "manifest_dict",
)


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@dataclass
class Solve:
    """One `invert` call: what went in, what came out, how long it took."""

    method: str
    seconds: float
    model: object
    sigma_star: object
    tolerance: float
    result: object = None
    error: str | None = None


class Tracer:
    """Aggregated span statistics, keyed by span name ("<layer>.<what>")."""

    def __init__(self):
        self.on = False
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, work]
        self._child = [0.0]  # per open span: time covered by its children

    def call(self, name, fn, args, kwargs, work=0):
        if not self.on:
            return fn(*args, **kwargs)
        stack = self._child
        stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            child = stack.pop()
            stack[-1] += dt
            s = self.stats.get(name)
            if s is None:
                s = self.stats[name] = [0, 0.0, 0.0, 0]
            s[0] += 1
            s[1] += dt
            s[2] += dt - child
            s[3] += work

    def take_root_seconds(self) -> float:
        """Time covered by top-level spans since the last call."""
        root, self._child[0] = self._child[0], 0.0
        return root

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _evaluator(self, family, fn, work):
        def evaluate(model, x, want_jacobian=False):
            name = f"{family}.evaluate_{'jac' if want_jacobian else 'nojac'}"
            return self.call(name, fn, (model, x, want_jacobian), {}, work(model))

        return evaluate

    @contextmanager
    def active(self):
        """Install one span per layer boundary for the duration of the block."""
        replacements = [
            (cli_mod, "main", self._span("cli.main", cli_mod.main)),
            (cli_mod, "run_suite", self._span("harness.run_suite", cli_mod.run_suite)),
            (
                LogitMarket,
                "evaluate",
                self._evaluator("logit", LogitMarket.evaluate, lambda m: m.n * m.J),
            ),
            (
                PureCharMarket,
                "evaluate",
                self._evaluator("purechar", PureCharMarket.evaluate, lambda m: m.n),
            ),
            (
                purechar_mod,
                "upper_envelope",
                self._span("purechar.upper_envelope", purechar_mod.upper_envelope),
            ),
            (
                modelio_mod,
                "write_trace_csv",
                self._span("modelio.write_trace_csv", modelio_mod.write_trace_csv),
            ),
        ]
        replacements += [
            (cli_mod, name, self._span(f"modelio.{name}", getattr(cli_mod, name)))
            for name in CLI_MODELIO
        ]
        with patched(replacements):
            self.on = True
            try:
                yield
            finally:
                self.on = False


class SolveLog:
    """Times every `invert` call made through it and keeps it for checking."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.solves: list[Solve] = []
        self._invert = harness_mod.invert

    def __call__(self, model, sigma_star, method, x0, cfg):
        tolerance = cfg.gradient_tolerance
        t0 = perf_counter()
        try:
            result = self.tracer.call(
                f"solvers.{method}", self._invert, (model, sigma_star, method, x0, cfg), {}
            )
        except Exception as exc:
            self.solves.append(
                Solve(method, perf_counter() - t0, model, sigma_star, tolerance, error=repr(exc))
            )
            raise
        self.solves.append(
            Solve(method, perf_counter() - t0, model, sigma_star, tolerance, result=result)
        )
        return result

    @contextmanager
    def installed(self):
        """Route the harness's own `invert` call site through this log."""
        with patched([(harness_mod, "invert", self)]):
            yield
