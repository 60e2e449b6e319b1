"""Per-call and per-trial costs of both model families as J and n grow.

    python tools/scaling.py [--src DIR] [--family logit purechar]
                            [--J 10 20 40 80] [--n 1000 5000]
                            [--repeat 5] [--trials 20]

For each family, J and n it draws one seeded market with M = 5 attributes
(`make_*_instance(J, 5, n, seed=0)`) and prints one row:

- `shares_us`: one `evaluate(x)` call at x = x* + 0.3, its welfare not read,
  as `contraction` calls it;
- `jac_us`: one `evaluate(x, want_jacobian=True)` call with its welfare read,
  as `convex_tr` calls it;
- `convex_tr_us`, `residual_tr_us`: the solver's own time per trust-region
  trial, that is, a run's wall time less the time spent inside `evaluate`,
  divided by the run's trials. Each run starts at x* + 20 U[-1, 1] (seeded)
  with a budget of --trials trials, and `trials` gives the smaller of the two
  methods' counts; a run that converges early makes fewer. Inside the timed
  `evaluate` the welfare is always read, so it is never charged to a solver.

Each evaluate figure is the least over --repeat rounds of one round's mean
per call, a round lasting about 0.1 s; each solver figure is the least over
--repeat runs. Compare two trees only by interleaved runs on one machine.
--trials 0 leaves the solver columns out. The package is imported from --src
(default: this checkout's src/), and the file it came from is printed first.
BLAS runs one thread, as in bench/run.py, unless OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS or MKL_NUM_THREADS is already set; the header line prints it.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M = 5
SEED = 0
ROUND_S = 0.1
START_SPREAD = 20.0
METHODS = ("convex_tr", "residual_tr")


class TimedModel:
    """A market whose `evaluate` reads the welfare and adds its own wall time to `spent`."""

    def __init__(self, market):
        self.market = market
        self.J = market.J
        self.spent = 0.0

    def evaluate(self, x, want_jacobian=False):
        start = perf_counter()
        ev = self.market.evaluate(x, want_jacobian)
        ev.welfare
        self.spent += perf_counter() - start
        return ev


def per_call_us(call, repeat: int) -> float:
    """Least over `repeat` rounds of the mean µs per call, a round lasting about ROUND_S."""
    start = perf_counter()
    call()  # warm: scratch, tables and the first evaluation's import
    number = max(3, math.ceil(ROUND_S / max(perf_counter() - start, 1e-7)))
    best = math.inf
    for _ in range(repeat):
        start = perf_counter()
        for _ in range(number):
            call()
        best = min(best, (perf_counter() - start) / number)
    return 1e6 * best


def solver_us_per_trial(di, market, x0, sigma, method, trials: int, repeat: int):
    """(least µs per trial spent outside evaluate over `repeat` runs, trials per run)."""
    cfg = di.SolverConfig(max_iterations=trials)
    best, made = math.inf, 0
    for _ in range(repeat):
        model = TimedModel(market)
        start = perf_counter()
        result = di.invert(model, sigma, method, x0=x0, cfg=cfg)
        wall = perf_counter() - start
        made = result.eval_counts["shares"] - 1  # one evaluation per trial, plus the start's
        if made:
            best = min(best, (wall - model.spent) / made)
    return 1e6 * best, made


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    families = ["logit", "purechar"]
    parser.add_argument("--family", nargs="+", choices=families, default=families)
    parser.add_argument("--J", nargs="+", type=int, default=[10, 20, 40, 80])
    parser.add_argument("--n", nargs="+", type=int, default=[1000, 5000])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--trials", type=int, default=20)
    args = parser.parse_args(argv)
    for var in BLAS_THREADS:  # read when numpy is first imported
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    import demandinv as di

    threads = os.environ["OPENBLAS_NUM_THREADS"]
    print(f"demandinv from {di.__file__}, OPENBLAS_NUM_THREADS={threads}")
    makers = {"logit": di.make_logit_instance, "purechar": di.make_purechar_instance}
    head = f"{'family':9}{'J':>4}{'n':>7}{'shares_us':>12}{'jac_us':>12}"
    if args.trials:
        head += f"{'convex_tr_us':>14}{'residual_tr_us':>16}{'trials':>8}"
    print(head)
    for family in args.family:
        for J in args.J:
            for n in args.n:
                market, x_star, sigma = makers[family](J, M, n, seed=SEED)
                x = x_star + 0.3
                shares = per_call_us(lambda: market.evaluate(x), args.repeat)
                jac = per_call_us(
                    lambda: market.evaluate(x, want_jacobian=True).welfare, args.repeat
                )
                row = f"{family:9}{J:>4}{n:>7}{shares:>12.1f}{jac:>12.1f}"
                if args.trials:
                    rng = np.random.default_rng([SEED, J, n])
                    x0 = x_star + START_SPREAD * rng.uniform(-1.0, 1.0, J)
                    runs = [
                        solver_us_per_trial(di, market, x0, sigma, m, args.trials, args.repeat)
                        for m in METHODS
                    ]
                    row += f"{runs[0][0]:>14.1f}{runs[1][0]:>16.1f}{min(r[1] for r in runs):>8}"
                print(row, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
