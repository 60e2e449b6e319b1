"""Command line driver.

Subcommands:
    generate  draw a synthetic market and write model + truth sidecar files
    invert    solve sigma(x) = sigma* for one model and target
    simulate  run a replication suite from a spec file and export reports

Exit codes: 0 success, 1 IO failure, 2 usage/validation error,
3 solver did not converge.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import InvalidInputError
from .harness import FAMILIES, perturb_start, run_suite
from .modelio import (
    bands_to_dict,
    degeneracy_to_dict,
    inversion_result_to_dict,
    load_model,
    load_truth,
    load_vector,
    manifest_dict,
    read_json,
    save_model,
    save_truth,
    spec_from_dict,
    truth_path_for,
    write_json,
    write_trace_csv,
)
from .solvers import METHODS, SolverConfig, invert

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3

X0_TRUTH_PREFIX = "truth+delta:"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demandinv",
        description="Invert discrete-choice market shares into mean utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a synthetic market instance")
    gen.add_argument("--family", choices=tuple(FAMILIES), required=True)
    gen.add_argument("--J", type=int, required=True, help="number of products")
    gen.add_argument("--M", type=int, required=True, help="attribute dimension")
    gen.add_argument("--n", type=int, required=True, help="simulated consumers")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="model JSON path; truth sidecar lands next to it")
    gen.set_defaults(func=cmd_generate)

    inv = sub.add_parser("invert", help="solve sigma(x) = sigma* for one target")
    inv.add_argument("--model", required=True, help="model JSON file")
    inv.add_argument(
        "--shares",
        required=True,
        help="target shares: a JSON file (array or object with shares/sigma_star) "
        "or an inline comma-separated list",
    )
    inv.add_argument("--method", choices=METHODS, default="convex_tr")
    inv.add_argument(
        "--x0",
        default=None,
        help="start point: JSON file (array or object with x0/x_star), or "
        f"'{X0_TRUTH_PREFIX}NORM' for truth-sidecar x* plus a random "
        "perturbation of that Euclidean norm; default is the zero vector",
    )
    inv.add_argument("--x0-seed", type=int, default=0, help="seed for the truth+delta direction")
    inv.add_argument(
        "--tol",
        type=float,
        default=SolverConfig.gradient_tolerance,
        help="stopping tolerance on max share error",
    )
    inv.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations)
    inv.add_argument("--out", required=True, help="result JSON path; trace CSV lands next to it")
    inv.set_defaults(func=cmd_invert)

    sim = sub.add_parser("simulate", help="run a replication suite from a spec file")
    sim.add_argument("--spec", required=True, help="experiment spec JSON file")
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)
    return parser


def cmd_generate(args) -> int:
    market, x_star, sigma_star = FAMILIES[args.family].draw(args.J, args.M, args.n, args.seed)
    out = Path(args.out)
    truth = truth_path_for(out)
    save_model(out, market, seed=args.seed)
    save_truth(truth, x_star, sigma_star)
    print(f"wrote {out} and {truth}")
    return EXIT_OK


def _parse_shares(text: str):
    # os.path.exists, unlike Path.exists, is False for a name too long to be a
    # file, so an inline list may be any length
    if os.path.exists(text):
        missing = "shares file needs a 'shares' or 'sigma_star' key"
        return load_vector(text, ("shares", "sigma_star"), missing)
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise InvalidInputError(
            f"--shares is neither an existing file nor a comma-separated list: {text!r}"
        ) from None


def _parse_x0(arg, model_path, x0_seed: int):
    if arg is None:
        return None
    if arg.startswith(X0_TRUTH_PREFIX):
        try:
            norm = float(arg[len(X0_TRUTH_PREFIX) :])
        except ValueError:
            raise InvalidInputError(f"bad perturbation norm in {arg!r}") from None
        x_star, _ = load_truth(truth_path_for(model_path))
        return perturb_start(x_star, norm, x0_seed)
    missing = "x0 file needs an 'x0' or 'x_star' key"
    return load_vector(arg, ("x0", "x_star"), missing)


def cmd_invert(args) -> int:
    market = load_model(args.model)
    target = _parse_shares(args.shares)
    x0 = _parse_x0(args.x0, args.model, args.x0_seed)
    cfg = SolverConfig(max_iterations=args.max_iter, gradient_tolerance=args.tol)
    result = invert(market, target, args.method, x0, cfg)
    out = Path(args.out)
    trace = out.with_suffix(".trace.csv")
    write_json(out, inversion_result_to_dict(result, args.method))
    write_trace_csv(trace, {(args.method, 0): result})
    status = "converged" if result.converged else "did not converge"
    print(
        f"{args.method} {status}: final error {result.error_trace[-1]:.3e} "
        f"after {result.iterations_used} iterations; wrote {out} and {trace}"
    )
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def cmd_simulate(args) -> int:
    spec = spec_from_dict(read_json(args.spec))
    suite = run_suite(spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_dir / "trace.csv", suite.results)
    write_json(out_dir / "bands.json", bands_to_dict(suite.bands))
    write_json(out_dir / "degeneracy.json", degeneracy_to_dict(suite.degeneracy))
    write_json(out_dir / "manifest.json", manifest_dict(spec, suite.failures))
    print(
        f"{spec.model_family} suite: {spec.replications} replications, "
        f"{len(suite.failures)} failed runs; reports in {out_dir}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
