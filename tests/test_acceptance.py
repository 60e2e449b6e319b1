"""Acceptance gate.

One test per numbered contract criterion. Every test registers its verdict
before asserting, so the terminal summary always shows one PASS/FAIL line per
criterion. Suite-level experiments are shared module-scoped fixtures; all
seeds are frozen, so each verdict is deterministic."""

import time

import numpy as np
import pytest

import demandinv as di
from conftest import record_criterion
from demandinv import modelio
from demandinv.cli import EXIT_OK, main
from oracles import (
    finite_difference_gradient,
    floored_step,
    mc_logit_shares,
    mc_purechar_shares,
    mc_standard_errors,
)

MASTER_SEED = 7


def check(number, description, passed, detail=""):
    record_criterion(number, description, passed)
    assert passed, f"criterion {number}: {description} -- {detail}"


def error_at(result, iteration):
    """Best-so-far error at an iteration, carrying the final value forward."""
    trace = result.error_trace
    return float(trace[min(iteration, trace.size - 1)])


@pytest.fixture(scope="module")
def logit_suite():
    spec = di.ExperimentSpec(
        model_family="logit",
        J=10,
        M=5,
        n=500,
        replications=20,
        delta_norm=20.0,
        solver=di.SolverConfig(max_iterations=260),
        master_seed=MASTER_SEED,
    )
    start = time.perf_counter()
    suite = di.run_suite(spec)
    return suite, time.perf_counter() - start


@pytest.fixture(scope="module")
def purechar_suite():
    spec = di.ExperimentSpec(
        model_family="purechar",
        J=10,
        M=5,
        n=1000,
        replications=20,
        methods=("convex_tr", "residual_tr"),
        delta_norm=20.0,
        solver=di.SolverConfig(max_iterations=210),
        master_seed=MASTER_SEED,
    )
    start = time.perf_counter()
    suite = di.run_suite(spec)
    return suite, time.perf_counter() - start


def test_criterion_1_gradient_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for family, maker in (("logit", di.make_logit_instance), ("purechar", di.make_purechar_instance)):
        for i in range(20):
            J = int(rng.integers(2, 11))
            M = int(rng.integers(1 if family == "logit" else 2, 6))
            n = int(rng.integers(20, 501))
            market, x_star, _ = maker(J, M, n, seed=i)
            for _ in range(5):
                x = x_star + rng.normal(scale=1.0, size=J)
                fd = finite_difference_gradient(market, x)
                shares = market.evaluate(x).shares
                worst = max(worst, float(np.max(np.abs(fd - shares))))
    elapsed = time.perf_counter() - start
    check(
        1,
        "finite-difference gradient of welfare equals shares (40 instances, 5 points each)",
        worst <= 1e-5 and elapsed < 30.0,
        f"worst gap {worst:.3e}, elapsed {elapsed:.1f}s",
    )


def test_criterion_2_convexity_and_hessian():
    rng = np.random.default_rng(5)
    violation = 0.0
    asym = 0.0
    min_eig = np.inf
    for maker, dims in (
        (di.make_logit_instance, (6, 3, 80)),
        (di.make_purechar_instance, (6, 3, 80)),
    ):
        for i in range(5):
            market, x_star, _ = maker(*dims, seed=i)
            for _ in range(10):
                a = x_star + rng.normal(scale=2.0, size=dims[0])
                b = x_star + rng.normal(scale=2.0, size=dims[0])
                mid = 0.5 * (a + b)
                u_a = market.evaluate(a).welfare
                u_b = market.evaluate(b).welfare
                u_mid = market.evaluate(mid).welfare
                violation = max(violation, u_mid - 0.5 * (u_a + u_b))
            for _ in range(3):
                x = x_star + rng.normal(scale=1.0, size=dims[0])
                jac = market.evaluate(x, want_jacobian=True).jacobian
                asym = max(asym, float(np.max(np.abs(jac - jac.T))))
                min_eig = min(min_eig, float(np.linalg.eigvalsh(jac)[0]))
    check(
        2,
        "welfare convex on 100 random segments; Jacobian symmetric and PSD",
        violation <= 1e-10 and asym <= 1e-10 and min_eig >= -1e-8,
        f"violation {violation:.3e}, asymmetry {asym:.3e}, min eig {min_eig:.3e}",
    )


def test_criterion_3_monte_carlo_share_equivalence():
    ok = True
    detail = []
    for family in ("logit", "purechar"):
        worst = 0.0
        for i in range(10):
            if family == "logit":
                market, x_star, sigma_star = di.make_logit_instance(3 + i % 4, 2, 40, seed=100 + i)
                hat, total = mc_logit_shares(
                    market.z, market.nu, x_star, -(-1_000_000 // market.n), seed=2000 + i
                )
            else:
                market, x_star, sigma_star = di.make_purechar_instance(
                    3 + i % 4, 3, 30, seed=100 + i
                )
                hat, total = mc_purechar_shares(
                    market.z, market.nu_rest, x_star, -(-1_000_000 // market.n), seed=2000 + i
                )
            se = mc_standard_errors(sigma_star, total)
            gap = np.abs(hat - sigma_star)
            ok = ok and bool(np.all(gap <= np.maximum(3.0 * se, 1e-12)))
            worst = max(worst, float(np.max(gap / np.maximum(se, 1e-12))))
        detail.append(f"{family} worst z {worst:.2f}")
    check(
        3,
        "analytic shares match 1e6-draw choice simulation within 3 SEs (10 instances/family)",
        ok,
        ", ".join(detail),
    )


def test_criterion_4_logit_convergence_experiment(logit_suite):
    suite, elapsed = logit_suite
    reps = suite.spec.replications
    convex_hits = sum(
        error_at(suite.results[("convex_tr", r)], 50) <= 1e-12 for r in range(reps)
    )
    contraction_stuck = sum(
        error_at(suite.results[("contraction", r)], 250) > 1e-3 for r in range(reps)
    )
    rate = suite.bands["contraction"].empirical_rate
    passed = (
        not suite.failures
        and convex_hits == reps
        and contraction_stuck >= 0.25 * reps
        and rate >= 0.9
        and elapsed < 180.0
    )
    check(
        4,
        "logit n=500: convex <=1e-12 by iter 50 in all reps; contraction slow (rate >= 0.9)",
        passed,
        f"convex {convex_hits}/{reps}, contraction stuck {contraction_stuck}/{reps}, "
        f"rate {rate:.3f}, elapsed {elapsed:.1f}s",
    )


def test_criterion_5_purechar_convergence_experiment(purechar_suite):
    suite, elapsed = purechar_suite
    reps = suite.spec.replications
    convex_hits = sum(
        error_at(suite.results[("convex_tr", r)], 50) <= 1e-12 for r in range(reps)
    )
    residual_stuck = sum(
        error_at(suite.results[("residual_tr", r)], 200) > 1e-6 for r in range(reps)
    )
    passed = (
        not suite.failures
        and convex_hits >= 0.9 * reps
        and residual_stuck >= 0.25 * reps
        and elapsed < 300.0
    )
    check(
        5,
        "purechar n=1000: convex <=1e-12 by iter 50 in >=90% of reps; residual stalls in >=25%",
        passed,
        f"convex {convex_hits}/{reps}, residual stuck {residual_stuck}/{reps}, "
        f"elapsed {elapsed:.1f}s",
    )


def test_criterion_6_degeneracy_statistic(purechar_suite):
    suite, _ = purechar_suite
    deg = suite.degeneracy
    fraction = deg.fraction_below(1e-10)
    reported = (
        deg.min_overall.size == suite.spec.replications
        and np.all(np.isfinite(deg.min_overall))
        and np.all(deg.min_overall <= deg.min_inside_share)
        and np.all(deg.min_overall <= deg.outside_share)
    )
    check(
        6,
        "purechar n=1000: fraction of reps with min share < 1e-10 is positive and reported",
        fraction > 0.0 and reported,
        f"fraction {fraction:.2f} over {deg.min_overall.size} reps",
    )


def test_criterion_7_logit_round_trip():
    worst = 0.0
    all_converged = True
    for seed in range(10):
        market, x_star, sigma_star = di.make_logit_instance(5, 3, 100, seed=seed)
        res = di.invert(market, sigma_star, "convex_tr")
        all_converged = all_converged and res.converged
        worst = max(worst, float(np.max(np.abs(res.x_final - x_star))))
    check(
        7,
        "10 interior logit instances invert back to x* within 1e-8 (max norm)",
        all_converged and worst <= 1e-8,
        f"worst gap {worst:.3e}",
    )


def test_criterion_8_newton_equivalence():
    market, x_star, sigma_star = di.make_logit_instance(8, 4, 200, seed=0)
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(10):
        x = x_star + rng.normal(scale=1.0, size=8)
        ev = market.evaluate(x, want_jacobian=True)
        gradient = ev.shares - sigma_star
        assert np.linalg.eigvalsh(ev.jacobian)[0] > 0.0
        step, _ = floored_step(gradient, ev.jacobian, 1e12)
        newton = -np.linalg.solve(ev.jacobian, gradient)
        worst = max(worst, float(np.max(np.abs(step - newton))))
    check(
        8,
        "unconstrained convex TR step equals the Newton step -H^{-1}(sigma-sigma*) to 1e-10",
        worst <= 1e-10,
        f"worst gap {worst:.3e}",
    )


def test_criterion_9_simulate_byte_determinism(tmp_path, monkeypatch):
    spec_path = tmp_path / "spec.json"
    modelio.write_json(
        spec_path,
        {
            "model_family": "logit",
            "J": 4,
            "M": 2,
            "n": 50,
            "replications": 3,
            "delta_norm": 10.0,
            "master_seed": 11,
            "solver": {"max_iterations": 40},
        },
    )
    monkeypatch.delenv(di.WORKERS_ENV, raising=False)
    outputs = []
    for run, workers in (("one", None), ("two", None), ("three", "2"), ("four", "4")):
        if workers is not None:
            monkeypatch.setenv(di.WORKERS_ENV, workers)
        out_dir = tmp_path / run
        code = main(["simulate", "--spec", str(spec_path), "--out-dir", str(out_dir)])
        assert code == EXIT_OK
        outputs.append((out_dir / "bands.json").read_bytes())
    identical = all(blob == outputs[0] for blob in outputs[1:])
    check(
        9,
        "simulate writes byte-identical bands.json across reruns and worker counts",
        identical and len(outputs[0]) > 0,
        f"{len(outputs)} runs compared",
    )
