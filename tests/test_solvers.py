"""Inversion solvers: contraction fixed point, convex trust-region Newton,
and residual Gauss-Newton, plus the shared trust-region step machinery."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import demandinv as di
from demandinv.harness import FAMILIES
from demandinv.solvers import _floor_hessian, _residual_state, _tr_step
from oracles import cauchy_reduction, floored_step, outside_segment_consumers
from test_purechar import draw_tied_slopes


def run_python(code):
    """The output lines of `code` run in a fresh interpreter on this package."""
    src = str(Path(di.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def plain_logit(J):
    """Homogeneous logit: sigma_q(x) = exp(x_q) / (1 + sum exp(x))."""
    z = np.zeros((J, 1))
    nu = np.zeros((1, 1))
    return di.LogitMarket(z=z, nu=nu, beta=np.zeros(1))


class QuadraticModel(di.DemandModel):
    """Synthetic model with linear shares A x + c, so the convex objective is
    an exact quadratic and Newton should land in one accepted step."""

    def __init__(self, A, c):
        self._A = np.asarray(A, dtype=float)
        self._c = np.asarray(c, dtype=float)

    @property
    def J(self):
        return self._A.shape[0]

    def evaluate(self, x, want_jacobian=False):
        x = di.as_mean_utility(x, self.J)
        shares = self._A @ x + self._c
        welfare = 0.5 * float(x @ (self._A @ x)) + float(self._c @ x)
        jac = self._A.copy() if want_jacobian else None
        return di.ModelEvaluation(welfare=welfare, shares=shares, jacobian=jac)


class RecordingModel(di.DemandModel):
    """Pass-through wrapper that logs every evaluation point."""

    def __init__(self, inner):
        self.inner = inner
        self.xs = []

    @property
    def J(self):
        return self.inner.J

    def evaluate(self, x, want_jacobian=False):
        self.xs.append(np.array(x, dtype=float))
        return self.inner.evaluate(x, want_jacobian=want_jacobian)


class NaNSharesModel(di.DemandModel):
    """Pass-through wrapper: the first `nan_from` evaluations are the inner
    model's, every later one has NaN shares."""

    def __init__(self, inner, nan_from):
        self.inner = inner
        self.nan_from = nan_from
        self.calls = 0

    @property
    def J(self):
        return self.inner.J

    def evaluate(self, x, want_jacobian=False):
        ev = self.inner.evaluate(x, want_jacobian=want_jacobian)
        self.calls += 1
        if self.calls <= self.nan_from:
            return ev
        return di.ModelEvaluation(ev.welfare, np.full(self.J, np.nan), ev.jacobian)


class WelfareCountingModel(di.DemandModel):
    """Pass-through wrapper whose evaluations defer the inner model's welfare
    to their first read and count how many of them compute it."""

    def __init__(self, inner):
        self.inner = inner
        self.welfare_computed = 0

    @property
    def J(self):
        return self.inner.J

    def evaluate(self, x, want_jacobian=False):
        ev = self.inner.evaluate(x, want_jacobian=want_jacobian)

        def welfare():
            self.welfare_computed += 1
            return ev.welfare

        return di.ModelEvaluation(welfare, ev.shares, ev.jacobian)


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = di.SolverConfig()
        assert dataclasses.asdict(cfg) == {"max_iterations": 500, "gradient_tolerance": 1e-13}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": -1},
            {"gradient_tolerance": 0.0},
            {"gradient_tolerance": math.inf},
            {"gradient_tolerance": math.nan},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(di.InvalidInputError):
            di.SolverConfig(**kwargs)


class TestTrustRegionStep:
    def test_unconstrained_step_is_newton(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            J = 5
            root = rng.standard_normal((J, J))
            B = root @ root.T + 0.5 * np.eye(J)
            g = rng.standard_normal(J)
            p, _ = floored_step(g, B, 1e12)
            newton = -np.linalg.solve(B, g)
            assert np.max(np.abs(p - newton)) <= 1e-10 * max(1.0, np.max(np.abs(newton)))

    def test_small_radius_follows_steepest_descent(self):
        B = np.diag([1.0, 4.0])
        g = np.array([3.0, 4.0])
        radius = 1e-3
        p, _ = floored_step(g, B, radius)
        assert np.linalg.norm(p) == pytest.approx(radius, rel=1e-12)
        cosine = -(p @ g) / (np.linalg.norm(p) * np.linalg.norm(g))
        assert cosine == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_hessian_stays_inside_radius(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            B = rng.standard_normal((4, 4))
            B = 0.5 * (B + B.T) - 1.5 * np.eye(4)
            g = rng.standard_normal(4)
            radius = 0.7
            p, floored = floored_step(g, B, radius)
            assert np.linalg.norm(p) <= radius * (1 + 1e-12)
            reduction = -(g @ p + 0.5 * p @ (floored @ p))
            assert reduction > 0.0

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_floored_step_properties(self, data):
        J = data.draw(st.integers(1, 60), label="J")
        kind = data.draw(st.sampled_from(["psd", "rank_deficient", "indefinite", "psd_minus_cI"]))
        scale = 10.0 ** data.draw(st.integers(-20, 16), label="log10 scale")
        g_scale = 10.0 ** data.draw(st.integers(-8, 8), label="log10 |g|")
        radius = 10.0 ** data.draw(st.floats(-6.0, 6.0), label="log10 radius")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if kind == "indefinite":
            A = rng.standard_normal((J, J))
            B = A + A.T
        else:
            rank = J if kind != "rank_deficient" else data.draw(st.integers(0, J - 1))
            A = rng.standard_normal((J, rank))
            B = A @ A.T
            if kind == "psd_minus_cI":
                B -= data.draw(st.sampled_from([1e-14, 1e-8, 0.1, 1.0, 10.0])) * np.eye(J)
        B *= scale
        g = g_scale * rng.standard_normal(J)
        lam, _ = _floor_hessian(B)
        assert np.all(lam > 0.0)
        p, floored = floored_step(g, B, radius)
        assert np.all(np.isfinite(p))
        assert np.linalg.norm(p) <= radius * (1 + 1e-12)
        pred = -(g @ p + 0.5 * p @ (floored @ p))
        cauchy = cauchy_reduction(g, floored, radius)
        assert pred >= cauchy - 1e-9 * max(1.0, abs(cauchy))
        # With B unshifted, its condition number can reach 1 / (64 eps), so a
        # solve's forward error reaches about 1/64: test Newton steps well inside
        # the radius, by their backward error.
        unshifted = np.array_equal(lam, np.linalg.eigh(B)[0])
        if unshifted and np.linalg.norm(np.linalg.solve(B, g)) < 0.9 * radius:
            residual = np.linalg.norm(B @ p + g)
            assert residual <= 1e-12 * (np.linalg.norm(B, 2) * np.linalg.norm(p) + np.linalg.norm(g))

    def test_one_eigenvalue_call_per_accepted_state(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(B):
            calls.append(B)
            return eigh(B)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        for make, M in ((di.make_logit_instance, 2), (di.make_purechar_instance, 3)):
            market, x_star, sigma_star = make(4, M, 30, seed=0)
            x0 = di.perturb_start(x_star, 10.0, seed=1)
            for method in ("convex_tr", "residual_tr"):
                calls.clear()
                res = di.invert(market, sigma_star, method, x0=x0)
                # The start and each accepted state: one error_trace entry each.
                assert len(calls) == res.error_trace.size < res.eval_counts["jacobian"]

    def test_import_loads_no_scipy_linalg(self):
        # the solvers factorize with numpy alone; scipy.linalg would add ~44
        # modules to every import of the package
        code = "import sys, demandinv; print('scipy.linalg' in sys.modules)"
        assert run_python(code) == ["False"]

    def test_scipy_loaded_on_first_purechar_evaluation(self):
        # ndtr comes from scipy.special, imported when a pure-characteristics
        # market is first evaluated; the package and logit work load no scipy
        code = (
            "import sys, demandinv as di\n"
            "market, x_star, sigma_star = di.make_logit_instance(3, 2, 20, seed=0)\n"
            "di.invert(market, sigma_star, 'convex_tr', x0=di.perturb_start(x_star, 1.0, seed=1))\n"
            "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))\n"
            "market = di.PureCharMarket(z=[[1.0, 0.5]], nu_rest=[[0.1]], beta=[1.0, 1.0])\n"
            "market.evaluate([0.2])\n"
            "print('scipy.special' in sys.modules)\n"
        )
        assert run_python(code) == ["False", "True"]


class TestContraction:
    def test_converges_on_logit(self):
        market, x_star, sigma_star = di.make_logit_instance(4, 2, 50, seed=3)
        res = di.invert(market, sigma_star, "contraction")
        assert res.converged
        assert np.max(np.abs(res.x_final - x_star)) < 1e-10
        assert res.error_trace[-1] <= 1e-13

    def test_starting_at_truth_stops_immediately(self):
        market, x_star, sigma_star = di.make_logit_instance(3, 2, 20, seed=5)
        res = di.invert(market, sigma_star, "contraction", x0=x_star)
        assert res.converged
        assert res.iterations_used == 0
        assert res.error_trace.shape == (1,)
        assert np.array_equal(res.x_final, x_star)

    def test_rejects_boundary_targets(self):
        market = plain_logit(2)
        with pytest.raises(di.UnsupportedTargetError):
            di.invert(market, np.array([0.0, 0.5]), "contraction")
        with pytest.raises(di.UnsupportedTargetError):
            di.invert(market, np.array([0.5, 0.5]), "contraction")

    def test_zero_model_share_ends_run(self):
        # a pure characteristics model gives exact-zero shares in deep tails,
        # where the log update is undefined
        market, x_star, _ = di.make_purechar_instance(4, 3, 30, seed=3)
        # at x* the outside good owns no consumer's segment, so the shares sum
        # to 1 up to round-off; half a unit lower it owns some, so the target
        # is interior in exact arithmetic too
        target = market.evaluate(x_star - 0.5).shares
        assert outside_segment_consumers(market, x_star - 0.5) > 0
        assert np.all(target > 0.0) and target.sum() < 1.0
        x0 = np.full(4, -400.0)  # deep enough that every tail mass underflows
        assert np.array_equal(market.evaluate(x0).shares, np.zeros(4))
        res = di.invert(market, target, "contraction", x0=x0)
        assert not res.converged
        assert res.iterations_used == 0
        assert res.eval_counts == {"welfare": 0, "shares": 1, "jacobian": 0}

    def test_eval_accounting(self):
        market, _, sigma_star = di.make_logit_instance(3, 2, 25, seed=8)
        res = di.invert(market, sigma_star, "contraction")
        assert res.eval_counts["welfare"] == 0
        assert res.eval_counts["jacobian"] == 0
        assert res.eval_counts["shares"] == len(res.error_trace)
        assert res.eval_trace[0] == 1
        assert res.eval_trace[-1] == len(res.error_trace)


class TestConvexTrustRegion:
    def test_one_dimensional_logit(self):
        market = plain_logit(1)
        target = np.array([0.3])
        res = di.invert(market, target, "convex_tr")
        assert res.converged
        assert res.iterations_used <= 30
        x_star = np.log(0.3 / 0.7)
        assert abs(res.x_final[0] - x_star) < 1e-12

    def test_quadratic_model_takes_one_step(self):
        # pick a simplex-valid target, then choose c so x* is the solution
        rng = np.random.default_rng(7)
        root = rng.standard_normal((4, 4))
        A = root @ root.T + 4.0 * np.eye(4)
        x_star = rng.standard_normal(4)
        target = np.array([0.2, 0.1, 0.3, 0.15])
        model = QuadraticModel(A, target - A @ x_star)
        # the Newton step fits inside the initial radius of 1
        x0 = di.perturb_start(x_star, 0.5, seed=7)
        res = di.invert(model, target, "convex_tr", x0=x0)
        assert res.converged
        assert res.iterations_used == 1
        assert np.max(np.abs(res.x_final - x_star)) < 1e-12

    def test_recovers_truth_both_families(self):
        for maker, dims in (
            (di.make_logit_instance, (5, 2, 80)),
            (di.make_purechar_instance, (5, 3, 120)),
        ):
            for seed in (0, 1, 2):
                market, x_star, sigma_star = maker(*dims, seed=seed)
                x0 = x_star + di.perturb_start(x_star, 20.0, seed=seed)
                res = di.invert(market, sigma_star, "convex_tr", x0=x0)
                assert res.converged, (maker.__name__, seed)
                final_err = np.abs(market.evaluate(res.x_final).shares - sigma_star).max()
                assert final_err <= 1e-13

    def test_zero_target_coordinate_is_allowed(self):
        # exactly attainable only at x_0 = -inf, but the max-norm tolerance is
        # reachable at finite x: the run must stay finite and push x_0 far down
        market, x_star, sigma_star = di.make_logit_instance(3, 2, 20, seed=1)
        target = sigma_star.copy()
        target[0] = 0.0
        cfg = di.SolverConfig(max_iterations=60)
        res = di.invert(market, target, "convex_tr", cfg=cfg)
        assert np.all(np.isfinite(res.x_final))
        assert np.all(np.isfinite(res.error_trace))
        assert res.x_final[0] < -20.0
        assert market.evaluate(res.x_final).shares[0] < 1e-9

    def test_objective_decreases_at_accepted_iterates(self):
        market, x_star, sigma_star = di.make_logit_instance(5, 2, 60, seed=9)
        recorder = RecordingModel(market)
        x0 = x_star + di.perturb_start(x_star, 20.0, seed=0)
        res = di.invert(recorder, sigma_star, "convex_tr", x0=x0)
        assert res.converged
        # eval_trace[k] counts evaluations made by acceptance of iterate k, so
        # the k-th accepted point is the last evaluation in that prefix
        accepted = [recorder.xs[count - 1] for count in res.eval_trace]
        assert np.array_equal(accepted[-1], res.x_final)
        fs = [di.convex_objective(market, sigma_star, x)[0] for x in accepted]
        for k in range(len(fs) - 1):
            if res.error_trace[k] > 1e-6:
                assert fs[k + 1] < fs[k]
            else:
                # at round-off scale ties are admissible, increases are not
                assert fs[k + 1] <= fs[k] + 1e-14 * max(1.0, abs(fs[k]))

    def test_eval_accounting(self):
        market, _, sigma_star = di.make_logit_instance(4, 2, 30, seed=2)
        res = di.invert(market, sigma_star, "convex_tr")
        counts = res.eval_counts
        assert counts["welfare"] == counts["shares"] == counts["jacobian"]
        assert res.eval_trace[0] == 1
        assert np.all(np.diff(res.eval_trace) >= 1)
        assert counts["welfare"] >= res.eval_trace[-1]


class TestResidualTrustRegion:
    def test_recovers_truth_from_close_start(self):
        for seed in (0, 4, 8):
            market, x_star, sigma_star = di.make_logit_instance(5, 2, 60, seed=seed)
            x0 = x_star + di.perturb_start(x_star, 0.1, seed=seed)
            res = di.invert(market, sigma_star, "residual_tr", x0=x0)
            assert res.converged
            assert res.iterations_used <= 15
            assert np.max(np.abs(res.x_final - x_star)) < 1e-10

    def test_locally_quadratic_tail(self):
        market, x_star, sigma_star = di.make_logit_instance(4, 2, 50, seed=6)
        x0 = x_star + di.perturb_start(x_star, 0.5, seed=1)
        res = di.invert(market, sigma_star, "residual_tr", x0=x0)
        assert res.converged
        trace = res.error_trace
        in_basin = np.flatnonzero(trace < 1e-4)
        assert in_basin.size >= 1
        k = in_basin[0]
        while k + 1 < len(trace) and trace[k] > 1e-13:
            # each Newton step at least squares the error, up to a constant
            assert trace[k + 1] <= max(100.0 * trace[k] ** 2, 1e-13)
            k += 1

    def test_stalls_on_degenerate_purechar(self):
        # known hard instance: the Gauss-Newton model goes blind where the
        # Jacobian loses rank, the convex method still gets through
        market, x_star, sigma_star = di.make_purechar_instance(6, 3, 50, seed=4)
        x0 = x_star + di.perturb_start(x_star, 20.0, seed=0)
        cfg = di.SolverConfig(max_iterations=200)
        res = di.invert(market, sigma_star, "residual_tr", x0=x0, cfg=cfg)
        ref = di.invert(market, sigma_star, "convex_tr", x0=x0, cfg=cfg)
        assert not res.converged
        assert res.error_trace[-1] > 1e-6
        assert ref.error_trace[-1] < 1e-12

    def test_state_reports_both_norms_of_the_residual(self):
        # err is the max norm that the trace records; the round-off guard's scale
        # is the 1-norm
        market, x_star, sigma_star = di.make_purechar_instance(6, 3, 50, seed=4)
        state = _residual_state(market, sigma_star)
        for x in (x_star + 0.5, x_star - 2.0):
            r = market.evaluate(x).shares - sigma_star
            f, _, _, err, scale = state(x)
            assert f == 0.5 * float(r @ r)
            assert (err, scale) == (float(np.abs(r).max()), float(np.abs(r).sum()))

    def test_eval_accounting(self):
        market, _, sigma_star = di.make_logit_instance(4, 2, 30, seed=2)
        res = di.invert(market, sigma_star, "residual_tr")
        counts = res.eval_counts
        assert counts["welfare"] == 0
        assert counts["shares"] == counts["jacobian"]
        assert res.eval_trace[0] == 1


class TestWelfareReads:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_only_convex_tr_computes_welfare(self, family):
        market, x_star, sigma_star = FAMILIES[family].draw(4, 3, 30, seed=5)
        x0 = di.perturb_start(x_star, 1.0, seed=1)
        cfg = di.SolverConfig(max_iterations=40)
        for method in di.METHODS:
            model = WelfareCountingModel(market)
            res = di.invert(model, sigma_star, method, x0=x0, cfg=cfg)
            assert res.eval_counts["shares"] > 1
            assert model.welfare_computed == res.eval_counts["welfare"]
            assert (res.eval_counts["welfare"] > 0) == (method == "convex_tr")


class TestSharedContract:
    @pytest.mark.parametrize("method", di.METHODS)
    def test_trace_shape_and_monotonicity(self, method):
        market, x_star, sigma_star = di.make_logit_instance(4, 2, 40, seed=4)
        x0 = x_star + di.perturb_start(x_star, 5.0, seed=2)
        res = di.invert(market, sigma_star, method, x0=x0)
        trace = res.error_trace
        assert trace.shape == (res.iterations_used + 1,)
        assert np.all(np.diff(trace) <= 0.0)
        assert res.converged == (trace[-1] <= 1e-13)
        assert res.eval_trace.shape == (len(trace),)
        assert np.all(np.diff(res.eval_trace) >= 0)

    @pytest.mark.parametrize("method", di.METHODS)
    def test_x_final_achieves_reported_error(self, method):
        market, x_star, sigma_star = di.make_logit_instance(4, 2, 40, seed=4)
        x0 = x_star + di.perturb_start(x_star, 5.0, seed=2)
        res = di.invert(market, sigma_star, method, x0=x0)
        err = np.abs(market.evaluate(res.x_final).shares - sigma_star).max()
        assert err == res.error_trace[-1]

    @pytest.mark.parametrize("method", di.METHODS)
    def test_zero_iteration_budget(self, method):
        market, x_star, sigma_star = di.make_logit_instance(3, 2, 20, seed=0)
        cfg = di.SolverConfig(max_iterations=0)
        res = di.invert(market, sigma_star, method, cfg=cfg)
        assert not res.converged
        assert res.iterations_used == 0
        assert len(res.error_trace) == 1
        assert np.array_equal(res.x_final, np.zeros(3))

    @pytest.mark.parametrize("method", di.METHODS)
    def test_inputs_left_untouched_and_outputs_frozen(self, method):
        market, x_star, sigma_star = di.make_logit_instance(3, 2, 20, seed=1)
        x0 = x_star + 0.5
        x0_copy = x0.copy()
        target_copy = sigma_star.copy()
        res = di.invert(market, sigma_star, method, x0=x0)
        assert np.array_equal(x0, x0_copy)
        assert np.array_equal(sigma_star, target_copy)
        with pytest.raises(ValueError):
            res.x_final[0] = 0.0
        with pytest.raises(ValueError):
            res.error_trace[0] = 0.0

    @pytest.mark.parametrize("method", di.METHODS)
    def test_repeat_runs_bit_identical(self, method):
        market, x_star, sigma_star = di.make_logit_instance(3, 2, 20, seed=1)
        first = di.invert(market, sigma_star, method)
        second = di.invert(market, sigma_star, method)
        assert np.array_equal(first.x_final, second.x_final)
        assert np.array_equal(first.error_trace, second.error_trace)
        assert first.eval_counts == second.eval_counts

    @pytest.mark.parametrize("nan_from", [0, 1])
    @pytest.mark.parametrize("method", di.METHODS)
    def test_nan_shares_raise(self, method, nan_from):
        # no NaN reaches a solver unseen, at the start or at a trial point
        market, x_star, sigma_star = di.make_logit_instance(3, 2, 20, seed=1)
        model = NaNSharesModel(market, nan_from)
        with pytest.raises(di.InvalidInputError, match="shares must be a finite vector"):
            di.invert(model, sigma_star, method, x0=x_star + 0.5)
        assert model.calls == nan_from + 1

    def test_unknown_method_rejected(self):
        market, _, sigma_star = di.make_logit_instance(3, 2, 20, seed=1)
        with pytest.raises(di.InvalidInputError):
            di.invert(market, sigma_star, "newton")


class TestSolverContractProperty:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_random_markets_starts_and_budgets(self, data):
        family = data.draw(st.sampled_from(["logit", "purechar"]), label="family")
        J = data.draw(st.integers(1, 6), label="J")
        M = data.draw(st.integers(1, 3) if family == "logit" else st.integers(2, 3), label="M")
        n = data.draw(st.integers(1, 30), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        delta_norm = data.draw(st.sampled_from([0.0, 0.1, 5.0, 20.0]), label="delta_norm")
        budget = data.draw(st.integers(0, 30), label="budget")
        maker = di.make_logit_instance if family == "logit" else di.make_purechar_instance
        market, x_star, sigma_star = maker(J, M, n, seed=seed)
        x0 = di.perturb_start(x_star, delta_norm, seed=seed)
        assert_solver_contract(market, sigma_star, x0, di.SolverConfig(max_iterations=budget))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_tied_slopes_far_starts_and_zeroed_targets(self, data):
        # starts up to x* + 1e300 U[-1, 1] (beyond 720 the logit exp table has no
        # room), and targets with a zeroed coordinate, whose x* is at minus infinity
        family = data.draw(st.sampled_from(["logit", "purechar"]), label="family")
        J = data.draw(st.integers(1, 6), label="J")
        n = data.draw(st.integers(1, 30), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        if family == "purechar" and data.draw(st.booleans(), label="tied"):
            z = np.column_stack([draw_tied_slopes(data, J), rng.standard_normal(J)])
            market = di.PureCharMarket(z=z, nu_rest=rng.standard_normal((n, 1)), beta=np.ones(2))
            x_star = rng.normal(scale=2.0, size=J)
            sigma_star = market.evaluate(x_star).shares
        else:
            maker = di.make_logit_instance if family == "logit" else di.make_purechar_instance
            market, x_star, sigma_star = maker(J, 2, n, seed=seed)
        if data.draw(st.booleans(), label="zeroed"):
            sigma_star = sigma_star.copy()
            sigma_star[data.draw(st.integers(0, J - 1), label="zeroed_coordinate")] = 0.0
        scale = data.draw(st.sampled_from([1.0, 30.0, 720.0, 1e20, 1e150, 1e300]), label="scale")
        x0 = x_star + scale * rng.uniform(-1.0, 1.0, J)
        budget = data.draw(st.integers(0, 30), label="budget")
        assert_solver_contract(market, sigma_star, x0, di.SolverConfig(max_iterations=budget))

    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_twenty_to_eighty_products(self, data):
        # J up to 80 puts the pure-characteristics bounds loop past 40 blocks and
        # each trust-region step on an 80 x 80 eigendecomposition
        family = data.draw(st.sampled_from(["logit", "purechar"]), label="family")
        J = data.draw(st.sampled_from([20, 40, 80]), label="J")
        n = data.draw(st.integers(1, 5), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        delta_norm = data.draw(st.sampled_from([0.0, 5.0, 20.0]), label="delta_norm")
        budget = data.draw(st.integers(0, 15), label="budget")
        maker = di.make_logit_instance if family == "logit" else di.make_purechar_instance
        market, x_star, sigma_star = maker(J, 3, n, seed=seed)
        x0 = di.perturb_start(x_star, delta_norm, seed=seed)
        assert_solver_contract(market, sigma_star, x0, di.SolverConfig(max_iterations=budget))


def assert_solver_contract(market, sigma_star, x0, cfg):
    """Every method from x0 toward sigma_star: contraction refuses a boundary
    target; otherwise no raise, a nonincreasing error trace within the trial
    budget that matches the shares at x_final, and a rerun with equal work."""
    interior = np.all(sigma_star > 0.0) and sigma_star.sum() < 1.0
    for method in di.METHODS:
        if method == "contraction" and not interior:
            with pytest.raises(di.UnsupportedTargetError):
                di.invert(market, sigma_star, method, x0=x0, cfg=cfg)
            continue
        res = di.invert(market, sigma_star, method, x0=x0, cfg=cfg)
        trace = res.error_trace
        assert trace.shape == (res.iterations_used + 1,)
        assert res.iterations_used <= cfg.max_iterations
        assert np.all(np.diff(trace) <= 0.0)
        assert res.converged == (trace[-1] <= cfg.gradient_tolerance)
        err = np.abs(market.evaluate(res.x_final).shares - sigma_star).max()
        assert abs(err - trace[-1]) <= 1e-15
        assert res.eval_trace[-1] <= res.eval_counts["shares"]
        again = di.invert(market, sigma_star, method, x0=x0, cfg=cfg)
        assert np.array_equal(again.x_final, res.x_final)
        assert np.array_equal(again.error_trace, trace)
        assert np.array_equal(again.eval_trace, res.eval_trace)
        assert again.eval_counts == res.eval_counts


class TestNewtonEquivalence:
    def test_interior_step_matches_residual_newton(self):
        # at interior points the convex model's step -H^{-1} g coincides with
        # the Newton-Raphson step on sigma(x) - sigma* since H = dsigma/dx
        market, x_star, sigma_star = di.make_logit_instance(5, 2, 60, seed=10)
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = x_star + rng.normal(scale=1.0, size=5)
            ev = market.evaluate(x, want_jacobian=True)
            g = ev.shares - sigma_star
            p_convex, _ = floored_step(g, ev.jacobian, 1e12)
            p_newton = -np.linalg.solve(ev.jacobian, g)
            assert np.max(np.abs(p_convex - p_newton)) <= 1e-10 * max(
                1.0, np.max(np.abs(p_newton))
            )


# Exact solver work on two small seeded markets, started at a norm-10
# perturbation of x*, per (family, method, trial budget): (eval_counts,
# iterations_used, eval_trace[0], eval_trace[-1]). With a budget of 5 the last
# trust-region trial is rejected, so eval_counts exceed eval_trace[-1]. Any
# change to how much a solver evaluates, or to how that work is counted,
# shows up here.
PINNED_WORK = {
    ("logit", "contraction", 60): ((0, 61, 0), 60, 1, 61),
    ("logit", "convex_tr", 5): ((6, 6, 6), 4, 1, 5),
    ("logit", "convex_tr", 60): ((12, 12, 12), 10, 1, 12),
    ("logit", "residual_tr", 5): ((0, 6, 6), 4, 1, 5),
    ("logit", "residual_tr", 60): ((0, 11, 11), 9, 1, 11),
    ("purechar", "contraction", 60): ((0, 1, 0), 0, 1, 1),
    ("purechar", "convex_tr", 5): ((6, 6, 6), 4, 1, 5),
    ("purechar", "convex_tr", 60): ((21, 21, 21), 16, 1, 21),
    ("purechar", "residual_tr", 60): ((0, 61, 61), 58, 1, 61),
}


@pytest.mark.parametrize("family, method, budget", sorted(PINNED_WORK), ids=str)
def test_pinned_solver_work(family, method, budget, monkeypatch):
    if family == "logit":
        market, x_star, sigma_star = di.make_logit_instance(4, 2, 30, seed=2)
    else:
        market, x_star, sigma_star = di.make_purechar_instance(4, 3, 30, seed=0)
    trials = []

    def checked_step(gt, lam, radius):
        """_tr_step, checked to reach the Cauchy decrease on the diag(lam) it was given."""
        p = _tr_step(gt, lam, radius)
        pred = -(float(gt @ p) + 0.5 * float(lam @ p**2))
        cauchy = cauchy_reduction(gt, np.diag(lam), radius)
        assert pred >= cauchy - 1e-9 * max(1.0, abs(cauchy))
        trials.append(radius)
        return p

    monkeypatch.setattr("demandinv.solvers._tr_step", checked_step)
    x0 = di.perturb_start(x_star, 10.0, seed=1)
    cfg = di.SolverConfig(max_iterations=budget)
    res = di.invert(market, sigma_star, method, x0=x0, cfg=cfg)
    counts, iterations, first, last = PINNED_WORK[(family, method, budget)]
    assert res.eval_counts == dict(zip(("welfare", "shares", "jacobian"), counts))
    assert res.iterations_used == iterations
    assert res.eval_trace[[0, -1]].tolist() == [first, last]
    # One step per trial, and every trial makes one evaluation after the start's.
    assert len(trials) == (0 if method == "contraction" else res.eval_counts["shares"] - 1)
