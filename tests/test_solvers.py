"""Inversion solvers: contraction fixed point, convex trust-region Newton,
and residual Gauss-Newton, plus the shared trust-region step machinery."""

import numpy as np
import pytest

import demandinv as di
from demandinv.solvers import _tr_step


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


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = di.SolverConfig()
        assert cfg.max_iterations == 500
        assert cfg.gradient_tolerance == 1e-13
        assert cfg.initial_radius == 1.0
        assert cfg.radius_max == 1e6
        assert cfg.accept_ratio == 0.1
        assert cfg.expand_ratio == 0.75
        assert cfg.shrink_factor == 0.25
        assert cfg.expand_factor == 2.0
        assert cfg.regularization_floor == 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": -1},
            {"gradient_tolerance": 0.0},
            {"initial_radius": 0.0},
            {"radius_max": -1.0},
            {"accept_ratio": 0.0},
            {"accept_ratio": 0.3},
            {"accept_ratio": 0.2, "expand_ratio": 0.1},
            {"shrink_factor": 1.0},
            {"expand_factor": 1.0},
            {"regularization_floor": 0.0},
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
            p = _tr_step(g, B, 1e12)
            newton = -np.linalg.solve(B, g)
            assert np.max(np.abs(p - newton)) <= 1e-10 * max(1.0, np.max(np.abs(newton)))

    def test_small_radius_follows_steepest_descent(self):
        B = np.diag([1.0, 4.0])
        g = np.array([3.0, 4.0])
        radius = 1e-3
        p = _tr_step(g, B, radius)
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
            p = _tr_step(g, B, radius)
            assert np.linalg.norm(p) <= radius * (1 + 1e-12)
            reduction = -(g @ p + 0.5 * p @ (B @ p))
            assert reduction > 0.0


class TestContraction:
    def test_converges_on_logit(self):
        market, x_star, sigma_star = di.make_logit_instance(4, 2, 50, seed=3)
        res = di.contraction_invert(market, sigma_star)
        assert res.converged
        assert np.max(np.abs(res.x_final - x_star)) < 1e-10
        assert res.error_trace[-1] <= 1e-13

    def test_starting_at_truth_stops_immediately(self):
        market, x_star, sigma_star = di.make_logit_instance(3, 2, 20, seed=5)
        res = di.contraction_invert(market, sigma_star, x0=x_star)
        assert res.converged
        assert res.iterations_used == 0
        assert res.error_trace.shape == (1,)
        assert np.array_equal(res.x_final, x_star)

    def test_rejects_boundary_targets(self):
        market = plain_logit(2)
        with pytest.raises(di.UnsupportedTargetError):
            di.contraction_invert(market, np.array([0.0, 0.5]))
        with pytest.raises(di.UnsupportedTargetError):
            di.contraction_invert(market, np.array([0.5, 0.5]))

    def test_zero_model_share_ends_run(self):
        # a pure characteristics model gives exact-zero shares in deep tails,
        # where the log update is undefined
        market, x_star, sigma_star = di.make_purechar_instance(4, 3, 30, seed=3)
        assert np.all(sigma_star > 0.0) and sigma_star.sum() < 1.0
        x0 = np.full(4, -400.0)  # deep enough that every tail mass underflows
        assert np.array_equal(market.evaluate(x0).shares, np.zeros(4))
        res = di.contraction_invert(market, sigma_star, x0=x0)
        assert not res.converged
        assert res.iterations_used == 0
        assert res.eval_counts == {"welfare": 0, "shares": 1, "jacobian": 0}

    def test_eval_accounting(self):
        market, _, sigma_star = di.make_logit_instance(3, 2, 25, seed=8)
        res = di.contraction_invert(market, sigma_star)
        assert res.eval_counts["welfare"] == 0
        assert res.eval_counts["jacobian"] == 0
        assert res.eval_counts["shares"] == len(res.error_trace)
        assert tuple(res.eval_trace[0]) == (0, 1, 0)
        assert tuple(res.eval_trace[-1]) == (0, len(res.error_trace), 0)


class TestConvexTrustRegion:
    def test_one_dimensional_logit(self):
        market = plain_logit(1)
        target = np.array([0.3])
        res = di.convex_trust_region_invert(market, target)
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
        cfg = di.SolverConfig(initial_radius=1e3)
        res = di.convex_trust_region_invert(model, target, cfg=cfg)
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
                res = di.convex_trust_region_invert(market, sigma_star, x0=x0)
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
        res = di.convex_trust_region_invert(market, target, cfg=cfg)
        assert np.all(np.isfinite(res.x_final))
        assert np.all(np.isfinite(res.error_trace))
        assert res.x_final[0] < -20.0
        assert market.evaluate(res.x_final).shares[0] < 1e-9

    def test_objective_decreases_at_accepted_iterates(self):
        market, x_star, sigma_star = di.make_logit_instance(5, 2, 60, seed=9)
        recorder = RecordingModel(market)
        x0 = x_star + di.perturb_start(x_star, 20.0, seed=0)
        res = di.convex_trust_region_invert(recorder, sigma_star, x0=x0)
        assert res.converged
        # eval_trace[k] counts evaluations made by acceptance of iterate k, so
        # the k-th accepted point is the last evaluation in that prefix
        accepted = [recorder.xs[count - 1] for count in res.eval_trace[:, 0]]
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
        res = di.convex_trust_region_invert(market, sigma_star)
        counts = res.eval_counts
        assert counts["welfare"] == counts["shares"] == counts["jacobian"]
        assert tuple(res.eval_trace[0]) == (1, 1, 1)
        assert np.all(np.diff(res.eval_trace, axis=0) >= 1)
        final = res.eval_trace[-1]
        assert counts["welfare"] >= final[0]


class TestResidualTrustRegion:
    def test_recovers_truth_from_close_start(self):
        for seed in (0, 4, 8):
            market, x_star, sigma_star = di.make_logit_instance(5, 2, 60, seed=seed)
            x0 = x_star + di.perturb_start(x_star, 0.1, seed=seed)
            res = di.residual_trust_region_invert(market, sigma_star, x0=x0)
            assert res.converged
            assert res.iterations_used <= 15
            assert np.max(np.abs(res.x_final - x_star)) < 1e-10

    def test_locally_quadratic_tail(self):
        market, x_star, sigma_star = di.make_logit_instance(4, 2, 50, seed=6)
        x0 = x_star + di.perturb_start(x_star, 0.5, seed=1)
        res = di.residual_trust_region_invert(market, sigma_star, x0=x0)
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
        res = di.residual_trust_region_invert(market, sigma_star, x0=x0, cfg=cfg)
        ref = di.convex_trust_region_invert(market, sigma_star, x0=x0, cfg=cfg)
        assert not res.converged
        assert res.error_trace[-1] > 1e-6
        assert ref.error_trace[-1] < 1e-12

    def test_eval_accounting(self):
        market, _, sigma_star = di.make_logit_instance(4, 2, 30, seed=2)
        res = di.residual_trust_region_invert(market, sigma_star)
        counts = res.eval_counts
        assert counts["welfare"] == 0
        assert counts["shares"] == counts["jacobian"]
        assert tuple(res.eval_trace[0]) == (0, 1, 1)


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
        assert res.eval_trace.shape == (len(trace), 3)
        assert np.all(np.diff(res.eval_trace, axis=0) >= 0)

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

    def test_unknown_method_rejected(self):
        market, _, sigma_star = di.make_logit_instance(3, 2, 20, seed=1)
        with pytest.raises(di.InvalidInputError):
            di.invert(market, sigma_star, "newton")

    def test_dispatcher_matches_direct_calls(self):
        market, _, sigma_star = di.make_logit_instance(3, 2, 20, seed=1)
        direct = di.convex_trust_region_invert(market, sigma_star)
        via = di.invert(market, sigma_star, "convex_tr")
        assert np.array_equal(direct.x_final, via.x_final)


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
            p_convex = _tr_step(g, ev.jacobian, 1e12)
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
    ("logit", "contraction", 60): ((0, 61, 0), 60, (0, 1, 0), (0, 61, 0)),
    ("logit", "convex_tr", 5): ((6, 6, 6), 4, (1, 1, 1), (5, 5, 5)),
    ("logit", "convex_tr", 60): ((12, 12, 12), 10, (1, 1, 1), (12, 12, 12)),
    ("logit", "residual_tr", 5): ((0, 6, 6), 4, (0, 1, 1), (0, 5, 5)),
    ("logit", "residual_tr", 60): ((0, 11, 11), 9, (0, 1, 1), (0, 11, 11)),
    ("purechar", "contraction", 60): ((0, 1, 0), 0, (0, 1, 0), (0, 1, 0)),
    ("purechar", "convex_tr", 5): ((6, 6, 6), 4, (1, 1, 1), (5, 5, 5)),
    ("purechar", "convex_tr", 60): ((22, 22, 22), 17, (1, 1, 1), (22, 22, 22)),
    ("purechar", "residual_tr", 60): ((0, 61, 61), 60, (0, 1, 1), (0, 61, 61)),
}


@pytest.mark.parametrize("family, method, budget", sorted(PINNED_WORK), ids=str)
def test_pinned_solver_work(family, method, budget):
    if family == "logit":
        market, x_star, sigma_star = di.make_logit_instance(4, 2, 30, seed=2)
    else:
        market, x_star, sigma_star = di.make_purechar_instance(4, 3, 30, seed=0)
    x0 = di.perturb_start(x_star, 10.0, seed=1)
    cfg = di.SolverConfig(max_iterations=budget)
    res = di.invert(market, sigma_star, method, x0=x0, cfg=cfg)
    counts, iterations, first, last = PINNED_WORK[(family, method, budget)]
    assert res.eval_counts == dict(zip(("welfare", "shares", "jacobian"), counts))
    assert res.iterations_used == iterations
    assert res.eval_trace[[0, -1]].tolist() == [list(first), list(last)]
