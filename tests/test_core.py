"""Evaluator contract: validators, objective anchors, and the shared
gradient/convexity/monotonicity properties both model families must satisfy."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import demandinv as di
from oracles import finite_difference_gradient


def plain_logit_1d(n=3):
    return di.LogitMarket(z=np.zeros((1, 1)), nu=np.zeros((n, 1)), beta=np.zeros(1))


def family_instances(seed):
    logit = di.make_logit_instance(4, 2, 60, seed=seed)[0]
    purechar = di.make_purechar_instance(4, 3, 60, seed=seed)[0]
    return [logit, purechar]


class TestValidators:
    def test_mean_utility_roundtrip(self):
        x = di.as_mean_utility([1.0, -2.5], 2)
        assert x.dtype == np.float64 and x.shape == (2,)

    def test_mean_utility_rejects_nonfinite(self):
        with pytest.raises(di.InvalidInputError):
            di.as_mean_utility([1.0, np.nan])
        with pytest.raises(di.InvalidInputError):
            di.as_mean_utility([np.inf])

    def test_mean_utility_dimension_check(self):
        with pytest.raises(di.InvalidInputError):
            di.as_mean_utility([1.0, 2.0], 3)
        with pytest.raises(di.InvalidInputError):
            di.as_mean_utility([[1.0, 2.0]])

    def test_share_vector_accepts_boundary(self):
        di.as_share_vector([0.0, 1.0])
        di.as_share_vector([0.25, 0.25], 2)

    def test_share_vector_names_negative_coordinate(self):
        with pytest.raises(di.InvalidInputError, match="coordinate 1"):
            di.as_share_vector([0.2, -0.1])

    def test_share_vector_rejects_excess_sum(self):
        with pytest.raises(di.InvalidInputError, match="sum"):
            di.as_share_vector([0.7, 0.7])
        # round-off slack is absorbed
        di.as_share_vector([0.5, 0.5 + 1e-15])

    def test_share_vector_rejects_nonfinite(self):
        with pytest.raises(di.InvalidInputError):
            di.as_share_vector([np.nan, 0.1])

    def test_model_evaluation_validates(self):
        with pytest.raises(di.InvalidInputError):
            di.ModelEvaluation(np.nan, np.array([0.5]))
        with pytest.raises(di.InvalidInputError):
            di.ModelEvaluation(1.0, np.array([0.5]), np.zeros((2, 2)))
        ev = di.ModelEvaluation(1.0, np.array([0.5]), np.array([[0.25]]))
        assert ev.jacobian.shape == (1, 1)


class TestConvexObjective:
    def test_plain_logit_anchor_at_zero(self):
        value, gradient, hessian = di.convex_objective(plain_logit_1d(), [0.5], [0.0])
        assert_allclose(value, np.log(2.0) + di.EULER_GAMMA, rtol=0, atol=1e-15)
        assert_allclose(gradient, [0.0], atol=1e-15)
        assert_allclose(hessian, [[0.25]], rtol=0, atol=1e-15)

    def test_plain_logit_anchor_at_two(self):
        _, gradient, hessian = di.convex_objective(plain_logit_1d(), [0.5], [2.0])
        expected = np.exp(2.0) / (1.0 + np.exp(2.0)) - 0.5
        assert_allclose(gradient, [expected], rtol=0, atol=1e-15)
        assert hessian.shape == (1, 1)

    def test_matches_reference_loop(self):
        from oracles import logit_reference

        market, x_star, _ = di.make_logit_instance(3, 2, 50, seed=8)
        rng = np.random.default_rng(0)
        for _ in range(3):
            x = x_star + rng.normal(size=3)
            target = np.full(3, 0.2)
            value, gradient, _ = di.convex_objective(market, target, x)
            ref_w, ref_s, _ = logit_reference(market.z, market.nu, x)
            assert_allclose(value, ref_w - x @ target, rtol=0, atol=1e-12)
            assert_allclose(gradient, ref_s - target, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(di.InvalidInputError):
            di.convex_objective(plain_logit_1d(), [0.5, 0.5], [0.0])
        with pytest.raises(di.InvalidInputError):
            di.convex_objective(plain_logit_1d(), [0.5], [0.0, 0.0])


class TestFiniteDifferenceGradient:
    def test_plain_logit_half(self):
        fd = finite_difference_gradient(plain_logit_1d(), [0.0], step=1e-5)
        assert_allclose(fd, [0.5], rtol=0, atol=1e-9)

    def test_purechar_slope_one(self):
        market = di.PureCharMarket(
            z=np.array([[1.0, 0.0]]), nu_rest=np.zeros((2, 1)), beta=np.array([1.0, 0.5])
        )
        fd = finite_difference_gradient(market, [0.0], step=1e-5)
        assert_allclose(fd, [0.5], rtol=0, atol=1e-7)

    def test_gradient_identity_both_families(self):
        # FD of welfare equals shares: 20 random points per model
        for model in family_instances(seed=31):
            rng = np.random.default_rng(17)
            for _ in range(20):
                x = rng.normal(scale=1.5, size=model.J)
                shares = model.evaluate(x).shares
                fd = finite_difference_gradient(model, x, step=1e-5)
                tol = 1e-5 * (1.0 + np.abs(shares).max())
                assert np.abs(fd - shares).max() <= tol


class TestSharedModelProperties:
    def test_welfare_convex_along_segments(self):
        for model in family_instances(seed=5):
            rng = np.random.default_rng(23)
            for _ in range(25):
                x1 = rng.normal(scale=2.0, size=model.J)
                x2 = rng.normal(scale=2.0, size=model.J)
                t = rng.random()
                mid = model.evaluate(t * x1 + (1 - t) * x2).welfare
                chord = t * model.evaluate(x1).welfare + (1 - t) * model.evaluate(x2).welfare
                assert mid <= chord + 1e-10

    def test_share_monotonicity(self):
        for model in family_instances(seed=12):
            rng = np.random.default_rng(3)
            for _ in range(10):
                x = rng.normal(size=model.J)
                j = rng.integers(model.J)
                base = model.evaluate(x).shares
                bumped_x = x.copy()
                bumped_x[j] += 0.5
                bumped = model.evaluate(bumped_x).shares
                assert bumped[j] >= base[j] - 1e-14
                others = np.delete(np.arange(model.J), j)
                assert np.all(bumped[others] <= base[others] + 1e-14)

    def test_share_vanishes_far_left(self):
        for model in family_instances(seed=9):
            x = np.zeros(model.J)
            x[0] = -50.0
            assert model.evaluate(x).shares[0] <= 1e-12
            x[0] = -1e6
            ev = model.evaluate(x, want_jacobian=True)
            assert np.all(np.isfinite(ev.shares)) and np.isfinite(ev.welfare)
            assert ev.shares[0] <= 1e-300

    def test_jacobian_symmetric_psd(self):
        for model in family_instances(seed=44):
            rng = np.random.default_rng(7)
            for _ in range(6):
                jac = model.evaluate(rng.normal(size=model.J), want_jacobian=True).jacobian
                assert np.abs(jac - jac.T).max() <= 1e-10
                assert np.linalg.eigvalsh(jac).min() >= -1e-8

    def test_evaluate_deterministic(self):
        for model in family_instances(seed=2):
            x = np.linspace(-1, 1, model.J)
            first = model.evaluate(x, want_jacobian=True)
            second = model.evaluate(x, want_jacobian=True)
            assert first.welfare == second.welfare
            assert np.array_equal(first.shares, second.shares)
            assert np.array_equal(first.jacobian, second.jacobian)

    def test_shares_live_on_simplex(self):
        for model in family_instances(seed=20):
            rng = np.random.default_rng(1)
            for _ in range(10):
                shares = model.evaluate(rng.normal(scale=3.0, size=model.J)).shares
                assert np.all(shares >= 0.0)
                assert shares.sum() <= 1.0 + 1e-14
