"""Random-coefficients logit: closed forms, the independent reference loop,
choice-simulation equivalence, stabilization, and instance construction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import demandinv as di
from oracles import (
    finite_difference_gradient,
    logit_reference,
    mc_logit_shares,
    mc_standard_errors,
)


def zero_z_market(J, n=4, M=2):
    return di.LogitMarket(z=np.zeros((J, M)), nu=np.ones((n, M)), beta=np.zeros(M))


class TestClosedForms:
    def test_single_product_at_zero(self):
        ev = zero_z_market(1).evaluate([0.0], want_jacobian=True)
        assert_allclose(ev.welfare, np.log(2.0) + di.EULER_GAMMA, rtol=0, atol=1e-15)
        assert_allclose(ev.shares, [0.5], rtol=0, atol=1e-15)
        assert_allclose(ev.jacobian, [[0.25]], rtol=0, atol=1e-15)

    def test_two_products_symmetric(self):
        ev = zero_z_market(2).evaluate([0.0, 0.0], want_jacobian=True)
        assert_allclose(ev.shares, [1 / 3, 1 / 3], rtol=0, atol=1e-15)
        expected = np.array([[2 / 9, -1 / 9], [-1 / 9, 2 / 9]])
        assert_allclose(ev.jacobian, expected, rtol=0, atol=1e-15)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(14)
        for seed in (0, 1, 2):
            market, x_star, _ = di.make_logit_instance(3, 2, 50, seed=seed)
            x = x_star + rng.normal(size=3)
            ev = market.evaluate(x, want_jacobian=True)
            ref_w, ref_s, ref_j = logit_reference(market.z, market.nu, x)
            assert_allclose(ev.welfare, ref_w, rtol=0, atol=1e-12)
            assert_allclose(ev.shares, ref_s, rtol=0, atol=1e-12)
            assert_allclose(ev.jacobian, ref_j, rtol=0, atol=1e-12)

    def test_jacobian_matches_share_differences(self):
        market, x_star, _ = di.make_logit_instance(4, 2, 80, seed=3)
        x = x_star + 0.2
        jac = market.evaluate(x, want_jacobian=True).jacobian
        step = 1e-5
        for j in range(4):
            hi, lo = x.copy(), x.copy()
            hi[j] += step
            lo[j] -= step
            column = (market.evaluate(hi).shares - market.evaluate(lo).shares) / (2 * step)
            assert np.abs(column - jac[:, j]).max() <= 1e-6


class TestChoiceSimulation:
    def test_shares_match_simulated_choices(self):
        market, x_star, _ = di.make_logit_instance(3, 2, 40, seed=6)
        x = x_star + np.random.default_rng(5).normal(size=3)
        shares = market.evaluate(x).shares
        rounds = 1_000_000 // market.n
        simulated, total = mc_logit_shares(market.z, market.nu, x, rounds, seed=77)
        se = mc_standard_errors(shares, total)
        assert np.all(np.abs(simulated - shares) <= 3 * se)


class TestStabilization:
    def test_shift_invariance(self):
        market, x_star, _ = di.make_logit_instance(4, 2, 30, seed=9)
        x = x_star + 0.1
        # every consumer's best product beats the outside good here, so the
        # overflow shift max(0, max_q v_iq) is active for all of them; the
        # shifted evaluation must equal the unshifted reference loop
        assert np.all((market.nu @ market.z.T + x).max(axis=1) > 0.0)
        ev = market.evaluate(x, want_jacobian=True)
        ref_w, ref_s, ref_j = logit_reference(market.z, market.nu, x)
        assert_allclose(ev.welfare, ref_w, rtol=0, atol=1e-13)
        assert_allclose(ev.shares, ref_s, rtol=0, atol=1e-14)
        assert_allclose(ev.jacobian, ref_j, rtol=0, atol=1e-14)

    def test_deep_underflow_is_exact_zero(self):
        market = zero_z_market(2)
        ev = market.evaluate([-760.0, 0.0])
        assert ev.shares[0] == 0.0
        assert np.isfinite(ev.welfare)

    def test_moderate_underflow_no_nan(self):
        ev = zero_z_market(2).evaluate([-700.0, 0.0], want_jacobian=True)
        assert np.all(np.isfinite(ev.shares)) and np.all(np.isfinite(ev.jacobian))
        assert ev.shares[0] < 1e-300

    def test_large_positive_no_overflow(self):
        ev = zero_z_market(2).evaluate([800.0, 0.0], want_jacobian=True)
        assert np.isfinite(ev.welfare)
        assert_allclose(ev.shares[0], 1.0, rtol=0, atol=1e-12)


class TestInvariants:
    def test_strictly_positive_and_interior(self):
        market, x_star, _ = di.make_logit_instance(5, 3, 60, seed=13)
        rng = np.random.default_rng(2)
        for _ in range(10):
            shares = market.evaluate(x_star + rng.normal(scale=3, size=5)).shares
            assert np.all(shares > 0.0)
            assert shares.sum() < 1.0

    def test_jacobian_row_sums(self):
        market, x_star, _ = di.make_logit_instance(4, 2, 50, seed=21)
        x = x_star - 0.3
        jac = market.evaluate(x, want_jacobian=True).jacobian
        v = market.nu @ market.z.T + x
        expv = np.exp(v)
        probs = expv / (1.0 + expv.sum(axis=1))[:, None]
        outside = 1.0 - probs.sum(axis=1)
        expected = probs.T @ outside / market.n
        assert_allclose(jac.sum(axis=1), expected, rtol=0, atol=1e-14)
        assert np.all(jac.sum(axis=1) >= 0.0)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_random_markets_and_utilities(self, data):
        J = data.draw(st.integers(1, 12), label="J")
        M = data.draw(st.integers(1, 4), label="M")
        n = data.draw(st.integers(1, 40), label="n")
        scale = data.draw(st.sampled_from([1.0, 10.0, 1e3, 1e20, 1e200]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        market = di.LogitMarket(
            z=rng.standard_normal((J, M)), nu=rng.standard_normal((n, M)), beta=np.ones(M)
        )
        x = scale * rng.uniform(-1.0, 1.0, J)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = market.evaluate(x, want_jacobian=True)
        assert np.isfinite(ev.welfare)
        assert np.all(ev.shares >= 0.0)
        assert ev.shares.sum() <= 1.0 + 1e-12
        jac = ev.jacobian
        assert np.array_equal(jac, jac.T)
        assert np.all(jac - np.diag(np.diag(jac)) <= 0.0)
        assert np.all(jac.sum(axis=1) >= -1e-15)
        if np.max(np.abs(market.nu @ market.z.T + x)) <= 30.0:
            ref_w, ref_s, ref_j = logit_reference(market.z, market.nu, x)
            assert abs(ev.welfare - ref_w) <= 1e-13 * max(1.0, abs(ref_w))
            assert np.max(np.abs(ev.shares - ref_s)) <= 1e-13
            assert np.max(np.abs(jac - ref_j)) <= 1e-13
            gradient = finite_difference_gradient(market, x)
            assert np.max(np.abs(gradient - ev.shares)) <= 1e-7


class TestInstanceConstruction:
    def test_same_seed_bit_identical(self):
        a_market, a_x, a_s = di.make_logit_instance(6, 3, 40, seed=11)
        b_market, b_x, b_s = di.make_logit_instance(6, 3, 40, seed=11)
        assert np.array_equal(a_market.z, b_market.z)
        assert np.array_equal(a_market.nu, b_market.nu)
        assert np.array_equal(a_market.beta, b_market.beta)
        assert np.array_equal(a_x, b_x) and np.array_equal(a_s, b_s)

    def test_substreams_isolate_entities(self):
        # growing n must not perturb beta or z
        small, _, _ = di.make_logit_instance(6, 3, 40, seed=11)
        large, _, _ = di.make_logit_instance(6, 3, 80, seed=11)
        assert np.array_equal(small.z, large.z)
        assert np.array_equal(small.beta, large.beta)

    def test_truth_is_consistent(self):
        market, x_star, sigma_star = di.make_logit_instance(5, 2, 30, seed=4)
        assert_allclose(x_star, market.z @ market.beta, rtol=0, atol=0)
        assert np.array_equal(market.evaluate(x_star).shares, sigma_star)
        assert np.all(sigma_star > 0.0)

    def test_single_consumer_hand_computation(self):
        market, x_star, sigma_star = di.make_logit_instance(2, 1, 1, seed=7)
        u = x_star + market.nu[0, 0] * market.z[:, 0]
        expu = np.exp(u)
        assert_allclose(sigma_star, expu / (1.0 + expu.sum()), rtol=0, atol=1e-15)

    def test_seed_sequence_accepted(self):
        root = np.random.SeedSequence([5, 2, 0])
        a = di.make_logit_instance(3, 2, 10, seed=root)[0]
        b = di.make_logit_instance(3, 2, 10, seed=np.random.SeedSequence([5, 2, 0]))[0]
        assert np.array_equal(a.z, b.z)

    def test_validation(self):
        with pytest.raises(di.InvalidInputError):
            di.make_logit_instance(0, 2, 10, seed=1)
        with pytest.raises(di.InvalidInputError):
            di.LogitMarket(z=np.zeros((2, 2)), nu=np.zeros((3, 1)), beta=np.zeros(2))
        with pytest.raises(di.InvalidInputError):
            di.LogitMarket(z=np.full((2, 2), np.nan), nu=np.zeros((3, 2)), beta=np.zeros(2))

    def test_arrays_frozen_and_beta_inert(self):
        market, _, _ = di.make_logit_instance(3, 2, 10, seed=1)
        with pytest.raises(ValueError):
            market.z[0, 0] = 5.0
        other = di.LogitMarket(z=market.z, nu=market.nu, beta=np.zeros(2))
        x = np.array([0.1, -0.2, 0.3])
        assert market.evaluate(x).welfare == other.evaluate(x).welfare
