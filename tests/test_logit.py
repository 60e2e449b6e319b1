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
    logit_decimal_reference,
    logit_reference,
    mc_logit_shares,
    mc_standard_errors,
)


def zero_z_market(J, n=4, M=2):
    return di.LogitMarket(z=np.zeros((J, M)), nu=np.ones((n, M)), beta=np.zeros(M))


def assert_matches_reference_loop(market, x, ev):
    """ev, an evaluation at x with the Jacobian, agrees with logit_reference to 1e-13."""
    ref_w, ref_s, ref_j = logit_reference(market.z, market.nu, x)
    assert abs(ev.welfare - ref_w) <= 1e-13 * max(1.0, abs(ref_w))
    assert np.max(np.abs(ev.shares - ref_s)) <= 1e-13
    assert np.max(np.abs(ev.jacobian - ref_j)) <= 1e-13


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

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_jacobian_psd_on_random_markets(self, data):
        # the trust-region floor assumes a Jacobian PSD up to round-off
        J = data.draw(st.integers(1, 12), label="J")
        M = data.draw(st.integers(1, 4), label="M")
        n = data.draw(st.integers(1, 40), label="n")
        scale = data.draw(st.sampled_from([1.0, 10.0, 1e3, 1e20, 1e200]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        z = rng.standard_normal((J, M))
        if data.draw(st.booleans(), label="duplicates"):
            z = z[rng.integers(0, J, J)]  # identical products: a singular Jacobian
        market = di.LogitMarket(z=z, nu=rng.standard_normal((n, M)), beta=np.ones(M))
        jac = market.evaluate(scale * rng.uniform(-1.0, 1.0, J), want_jacobian=True).jacobian
        assert np.linalg.eigvalsh(jac)[0] >= -1e-13 * np.max(np.abs(jac))


class TestAccuracy:
    """Round-off against the 40-digit reference on seeded small markets
    (J <= 6, M <= 3, n <= 40), in units of eps = 2^-52.

    Shares are measured relative to each share and absolutely, the welfare
    relative to max(1, |W|), the Jacobian relative to its largest entry. The
    largest errors over these markets, measured before and after the
    evaluator took the exp(z nu') table, were (before / after):

    - |x| <= 30: welfare 1.49 / 1.50, shares 21.7 / 2.8 relative and
      1.0 / 1.0 absolute, Jacobian 16.2 / 2.9;
    - x = 705 +- 5, beyond the table's room, where both use the shifted
      code: welfare 1.46, shares 254 relative and 49 absolute, Jacobian 175.
      Rounding x + z nu' near 705 to a double alone moves each exp by up to
      256 eps.

    The bounds below leave room over both.
    """

    EPS = np.finfo(float).eps
    # x = centre + scale * Uniform[-1, 1]^J, per (centre, scale)
    POINTS = {"moderate": [(0.0, 1.0), (0.0, 10.0), (0.0, 30.0)], "beyond_room": [(705.0, 5.0)]}
    BOUNDS = {  # welfare, shares relative, shares absolute, Jacobian
        "moderate": (3.0, 32.0, 3.0, 24.0),
        "beyond_room": (3.0, 384.0, 96.0, 256.0),
    }

    @pytest.mark.parametrize("points", sorted(BOUNDS))
    def test_round_off_within_bounds(self, points):
        worst = np.zeros(4)
        for seed in range(60):
            rng = np.random.default_rng([seed, 7])
            J, M, n = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 41))
            market = di.LogitMarket(
                z=rng.standard_normal((J, M)), nu=rng.standard_normal((n, M)), beta=np.ones(M)
            )
            for centre, scale in self.POINTS[points]:
                x = centre + scale * rng.uniform(-1.0, 1.0, J)
                ev = market.evaluate(x, want_jacobian=True)
                ref_w, ref_s, ref_j = logit_decimal_reference(market.z, market.nu, x)
                errors = (
                    abs(ev.welfare - ref_w) / max(1.0, abs(ref_w)),
                    np.max(np.abs(ev.shares - ref_s) / ref_s),
                    np.max(np.abs(ev.shares - ref_s)),
                    np.max(np.abs(ev.jacobian - ref_j)) / np.max(np.abs(ref_j)),
                )
                worst = np.maximum(worst, np.array(errors) / self.EPS)
        assert np.all(worst <= self.BOUNDS[points]), worst


class TestCachedUtilities:
    """evaluate works on the (J, n) utilities z nu' that the market caches, and
    on the table E = exp(z nu') wherever max|z nu'| + max|x| <= 700 - log(J + 1)."""

    @staticmethod
    def instance():
        return di.make_logit_instance(10, 3, 200, seed=31)

    def test_repeat_calls_bit_identical(self):
        market, x_star, _ = self.instance()
        x = x_star + 0.3
        first = market.evaluate(x, want_jacobian=True)
        second = market.evaluate(x, want_jacobian=True)
        assert first.welfare == second.welfare
        assert np.array_equal(first.shares, second.shares)
        assert np.array_equal(first.jacobian, second.jacobian)
        shares_only = market.evaluate(x)
        assert shares_only.welfare == first.welfare
        assert np.array_equal(shares_only.shares, first.shares)

    def test_cache_read_only_and_unchanged(self):
        market, x_star, _ = self.instance()
        cache = market._zn
        assert cache.shape == (market.J, market.n) and cache.flags.c_contiguous
        assert not cache.flags.writeable
        before = cache.copy()
        for offset in (50.0, -30.0):
            market.evaluate(x_star + offset)
            market.evaluate(x_star + offset, want_jacobian=True)
        assert np.array_equal(cache, before)
        assert_allclose(cache, market.z @ market.nu.T, rtol=0, atol=1e-13)
        with pytest.raises(ValueError):
            cache[0, 0] = 1.0

    @pytest.mark.parametrize("offset", [0.3, 50.0, -30.0])
    def test_matches_reference_loop(self, offset):
        market, x_star, _ = self.instance()
        x = x_star + offset
        ev = market.evaluate(x, want_jacobian=True)
        ref_w, ref_s, ref_j = logit_reference(market.z, market.nu, x)
        assert abs(ev.welfare - ref_w) <= 1e-13 * max(1.0, abs(ref_w))
        assert np.max(np.abs(ev.shares - ref_s)) <= 1e-13
        assert np.max(np.abs(ev.jacobian - ref_j)) <= 1e-13

    @staticmethod
    def room(market):
        """The largest max|x| the table serves: 700 - log(J + 1) - max|z nu'|."""
        return 700.0 - float(np.log(market.J + 1.0) + np.abs(market._zn).max())

    def test_table_read_only_and_unchanged(self):
        market, x_star, _ = self.instance()
        table, cache = market._exp, market._zn
        assert table.shape == (market.J, market.n) and table.flags.c_contiguous
        assert not table.flags.writeable
        assert np.array_equal(table, np.exp(cache))
        before = table.copy(), cache.copy()
        assert np.abs(x_star + 0.3).max() <= self.room(market) < np.abs(x_star + 800.0).max()
        for offset in (0.3, 800.0):  # the table's side of the guard, then the shifted side
            market.evaluate(x_star + offset)
            market.evaluate(x_star + offset, want_jacobian=True)
        assert np.array_equal(table, before[0]) and np.array_equal(cache, before[1])
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("side", ["inside", "outside"])
    def test_each_side_of_the_guard_matches_reference_loop(self, side):
        market, _, _ = di.make_logit_instance(5, 2, 30, seed=3)
        room = self.room(market)
        top = room if side == "inside" else np.nextafter(room, np.inf)
        x = top - 0.5 * np.arange(market.J)  # max|x| is top
        # poison the cache the other side reads, so a wrong side shows as NaN
        poisoned = di.LogitMarket(z=market.z, nu=market.nu, beta=market.beta)
        other = "_zn" if side == "inside" else "_exp"
        object.__setattr__(poisoned, other, np.full((market.J, market.n), np.nan))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = market.evaluate(x, want_jacobian=True)
            ev_poisoned = poisoned.evaluate(x, want_jacobian=True)
            assert ev_poisoned.welfare == ev.welfare
        assert np.array_equal(ev_poisoned.shares, ev.shares)
        assert np.array_equal(ev_poisoned.jacobian, ev.jacobian)
        assert_matches_reference_loop(market, x, ev)

    @pytest.mark.parametrize("side", ["inside", "outside"])
    def test_shares_only_call_matches_jacobian_call(self, side):
        market, _, _ = di.make_logit_instance(5, 2, 30, seed=3)
        room = self.room(market)
        top = room if side == "inside" else np.nextafter(room, np.inf)
        x = top - 0.5 * np.arange(market.J)  # max|x| is top
        for y in (x, -x):
            full = market.evaluate(y, want_jacobian=True)
            part = market.evaluate(y)
            assert part.jacobian is None
            assert part.shares.tobytes() == full.shares.tobytes()
            assert np.float64(part.welfare).tobytes() == np.float64(full.welfare).tobytes()

    def test_many_products_near_the_room_do_not_overflow(self):
        # without the log(J + 1) headroom, 20,000 numerators of e^699.95 would
        # sum past the largest double
        J, x = 20_000, 699.95
        market = zero_z_market(J, n=1, M=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = market.evaluate(np.full(J, x))
            welfare = ev.welfare
        assert_allclose(ev.shares, 1.0 / (J + np.exp(-x)), rtol=1e-14, atol=0)
        assert_allclose(welfare, x + np.log(J) + di.EULER_GAMMA, rtol=1e-15, atol=0)

    def test_no_table_where_utilities_leave_no_room(self):
        market = di.LogitMarket(z=[[699.0], [0.0]], nu=[[1.0]], beta=[1.0])
        assert market._exp is None and self.room(market) < 0.0
        x = np.array([0.5, -0.5])
        ev = market.evaluate(x, want_jacobian=True)
        assert_matches_reference_loop(market, x, ev)


NONFINITE = "mean utility has NaN or infinite coordinates"

# A market whose table serves every x with max|x| <= its room, and one with no table.
GUARD_MARKETS = {
    "table": lambda: di.make_logit_instance(5, 2, 30, seed=3)[0],
    "no_table": lambda: di.LogitMarket(z=[[699.0], [0.0]], nu=[[1.0]], beta=[1.0]),
}


class TestNonFiniteUtilities:
    """One max|x| is both the table's guard and the finiteness check: NaN and
    infinities fail the guard and are rejected past it, with as_mean_utility's
    message, before any arithmetic."""

    @pytest.mark.parametrize("want", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", GUARD_MARKETS)
    def test_nonfinite_coordinate_rejected(self, kind, bad, want):
        market = GUARD_MARKETS[kind]()
        assert (market._exp is None) == (kind == "no_table")
        x = np.zeros(market.J)
        x[-1] = bad
        with pytest.raises(di.InvalidInputError) as info:
            market.evaluate(x, want_jacobian=want)
        assert str(info.value) == NONFINITE

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_beside_a_coordinate_past_the_room_rejected(self, bad):
        market = GUARD_MARKETS["table"]()
        x = np.zeros(market.J)
        x[0] = 2.0 * TestCachedUtilities.room(market)  # finite, on the fallback's side
        x[1] = bad
        with pytest.raises(di.InvalidInputError) as info:
            market.evaluate(x)
        assert str(info.value) == NONFINITE
        x[1] = 0.0
        assert np.isfinite(market.evaluate(x).shares).all()

    @pytest.mark.parametrize("kind", GUARD_MARKETS)
    def test_dimension_checked_before_finiteness(self, kind):
        market = GUARD_MARKETS[kind]()
        with pytest.raises(di.InvalidInputError) as info:
            market.evaluate(np.full(market.J + 1, np.nan))
        J = market.J
        assert str(info.value) == f"mean utility has dimension {J + 1}, expected {J}"


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

    @pytest.mark.parametrize(
        "z, nu",
        [([[1e200], [1.0]], [[1e200], [1.0]]), ([[1e200]], [[-1e200], [1.0]])],
        ids=["plus_inf", "minus_inf"],
    )
    def test_overflowing_utilities_rejected(self, z, nu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(di.InvalidInputError, match="overflows a double"):
                di.LogitMarket(z=z, nu=nu, beta=np.ones(len(z[0])))

    @pytest.mark.parametrize("size", [(10**20, 2, 5), (3, 10**20, 5), (3, 2, 10**20)])
    def test_sizes_numpy_cannot_index_rejected(self, size):
        with pytest.raises(di.InvalidInputError, match="too large to index"):
            di.make_logit_instance(*size, seed=0)

    def test_arrays_frozen_and_beta_inert(self):
        market, _, _ = di.make_logit_instance(3, 2, 10, seed=1)
        with pytest.raises(ValueError):
            market.z[0, 0] = 5.0
        other = di.LogitMarket(z=market.z, nu=market.nu, beta=np.zeros(2))
        x = np.array([0.1, -0.2, 0.3])
        assert market.evaluate(x).welfare == other.evaluate(x).welfare
