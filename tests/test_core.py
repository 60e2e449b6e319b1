"""Evaluator contract: validators, the market checks and read-only state both
families share, objective anchors, and the gradient/convexity/monotonicity
properties both model families must satisfy."""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose

import demandinv as di
from demandinv.core import SyntheticMarket
from demandinv.harness import FAMILIES
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

    def test_mean_utility_of_scalar_is_one_vector(self):
        x = di.as_mean_utility(2.5, 1)
        assert x.dtype == np.float64 and x.shape == (1,) and x[0] == 2.5

    def test_mean_utility_rejects_nonfinite(self):
        with pytest.raises(di.InvalidInputError):
            di.as_mean_utility([1.0, np.nan])
        with pytest.raises(di.InvalidInputError):
            di.as_mean_utility([np.inf])
        with pytest.raises(di.InvalidInputError, match="NaN or infinite"):
            di.as_mean_utility(-np.inf)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_deferred_nonfinite_welfare_raises_on_read(self, bad):
        ev = di.ModelEvaluation(lambda: bad, np.array([0.5]))
        for _ in range(2):
            with pytest.raises(di.InvalidInputError, match="welfare must be finite"):
                ev.welfare

    def test_model_evaluation_read_only(self):
        ev = di.ModelEvaluation(lambda: 1.0, np.array([0.5]))
        with pytest.raises(AttributeError):
            ev.welfare = 2.0
        with pytest.raises(AttributeError):
            ev.shares = np.array([0.25])
        assert ev.welfare == 1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_model_evaluation_rejects_nonfinite_shares(self, bad):
        with pytest.raises(di.InvalidInputError, match="finite vector"):
            di.ModelEvaluation(1.0, np.array([0.5, bad]))

    def test_model_evaluation_rejects_matrix_shares(self):
        with pytest.raises(di.InvalidInputError, match="finite vector"):
            di.ModelEvaluation(1.0, np.full((2, 2), 0.25))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_model_evaluation_rejects_infinite_welfare(self, bad):
        with pytest.raises(di.InvalidInputError, match="welfare must be finite"):
            di.ModelEvaluation(bad, np.array([0.5]))

    def test_model_evaluation_rejects_nan_jacobian_entry(self):
        jac = np.array([[0.25, 0.0], [0.0, np.nan]])
        with pytest.raises(di.InvalidInputError, match="jacobian must be a finite 2x2"):
            di.ModelEvaluation(1.0, np.array([0.5, 0.25]), jac)

    def test_model_evaluation_accepts_finite_entries_whose_sum_overflows(self):
        # the shares are checked by their sum first; a sum that overflows is
        # not a rejection, nor a warning, which the suite turns into an error
        huge = np.array([1e308, 1e308])
        ev = di.ModelEvaluation(1.0, huge, np.full((2, 2), 1e308))
        assert np.array_equal(ev.shares, huge) and (ev.jacobian == 1e308).all()
        ev = di.ModelEvaluation(1.0, -huge, np.full((2, 2), -1e308))
        assert np.array_equal(ev.shares, -huge) and (ev.jacobian == -1e308).all()

    @pytest.mark.parametrize(
        "shares",
        [[np.inf, -np.inf], [1e308, 1e308, np.nan], [-1e308, -1e308, np.inf]],
        ids=["opposite_infinities", "overflow_then_nan", "overflow_then_inf"],
    )
    def test_model_evaluation_rejects_nonfinite_shares_whatever_their_sum(self, shares):
        with pytest.raises(di.InvalidInputError) as info:
            di.ModelEvaluation(1.0, np.array(shares))
        assert str(info.value) == "shares must be a finite vector"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_model_evaluation_rejects_nonfinite_jacobian(self, bad):
        jac = np.array([[1e308, 1e308], [1e308, bad]])
        with pytest.raises(di.InvalidInputError) as info:
            di.ModelEvaluation(1.0, np.array([0.5, 0.25]), jac)
        assert str(info.value) == "jacobian must be a finite 2x2 matrix"


# Invalid markets of a family whose first f taste coefficients are fixed, each with
# the name its error message must start with ("draws" stands for the family's
# draws field); arrays are ones, or zeros for the draws, unless a case is about them.
INVALID_MARKETS = {
    "z_not_2d": ("z", lambda cls, f: cls(np.ones(3), np.zeros((3, 1)), np.ones(f + 1))),
    "too_few_attributes": ("z", lambda cls, f: cls(np.ones((2, f)), np.zeros((3, 0)), np.ones(f))),
    "draws_width": (
        "draws",
        lambda cls, f: cls(np.ones((2, f + 2)), np.zeros((3, 1)), np.ones(f + 2)),
    ),
    "no_consumers": (
        "draws",
        lambda cls, f: cls(np.ones((2, f + 1)), np.zeros((0, 1)), np.ones(f + 1)),
    ),
    "beta_shape": (
        "beta",
        lambda cls, f: cls(np.ones((2, f + 1)), np.zeros((3, 1)), np.ones(f + 2)),
    ),
    "z_nonfinite": (
        "z",
        lambda cls, f: cls(np.full((2, f + 1), np.nan), np.zeros((3, 1)), np.ones(f + 1)),
    ),
    "fixed_beta_not_one": (
        "beta",
        lambda cls, f: cls(np.ones((2, f + 1)), np.zeros((3, 1)), np.append(2.0, np.ones(f))),
    ),
    "no_products_drawn": ("need J", lambda cls, f: cls.draw(0, f + 1, 10, seed=1)),
}


def held_arrays(name, value):
    """(path, array) for every ndarray reachable from value through tuples;
    fails on a list, dict or set, whose items could be replaced."""
    assert not isinstance(value, (list, dict, set)), f"{name} is a {type(value).__name__}"
    if isinstance(value, np.ndarray):
        return [(name, value)]
    if isinstance(value, tuple):
        return [pair for k, item in enumerate(value) for pair in held_arrays(f"{name}[{k}]", item)]
    return []


TOY_DERIVED = []  # the z shape of every ToyMarket whose _derive ran


@dataclass(frozen=True, eq=False)
class ToyMarket(SyntheticMarket):
    """The least a family states: FIXED, DRAWS and a _derive returning an
    array, a float and None."""

    FIXED = 0
    DRAWS = "nu"

    z: np.ndarray
    nu: np.ndarray
    beta: np.ndarray

    def _derive(self, z, nu):
        TOY_DERIVED.append(z.shape)
        return {"_table": z @ nu.T, "_room": 0.5, "_none": None}

    def evaluate(self, x, want_jacobian=False):
        raise NotImplementedError


class TestSyntheticMarket:
    def test_derived_entries_held_after_the_checks(self):
        TOY_DERIVED.clear()
        market = ToyMarket(np.ones((2, 1)), np.ones((3, 1)), np.ones(1))
        assert TOY_DERIVED == [(2, 1)]
        assert market._table.shape == (2, 3) and not market._table.flags.writeable
        assert type(market._room) is float and market._room == 0.5
        assert market._none is None
        with pytest.raises(di.InvalidInputError, match=r"^z\b"):
            ToyMarket(np.ones(2), np.ones((3, 1)), np.ones(1))
        assert TOY_DERIVED == [(2, 1)]  # the malformed z raised before _derive ran

    @pytest.mark.parametrize(
        "family, tied", [("logit", False), ("purechar", False), ("purechar", True)]
    )
    def test_every_array_held_is_read_only(self, family, tied):
        # concurrent evaluations and deferred welfares share the market, so a
        # write to anything it holds would move later results with no error
        market, _, _ = FAMILIES[family].draw(4, 3, 5, seed=1)
        if tied:  # equal slopes, the zero line's among them, give the table tie slices
            z = market.z.copy()
            z[:, 0] = [0.5, 0.5, 0.0, -1.0]
            market = di.PureCharMarket(z, market.nu_rest, market.beta)
            assert any(g_tail is not None for *_, g_tail in market._blocks)
        held = [pair for name, value in vars(market).items() for pair in held_arrays(name, value)]
        assert {"z", market.DRAWS, "beta"} < {name for name, _ in held}
        assert [name for name, array in held if array.flags.writeable] == []

    @pytest.mark.parametrize(
        "family, case",
        [
            (family, case)
            for family, cls in FAMILIES.items()
            for case in INVALID_MARKETS
            if cls.FIXED or case != "fixed_beta_not_one"
        ],
    )
    def test_invalid_market_rejected(self, family, case):
        cls = FAMILIES[family]
        name, build = INVALID_MARKETS[case]
        name = cls.DRAWS if name == "draws" else name
        with pytest.raises(di.InvalidInputError, match=rf"^{name}\b"):
            build(cls, cls.FIXED)


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


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestDeferredWelfare:
    def market(self, family):
        market, x_star, _ = FAMILIES[family].draw(6, 3, 40, seed=21)
        return market, x_star

    @pytest.mark.parametrize("want_jacobian", [False, True])
    def test_read_after_same_shape_call_matches_fresh(self, family, want_jacobian):
        # the second call has the same (K, n) on the same thread, so it reuses
        # and overwrites any working memory the first one used
        market, x1 = self.market(family)
        x2 = x1 + np.linspace(-2.0, 2.0, market.J)
        first = market.evaluate(x1, want_jacobian=want_jacobian)
        market.evaluate(x2, want_jacobian=want_jacobian)
        welfare = first.welfare
        fresh = market.evaluate(x1, want_jacobian=want_jacobian).welfare
        assert np.float64(welfare).tobytes() == np.float64(fresh).tobytes()

    def test_second_read_is_not_recomputed(self, family):
        market, x = self.market(family)
        ev = market.evaluate(x)
        assert ev.welfare is ev.welfare
        calls = []

        def welfare():
            calls.append(None)
            return market.evaluate(x).welfare

        ev = di.ModelEvaluation(welfare, ev.shares)
        assert calls == []
        assert ev.welfare == ev.welfare == market.evaluate(x).welfare
        assert len(calls) == 1

    def test_overflowing_welfare_raises_on_read_without_warning(self, family):
        # a deferred welfare whose sum overflows a double: each read raises,
        # and numpy's overflow warning stays quiet
        market, x = self.market(family)
        shares = market.evaluate(x).shares
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = di.ModelEvaluation(lambda: float(np.full(market.n, 1e308).sum()), shares)
            for _ in range(2):
                with pytest.raises(di.InvalidInputError, match="welfare must be finite"):
                    ev.welfare

    @pytest.mark.parametrize("level", [1e307, 1.79e308])
    def test_welfare_whose_sum_overflows_is_finite(self, family, level):
        # n per-consumer values near `level` sum past the largest double, but
        # their mean, the welfare, does not
        market, _ = self.market(family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = market.evaluate(np.full(market.J, level), want_jacobian=True)
            assert np.isfinite(ev.shares).all() and np.isfinite(ev.jacobian).all()
            assert ev.welfare == pytest.approx(level, rel=1e-14)
