"""Pure-characteristics evaluator: closed forms, tail accuracy, round-off
against a 40-digit reference, the slope negation and gradient = shares
invariants, Monte Carlo equivalence, quadrature cross-checks, and agreement
with the per-consumer sweep oracle on generic and tied slopes, and the
evaluator's per-thread working arrays."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

import demandinv as di
from demandinv import purechar
from oracles import (
    finite_difference_gradient,
    mc_purechar_shares,
    mc_standard_errors,
    outside_segment_consumers,
    purechar_mpmath_reference,
    purechar_share_quadrature,
    purechar_sweep_reference,
)


def single_product(b, extra_cols=1, n=1):
    """One product whose line is x + b t; remaining taste columns are zeroed."""
    z = np.zeros((1, 1 + extra_cols))
    z[0, 0] = b
    nu_rest = np.zeros((n, extra_cols))
    beta = np.ones(1 + extra_cols)
    return di.PureCharMarket(z=z, nu_rest=nu_rest, beta=beta)


def tie_case(slopes, x, rest=None, n=15):
    """Market with the given slopes, one more taste column and n consumers."""
    slopes = np.asarray(slopes, float)
    if rest is None:
        rest = np.random.default_rng(slopes.size).standard_normal(slopes.size)
    z = np.column_stack([slopes, np.asarray(rest, float)])
    nu_rest = np.random.default_rng(7).standard_normal((n, 1))
    return di.PureCharMarket(z=z, nu_rest=nu_rest, beta=np.ones(2)), np.asarray(x, float)


B = 0.5

TIE_CASES = [
    # (market, x, products whose share is exactly 0, whether the outside good never wins)
    pytest.param(*tie_case([1.0, 1.0, -0.5], [0.2, -0.1, 0.3]), [], False, id="two_equal"),
    pytest.param(
        *tie_case([0.5, -1.0, 0.5, 2.0, 0.5], [0.1, 0.0, -0.2, -1.0, 0.3]), [], False,
        id="three_equal",
    ),
    # product 0 is the zero line for every consumer: it beats the outside good
    pytest.param(
        *tie_case([0.0, 1.0], [0.0, -0.3], rest=[0.0, 0.4]), [], True, id="zero_line_tie"
    ),
    # products 0 and 2 coincide for every consumer: the lower index owns them
    pytest.param(
        *tie_case([0.5, 1.0, 0.5], [0.1, 0.0, 0.1], rest=[0.2, 0.3, 0.2]), [2], False,
        id="coincident",
    ),
    pytest.param(*tie_case([0.7] * 5, [0.3, -0.2, 0.0, 0.5, 0.1]), [], False, id="all_equal"),
    pytest.param(*tie_case([0.0] * 4, [0.3, -0.2, 0.0, 0.5]), [], False, id="all_zero"),
    pytest.param(*tie_case([0.0], [0.2]), [], False, id="single_slope_zero"),
    pytest.param(
        *tie_case([B, B, np.nextafter(B, np.inf), -0.3], [0.1, 0.2, 0.2, 0.0]), [], False,
        id="near_tie",
    ),
    # product 0's slope is a subnormal away from the zero line's: they cross
    # at +-inf, and the crossing overflows to it
    pytest.param(
        *tie_case([5e-324, 1.0], [0.0, -0.2], rest=[0.3, 0.1]), [], False, id="subnormal_slope"
    ),
    # product 1's slope -0.0 ties product 0's 0.0 and the zero line, and its
    # line lies above product 0's for both consumers: product 0 gets nothing
    pytest.param(
        di.PureCharMarket(
            z=[[0.0, 0.1], [-0.0, 0.3], [0.5, 0.0]], nu_rest=[[0.2], [-0.4]], beta=np.ones(2)
        ),
        np.array([0.0, 0.1, -0.2]), [0], False, id="signed_zero_slope",
    ),
]


def draw_tied_slopes(data, J):
    """J slopes that tie on a 0.5 grid or lie one ulp apart, drawn with hypothesis."""
    if data.draw(st.booleans(), label="grid"):
        # a 0.5 grid: products tie with each other and with the zero line
        steps = data.draw(st.lists(st.integers(-4, 4), min_size=J, max_size=J))
        return 0.5 * np.array(steps, float)
    # one ulp apart: nearly parallel lines cross far out
    base = data.draw(st.sampled_from([-2.0, -0.5, 0.5, 1.0]))
    ulps = data.draw(st.lists(st.integers(-1, 1), min_size=J, max_size=J))
    return np.array([np.nextafter(base, np.copysign(np.inf, u)) if u else base for u in ulps])


def assert_matches_sweep(market, x, relative_jacobian=False):
    """Evaluate with the Jacobian, compare with the sweep oracle, return the evaluation.

    Lines one ulp apart in slope put phi(t) / ulp ~ 1e15 in the Jacobian; with
    relative_jacobian its tolerance scales with the largest entry above 1.
    """
    ev = market.evaluate(x, want_jacobian=True)
    welfare, shares, jac = purechar_sweep_reference(
        market.z, market.nu_rest, x, want_jacobian=True
    )
    jac_tol = 1e-13 * max(1.0, np.max(np.abs(jac))) if relative_jacobian else 1e-13
    assert abs(ev.welfare - welfare) <= 1e-13
    assert np.max(np.abs(ev.shares - shares)) <= 1e-13
    assert np.max(np.abs(ev.jacobian - jac)) <= jac_tol
    assert np.array_equal(ev.jacobian, ev.jacobian.T)
    return ev


class TestClosedForms:
    def test_unit_slope_share_is_normal_cdf(self):
        market = single_product(1.0)
        for x in (-2.0, 0.0, 1.3, 4.0):
            ev = market.evaluate(np.array([x]))
            assert ev.shares[0] == pytest.approx(norm.cdf(x), abs=1e-15)

    def test_negative_slope_share(self):
        # x + b t > 0 with b < 0 holds for t < x/|b|
        market = single_product(-2.0)
        for x in (-1.0, 0.5, 2.0):
            ev = market.evaluate(np.array([x]))
            assert ev.shares[0] == pytest.approx(norm.cdf(x / 2.0), abs=1e-15)

    def test_welfare_at_zero_is_normal_density(self):
        # E max(0, t) = phi(0)
        ev = single_product(1.0).evaluate(np.array([0.0]))
        assert ev.welfare == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_welfare_expected_positive_part(self):
        # E max(0, x + t) = x * Phi(x) + phi(x)
        market = single_product(1.0)
        for x in (-1.5, 0.7, 2.2):
            ev = market.evaluate(np.array([x]))
            expected = x * norm.cdf(x) + norm.pdf(x)
            assert ev.welfare == pytest.approx(expected, rel=1e-14)

    def test_deep_tail_share_is_exact_zero(self):
        ev = single_product(1.0).evaluate(np.array([-40.0]))
        assert ev.shares[0] == 0.0

    @pytest.mark.parametrize("b", [1.0, -1.0])
    def test_tail_share_is_relatively_exact(self, b):
        # share Phi(x) either way: 1 - Phi(-x) would cancel for b = +1
        market = single_product(b)
        for x in np.linspace(-1.0, -37.0, 73):
            share = market.evaluate(np.array([x])).shares[0]
            assert share == pytest.approx(ndtr(x), rel=1e-14, abs=0.0)

    def test_two_products_equal_lines_split_by_index(self):
        # identical slopes and intercepts: product 0 wins the tie everywhere
        z = np.array([[1.0, 0.0], [1.0, 0.0]])
        market = di.PureCharMarket(z=z, nu_rest=np.zeros((1, 1)), beta=np.ones(2))
        ev = market.evaluate(np.zeros(2))
        assert ev.shares[0] == pytest.approx(0.5, abs=1e-15)
        assert ev.shares[1] == 0.0

    def test_heterogeneous_intercepts_average_over_consumers(self):
        # two consumers shifting the line by +/- 1 through the taste column
        z = np.array([[1.0, 1.0]])
        nu_rest = np.array([[1.0], [-1.0]])
        market = di.PureCharMarket(z=z, nu_rest=nu_rest, beta=np.ones(2))
        ev = market.evaluate(np.array([0.5]))
        expected = 0.5 * (norm.cdf(1.5) + norm.cdf(-0.5))
        assert ev.shares[0] == pytest.approx(expected, abs=1e-15)


class TestJacobian:
    def test_matches_finite_differences(self):
        market, x_star, _ = di.make_purechar_instance(4, 3, 60, seed=5)
        rng = np.random.default_rng(11)
        for _ in range(4):
            x = x_star + rng.normal(scale=0.5, size=4)
            ev = market.evaluate(x, want_jacobian=True)
            fd = np.empty((4, 4))
            h = 1e-6
            for q in range(4):
                step = np.zeros(4)
                step[q] = h
                up = market.evaluate(x + step).shares
                dn = market.evaluate(x - step).shares
                fd[:, q] = (up - dn) / (2 * h)
            assert np.max(np.abs(ev.jacobian - fd)) < 1e-5

    def test_symmetric_and_diagonally_dominant(self):
        market, x_star, _ = di.make_purechar_instance(6, 3, 80, seed=2)
        ev = market.evaluate(x_star, want_jacobian=True)
        jac = ev.jacobian
        assert np.max(np.abs(jac - jac.T)) == 0.0
        # off-diagonal entries are nonpositive, diagonal nonnegative
        off = jac - np.diag(np.diag(jac))
        assert np.all(off <= 0.0)
        assert np.all(np.diag(jac) >= 0.0)
        # row sums bounded by the diagonal: outside option absorbs the rest
        assert np.all(jac.sum(axis=1) >= -1e-15)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_psd_on_random_markets(self, data):
        # The trust-region floor assumes a Jacobian PSD up to round-off. A
        # symmetric Jacobian with off-diagonal entries <= 0 and row sums >= 0
        # is weakly diagonally dominant, hence PSD; and the outside good's
        # share, 1 - sum(shares), stays nonnegative up to round-off.
        J = data.draw(st.integers(1, 12), label="J")
        M = data.draw(st.integers(2, 4), label="M")
        n = data.draw(st.integers(1, 40), label="n")
        scale = data.draw(st.sampled_from([1.0, 10.0, 1e3, 1e20, 1e200]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="tied"):
            slopes = draw_tied_slopes(data, J)
        else:
            slopes = rng.standard_normal(J)
        if data.draw(st.booleans(), label="coarse"):
            # intercepts and utilities on a grid too, so lines coincide
            rest, nu_rest, u = (0.5 * rng.integers(-2, 3, k) for k in ((J, M - 1), (n, M - 1), J))
        else:
            rest = rng.standard_normal((J, M - 1))
            nu_rest = rng.standard_normal((n, M - 1))
            u = rng.uniform(-1.0, 1.0, J)
        z = np.column_stack([slopes, rest])
        market = di.PureCharMarket(z=z, nu_rest=nu_rest, beta=np.ones(M))
        ev = market.evaluate(scale * u, want_jacobian=True)
        jac = ev.jacobian
        assert np.linalg.eigvalsh(jac)[0] >= -1e-13 * np.max(np.abs(jac))
        assert np.array_equal(jac, jac.T)
        assert np.all(jac[~np.eye(J, dtype=bool)] <= 0.0)
        assert np.all(jac.sum(axis=1) >= -1e-15 * np.max(np.abs(jac)))
        assert 1.0 - ev.shares.sum() >= -4 * np.finfo(float).eps


def envelope_owners(market, x):
    """Each consumer's envelope segment owners, left to right, from the sweep."""
    a = x + market.nu_rest @ market.z[:, 1:].T
    b = market.z[:, 0]
    return [
        [seg.owner for seg in di.upper_envelope(zip(range(market.J), row, b))] for row in a
    ]


class TestInvariants:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_shares_invariant_under_slope_negation(self, data):
        # t -> -t maps the market with slopes -b onto the one with slopes b,
        # and tail shares must match relatively on either side
        J = data.draw(st.integers(1, 10), label="J")
        M = data.draw(st.integers(2, 4), label="M")
        n = data.draw(st.integers(1, 30), label="n")
        depth = data.draw(st.sampled_from([0.0, 5.0, 10.0, 20.0, 35.0]), label="depth")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="tied"):
            slopes = draw_tied_slopes(data, J)
        else:
            slopes = rng.standard_normal(J)
        z = np.column_stack([slopes, rng.standard_normal((J, M - 1))])
        nu_rest = rng.standard_normal((n, M - 1))
        x = rng.uniform(-1.0, 1.0, J) - depth * rng.random(J)
        mirrored = z.copy()
        mirrored[:, 0] = -z[:, 0]
        shares = di.PureCharMarket(z=z, nu_rest=nu_rest, beta=np.ones(M)).evaluate(x).shares
        flipped = di.PureCharMarket(z=mirrored, nu_rest=nu_rest, beta=np.ones(M)).evaluate(x).shares
        normal = np.maximum(shares, flipped) >= np.finfo(float).tiny
        assert np.allclose(flipped[normal], shares[normal], rtol=1e-13, atol=0.0)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_gradient_is_shares(self, data):
        # central differences of welfare with a step relative to the scale,
        # kept where the envelope's owners do not change across the step
        J = data.draw(st.integers(1, 8), label="J")
        M = data.draw(st.integers(2, 4), label="M")
        n = data.draw(st.integers(1, 30), label="n")
        scale = data.draw(st.sampled_from([1.0, 10.0, 1e3, 1e20, 1e200]), label="scale")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        z = rng.standard_normal((J, M))
        market = di.PureCharMarket(z=z, nu_rest=rng.standard_normal((n, M - 1)), beta=np.ones(M))
        x = scale * rng.uniform(-1.0, 1.0, J)
        step = 1e-7 * scale
        for j in range(J):
            up = x.copy()
            dn = x.copy()
            up[j] += step
            dn[j] -= step
            assume(envelope_owners(market, up) == envelope_owners(market, dn))
        fd = finite_difference_gradient(market, x, step=step)
        assert np.max(np.abs(fd - market.evaluate(x).shares)) <= 1e-7


class TestAgainstOracles:
    def test_monte_carlo_choice_share_equivalence(self):
        market, x_star, sigma_star = di.make_purechar_instance(5, 3, 30, seed=6)
        hat, total = mc_purechar_shares(market.z, market.nu_rest, x_star, 1_000_000, seed=0)
        se = mc_standard_errors(sigma_star, total)
        gap = np.abs(hat - sigma_star)
        assert np.all(gap <= np.maximum(3.0 * se, 1e-12))

    def test_quadrature_share_equivalence(self):
        for seed in (0, 3, 8):
            market, x_star, sigma_star = di.make_purechar_instance(5, 3, 25, seed=seed)
            approx = purechar_share_quadrature(market.z, market.nu_rest, x_star)
            assert np.max(np.abs(approx - sigma_star)) < 1e-3


class TestAccuracy:
    """Round-off against the 40-digit mpmath reference on seeded small markets
    (J <= 5, M <= 3, n <= 20) at x = scale * Uniform[-1, 1]^J for scales 1
    and 3, in units of eps = 2^-52.

    Shares are measured relative to each share the reference finds nonzero
    and absolutely, the welfare relative to max(1, |W|), the Jacobian
    relative to its largest entry. A share or Jacobian the reference finds
    zero must be exactly zero. The largest errors over these markets were:

    - generic normal slopes: welfare 1.23, shares 457 relative and 1.0
      absolute, Jacobian 18.1. The 457 is a share of 2.2e-307, the tail
      beyond a breakpoint near t = 37.5; rounding the lines' intercepts to
      doubles moves that breakpoint, and the tail's relative change is t
      times the move;
    - slopes tied on a 0.5 grid: welfare 1.0, shares 66.9 relative (a share
      of 2.6e-26) and 0.5 absolute, Jacobian 1.8.

    The bounds below leave room over both.
    """

    EPS = np.finfo(float).eps
    TINY = np.finfo(float).tiny
    BOUNDS = {  # welfare, shares relative, shares absolute, Jacobian
        "generic": (3.0, 640.0, 3.0, 32.0),
        "grid": (3.0, 128.0, 3.0, 8.0),
    }

    @pytest.mark.parametrize("slopes", sorted(BOUNDS))
    def test_round_off_within_bounds(self, slopes):
        worst = np.zeros(4)
        for seed in range(40):
            rng = np.random.default_rng([seed, 11])
            J, M, n = int(rng.integers(1, 6)), int(rng.integers(2, 4)), int(rng.integers(1, 21))
            z = rng.standard_normal((J, M))
            if slopes == "grid":
                z[:, 0] = 0.5 * rng.integers(-4, 5, J)
            market = di.PureCharMarket(
                z=z, nu_rest=rng.standard_normal((n, M - 1)), beta=np.ones(M)
            )
            for scale in (1.0, 3.0):
                x = scale * rng.uniform(-1.0, 1.0, J)
                ev = market.evaluate(x, want_jacobian=True)
                ref_w, ref_s, ref_j = purechar_mpmath_reference(market.z, market.nu_rest, x)
                live = ref_s > 0.0
                assert np.all(ev.shares[~live] == 0.0), (seed, scale)
                errors = (
                    abs(ev.welfare - ref_w) / max(1.0, abs(ref_w)),
                    np.max(np.abs(ev.shares - ref_s)[live] / ref_s[live], initial=0.0),
                    np.max(np.abs(ev.shares - ref_s)),
                    # a market without breakpoints has a zero Jacobian, exactly
                    np.max(np.abs(ev.jacobian - ref_j)) / np.max(np.abs(ref_j), initial=self.TINY),
                )
                worst = np.maximum(worst, np.array(errors) / self.EPS)
        assert np.all(worst <= self.BOUNDS[slopes]), worst


class TestEvaluationPaths:
    def test_sweep_matches_vectorized_on_generic_market(self):
        # J=40 runs the bounds loop over many slope groups
        for J, seed in ((7, 1), (7, 4), (7, 9), (40, 2)):
            market, x_star, _ = di.make_purechar_instance(J, 3, 40, seed=seed)
            assert_matches_sweep(market, x_star)

    def test_duplicate_slopes_match_sweep_oracle(self):
        z = np.array([[1.0, 0.3], [1.0, -0.2], [0.5, 0.1]])
        nu_rest = np.random.default_rng(0).standard_normal((20, 1))
        market = di.PureCharMarket(z=z, nu_rest=nu_rest, beta=np.ones(2))
        x = np.array([0.2, -0.1, 0.4])
        ev = assert_matches_sweep(market, x)
        approx = purechar_share_quadrature(z, nu_rest, x)
        assert np.max(np.abs(ev.shares - approx)) < 1e-3

    def test_shares_plus_outside_sum_to_one(self):
        for seed in range(6):
            market, x_star, _ = di.make_purechar_instance(8, 4, 50, seed=seed)
            shares = market.evaluate(x_star).shares
            assert np.all(shares >= 0.0)
            assert abs(shares.sum()) <= 1.0 + 1e-12

    def test_shares_sum_to_one_within_n_eps_without_outside_segment(self):
        # Where the outside good owns no segment the shares sum to 1 exactly,
        # but the widths add the consumers' masses in sequence, so the sum can
        # pass 1 by round-off that grows with n. Over 750 seeded markets like
        # these (n 1-1,499) |1 - sum| was at most 0.5 n eps, at n = 1.
        eps = np.finfo(float).eps
        for seed in range(30):
            rng = np.random.default_rng([seed, 29])
            J, n = int(rng.integers(2, 11)), int(rng.integers(1, 200))
            z = rng.standard_normal((J, 3))
            z[:2, 0] = [abs(z[0, 0]) + 0.1, -abs(z[1, 0]) - 0.1]  # slopes of both signs
            market = di.PureCharMarket(z=z, nu_rest=rng.standard_normal((n, 2)), beta=np.ones(3))
            x = z.sum(axis=1) + rng.standard_normal(J)
            while outside_segment_consumers(market, x):
                x = x + 1.0
            shares = market.evaluate(x).shares
            assert abs(1.0 - shares.sum()) <= n * eps, (seed, n, 1.0 - shares.sum())

    def test_welfare_nonnegative(self):
        # the outside payoff is zero so the best option is never worse
        for seed in range(4):
            market, x_star, _ = di.make_purechar_instance(5, 3, 30, seed=seed)
            rng = np.random.default_rng(seed + 100)
            for _ in range(3):
                x = rng.normal(scale=3.0, size=5)
                assert market.evaluate(x).welfare >= 0.0

    def test_evaluate_memory_linear_in_n(self):
        # bounds in O(n*K) memory; an (n, K, K) crossing tensor peaks near 12 MiB here
        market, x_star, _ = di.make_purechar_instance(10, 5, 5000, seed=3)
        tracemalloc.start()
        try:
            market.evaluate(x_star, want_jacobian=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20

    def test_deterministic_bit_identical(self):
        market, x_star, _ = di.make_purechar_instance(6, 3, 40, seed=12)
        first = market.evaluate(x_star, want_jacobian=True)
        second = market.evaluate(x_star, want_jacobian=True)
        assert np.array_equal(first.shares, second.shares)
        assert first.welfare == second.welfare
        assert np.array_equal(first.jacobian, second.jacobian)


def snapshot(ev):
    """An evaluation's welfare, shares and Jacobian as bytes."""
    return np.float64(ev.welfare).tobytes(), ev.shares.tobytes(), ev.jacobian.tobytes()


def same_shape_markets():
    """(market, x) pairs: three of one (K, n) with different alive segments, then
    one of another (K, n)."""
    a, xa, _ = di.make_purechar_instance(6, 3, 40, seed=21)
    b, xb, _ = di.make_purechar_instance(6, 3, 40, seed=22)
    tied, x_tied = tie_case([0.5, 0.5, 1.0, -1.0, 0.5, 0.0], [0.3, 0.3, -0.2, 0.1, 0.0, 0.2], n=40)
    c, xc, _ = di.make_purechar_instance(4, 2, 17, seed=23)
    return [(a, xa), (b, xb + 2.0), (tied, x_tied), (c, xc)]


class TestScratch:
    def test_other_markets_between_calls_change_nothing(self):
        # same (K, n), then another shape, then the first market again
        cases = same_shape_markets()
        market, x = cases[0]
        first = snapshot(market.evaluate(x, want_jacobian=True))
        for other, y in cases[1:]:
            other.evaluate(y, want_jacobian=True)
            assert snapshot(market.evaluate(x, want_jacobian=True)) == first
        assert_matches_sweep(market, x)

    def test_returned_arrays_survive_later_calls(self):
        cases = same_shape_markets()
        market, x = cases[0]
        ev = market.evaluate(x, want_jacobian=True)
        kept = snapshot(ev)
        market.evaluate(x - 1.0, want_jacobian=True)
        for other, y in cases[1:]:
            other.evaluate(y, want_jacobian=True)
        assert snapshot(ev) == kept

    def test_concurrent_threads_match_sequential(self):
        cases = same_shape_markets()[:3]
        expected = [snapshot(m.evaluate(x, want_jacobian=True)) for m, x in cases]
        rounds, workers = 60, 4
        start = threading.Barrier(workers, timeout=30)
        seen = {}

        def work(k):
            # each thread cycles through the same-shape markets from its own offset
            start.wait()
            got = []
            for r in range(rounds):
                m, x = cases[(r + k) % len(cases)]
                got.append(snapshot(m.evaluate(x, want_jacobian=True)))
            seen[k] = got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for k in range(workers):
            assert seen[k] == [expected[(r + k) % len(cases)] for r in range(rounds)]

    def test_smaller_shape_releases_larger_scratch(self):
        small, x_small, _ = di.make_purechar_instance(2, 2, 5, seed=1)
        large, x_large, _ = di.make_purechar_instance(10, 2, 10_000, seed=1)
        small.evaluate(x_small)
        tracemalloc.start()
        try:
            large.evaluate(x_large)
            held = tracemalloc.get_traced_memory()[0]
            small.evaluate(x_small)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # the large scratch holds 56 bytes per line and consumer, 6 MB here
        assert held >= 56 * 11 * 10_000
        assert after <= 2**16


TABLE_KINDS = ("generic", "grid", "ulp", "coincident", "signed_zero", "huge")


def table_market(kind, seed):
    """A J=9, n=23 market whose slopes or intercepts are of the given kind;
    "huge" puts the intercepts near +-1e308, so that l_p - l_c overflows."""
    rng = np.random.default_rng([seed, 31])
    J, n = 9, 23
    z = rng.standard_normal((J, 3))
    nu_rest = rng.standard_normal((n, 2))
    if kind == "grid":
        z[:, 0] = 0.5 * rng.integers(-2, 3, J)
    elif kind == "ulp":
        z[:, 0] = np.nextafter(0.5, rng.choice([-np.inf, 0.5, np.inf], J))
    elif kind in ("coincident", "signed_zero"):
        z = rng.integers(-1, 2, (J, 3)).astype(float)
        nu_rest = rng.integers(-1, 2, (n, 2)).astype(float)
        if kind == "signed_zero":
            z[:, 0] = np.where(rng.random(J) < 0.5, -0.0, z[:, 0])
    elif kind == "huge":
        z[:, 1] = rng.choice([-1.0, 1.0], J) * rng.uniform(0.5, 1.0, J) * 1e308
        nu_rest[:, 0] = rng.uniform(-1.0, 1.0, n)
    return di.PureCharMarket(z=z, nu_rest=nu_rest, beta=np.ones(3))


def table_points(market):
    """Mean utilities the table tests evaluate at: x, x + N(0,1), 0 and x - 8,
    where x is x* without the second attribute's part, which is near +-1e308
    in the "huge" kind."""
    x = market.z[:, 0] + market.z[:, 2]
    noise = np.random.default_rng(market.n).standard_normal(market.J)
    return [x, x + noise, np.zeros(market.J), x - 8.0]


class TestCrossingTable:
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_cached_and_per_call_blocks_bitwise_equal(self, kind, monkeypatch):
        # J=9 makes blocks of 1..9 rows; the split cap holds the first three
        # blocks (6 rows) and two rows more, so block 4 on are formed per call
        for seed in range(3):
            market = table_market(kind, seed)
            points = table_points(market)
            assert all(T is not None for T, *_ in market._blocks)
            expected = [snapshot(market.evaluate(x, want_jacobian=True)) for x in points]
            for cap, held in ((0, 0), (8 * market.n * 8, 3)):
                monkeypatch.setattr(purechar, "_TABLE_BYTES", cap)
                capped = table_market(kind, seed)
                monkeypatch.undo()
                assert sum(T is not None for T, *_ in capped._blocks) == held
                got = [snapshot(capped.evaluate(x, want_jacobian=True)) for x in points]
                assert got == expected
            # the sweep's welfare sum overflows in the "huge" kind, so only
            # the shares and the Jacobian are compared with it here
            x = points[1]
            ev = market.evaluate(x, want_jacobian=True)
            _, shares, jac = purechar_sweep_reference(market.z, market.nu_rest, x, True)
            assert np.max(np.abs(ev.shares - shares)) <= 1e-13
            assert np.max(np.abs(ev.jacobian - jac)) <= 1e-13 * max(1.0, np.max(np.abs(jac)))

    def test_huge_intercepts_overflow_past_the_adjacent_line(self):
        # some line's first row whose l_p - l_c overflows is not the line just
        # below it in slope order, so its tie slice holds undivided rows whose
        # slope gap is not 0
        for seed in range(3):
            market = table_market("huge", seed)
            assert any(e < c - 1 for c, (_, e, *_) in enumerate(market._blocks, start=1))

    def test_tables_read_only(self):
        for kind in TABLE_KINDS:
            market = table_market(kind, 0)
            assert not market._div.flags.writeable
            for T, _, g_head, g_tail in market._blocks:
                assert not T.flags.writeable and not g_head.flags.writeable
                assert g_tail is None or not g_tail.flags.writeable


class TestSharesOnlyCalls:
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_shares_only_call_matches_jacobian_call(self, kind):
        # one computation either way: the Jacobian call only adds the Jacobian
        for seed in range(3):
            market = table_market(kind, seed)
            for x in table_points(market):
                full = market.evaluate(x, want_jacobian=True)
                part = market.evaluate(x)
                assert part.jacobian is None
                assert part.shares.tobytes() == full.shares.tobytes()
                assert np.float64(part.welfare).tobytes() == np.float64(full.welfare).tobytes()


class TestTiedSlopes:
    @pytest.mark.parametrize("market, x, zero_products, outside_loses", TIE_CASES)
    def test_edge_cases_match_sweep(self, market, x, zero_products, outside_loses):
        ev = assert_matches_sweep(market, x)
        assert np.all(ev.shares[zero_products] == 0.0)
        if outside_loses:
            assert ev.shares.sum() == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_random_tied_and_near_tied_slopes(self, data):
        J = data.draw(st.integers(1, 12), label="J")
        n = data.draw(st.integers(1, 40), label="n")
        slopes = draw_tied_slopes(data, J)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        if data.draw(st.booleans(), label="coarse"):
            # intercepts on a grid too, so equal-slope lines also coincide
            rest = 0.5 * rng.integers(-2, 3, J)
            nu_rest = 0.5 * rng.integers(-2, 3, (n, 1))
            x = 0.5 * rng.integers(-2, 3, J)
        else:
            rest = rng.standard_normal(J)
            nu_rest = rng.standard_normal((n, 1))
            x = rng.normal(scale=2.0, size=J)
        z = np.column_stack([slopes, rest])
        market = di.PureCharMarket(z=z, nu_rest=nu_rest, beta=np.ones(2))
        ev = assert_matches_sweep(market, x, relative_jacobian=True)
        assert np.all(ev.shares >= 0.0)
        assert ev.shares.sum() <= 1.0 + 1e-12
        off = ev.jacobian - np.diag(np.diag(ev.jacobian))
        assert np.all(off <= 0.0)
        scale = max(1.0, np.max(np.abs(ev.jacobian)))
        assert np.all(ev.jacobian.sum(axis=1) >= -1e-13 * scale)

    @pytest.mark.parametrize("tied", [False, True], ids=["generic", "tied"])
    def test_extreme_utilities_raise_no_warning(self, tied):
        market, x_star, _ = di.make_purechar_instance(10, 5, 50, seed=0)
        if tied:
            z = np.array(market.z)
            z[:, 0] = np.round(z[:, 0] / B) * B
            market = di.PureCharMarket(z=z, nu_rest=market.nu_rest, beta=market.beta)
            assert np.unique(z[:, 0]).size < z.shape[0]
        signs = np.where(np.arange(10) % 2 == 0, 1.0, -1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (x_star + 1e200, 1e200 * signs):
                ev = market.evaluate(x, want_jacobian=True)
                assert np.all(np.isfinite(ev.shares)) and np.isfinite(ev.welfare)
                assert np.all(np.isfinite(ev.jacobian))


class TestInstanceConstruction:
    def test_same_seed_reproduces(self):
        a_market, a_x, a_s = di.make_purechar_instance(5, 3, 20, seed=42)
        b_market, b_x, b_s = di.make_purechar_instance(5, 3, 20, seed=42)
        assert np.array_equal(a_market.z, b_market.z)
        assert np.array_equal(a_market.nu_rest, b_market.nu_rest)
        assert np.array_equal(a_market.beta, b_market.beta)
        assert np.array_equal(a_x, b_x)
        assert np.array_equal(a_s, b_s)

    def test_truth_is_consistent(self):
        market, x_star, sigma_star = di.make_purechar_instance(6, 4, 35, seed=7)
        assert np.array_equal(x_star, market.z @ market.beta)
        assert np.array_equal(market.evaluate(x_star).shares, sigma_star)

    def test_normalized_taste_coefficient(self):
        market, _, _ = di.make_purechar_instance(4, 3, 10, seed=0)
        assert market.beta[0] == 1.0

    def test_dimension_validation(self):
        with pytest.raises(di.InvalidInputError):
            di.make_purechar_instance(0, 2, 5, seed=0)
        with pytest.raises(di.InvalidInputError):
            di.make_purechar_instance(3, 1, 5, seed=0)
        with pytest.raises(di.InvalidInputError):
            di.make_purechar_instance(3, 2, 0, seed=0)

    def test_overflowing_intercepts_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(di.InvalidInputError, match="overflows a double"):
                di.PureCharMarket(
                    z=[[0.5, 1e200], [0.1, 1.0]], nu_rest=[[1e200], [1.0]], beta=[1.0, 1.0]
                )

    def test_overflowing_slope_range_rejected(self):
        # each slope is finite, but their difference is not: the crossings
        # and slope steps of every evaluation would overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(di.InvalidInputError, match="slope range"):
                di.PureCharMarket(
                    z=[[-1e308, 0.0], [1e308, 0.0], [1.0, 0.0]], nu_rest=[[0.0]], beta=[1.0, 0.0]
                )
            # a wide range that still fits a double is a valid market
            market = di.PureCharMarket(
                z=[[-8e307, 0.0], [8e307, 0.0], [1.0, 0.0]], nu_rest=[[0.0]], beta=[1.0, 0.0]
            )
            assert market.evaluate([0.0, 0.0, 0.0]).shares.tolist() == [0.5, 0.5, 0.0]

    def test_cached_intercepts_read_only_and_exact(self):
        market, x_star, _ = di.make_purechar_instance(4, 3, 30, seed=2)
        assert not market._lines.flags.writeable
        # rows: the intercept columns in stable slope order, the zero line's among them
        order = np.argsort(np.append(market.z[:, 0], 0.0), kind="stable")
        expected = x_star + market.nu_rest @ market.z[:, 1:].T
        expected = np.append(expected, np.zeros((market.n, 1)), axis=1)[:, order].T
        lines = market._lines + np.append(x_star, 0.0)[order, None]
        assert lines.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("size", [(10**20, 2, 5), (3, 10**20, 5), (3, 2, 10**20)])
    def test_sizes_numpy_cannot_index_rejected(self, size):
        with pytest.raises(di.InvalidInputError, match="too large to index"):
            di.make_purechar_instance(*size, seed=0)

    def test_arrays_are_frozen(self):
        market, _, _ = di.make_purechar_instance(3, 2, 5, seed=1)
        with pytest.raises(ValueError):
            market.z[0, 0] = 9.0

    def test_evaluate_validates_input(self):
        market, _, _ = di.make_purechar_instance(3, 2, 5, seed=1)
        with pytest.raises(di.InvalidInputError):
            market.evaluate(np.zeros(4))
        with pytest.raises(di.InvalidInputError):
            market.evaluate(np.array([0.0, np.nan, 0.0]))
