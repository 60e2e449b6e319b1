"""Experiment harness: seeded starts, convergence-rate estimation, suite
execution, band aggregation, degeneracy statistics, and failure handling."""

import math

import numpy as np
import pytest

import demandinv as di


def small_logit_spec(**overrides):
    kwargs = dict(
        model_family="logit",
        J=4,
        M=2,
        n=30,
        replications=3,
        delta_norm=10.0,
        solver=di.SolverConfig(max_iterations=60),
        master_seed=1,
    )
    kwargs.update(overrides)
    return di.ExperimentSpec(**kwargs)


class TestPerturbStart:
    def test_exact_norm(self):
        x_star = np.array([1.0, -2.0, 0.5])
        for delta in (0.1, 5.0, 20.0):
            x0 = di.perturb_start(x_star, delta, seed=0)
            assert np.linalg.norm(x0 - x_star) == pytest.approx(delta, rel=1e-12)

    def test_zero_delta_returns_copy_of_truth(self):
        x_star = np.array([1.0, 2.0])
        x0 = di.perturb_start(x_star, 0.0, seed=0)
        assert np.array_equal(x0, x_star)
        x0[0] = 9.0
        assert x_star[0] == 1.0

    def test_seed_controls_direction(self):
        x_star = np.zeros(6)
        a = di.perturb_start(x_star, 1.0, seed=3)
        b = di.perturb_start(x_star, 1.0, seed=3)
        c = di.perturb_start(x_star, 1.0, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seed_sequence_accepted(self):
        x_star = np.zeros(4)
        seq = np.random.SeedSequence([7, 0, 1])
        a = di.perturb_start(x_star, 2.0, seq)
        b = di.perturb_start(x_star, 2.0, np.random.SeedSequence([7, 0, 1]))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2.5, "seven", [3, -1]])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(di.InvalidInputError, match="seed must be a non-negative integer"):
            di.perturb_start(np.zeros(2), 1.0, seed)

    def test_negative_delta_rejected(self):
        with pytest.raises(di.InvalidInputError):
            di.perturb_start(np.zeros(2), -1.0, seed=0)

    @pytest.mark.parametrize("delta_norm", [math.inf, math.nan])
    def test_nonfinite_delta_rejected(self, delta_norm):
        with pytest.raises(di.InvalidInputError, match="delta_norm must be finite and >= 0"):
            di.perturb_start(np.zeros(2), delta_norm, seed=0)


class TestEmpiricalRate:
    def test_geometric_trace_recovers_modulus(self):
        trace = 0.9 ** np.arange(12)
        assert di.empirical_rate(trace) == pytest.approx(0.9, rel=1e-12)
        trace = 0.5 ** np.arange(8)
        assert di.empirical_rate(trace, window=3) == pytest.approx(0.5, rel=1e-12)

    def test_zero_tail_reports_zero(self):
        trace = np.array([1.0, 0.1, 0.01, 0.0, 0.0, 0.0])
        assert di.empirical_rate(trace, window=3) == 0.0

    def test_validation(self):
        with pytest.raises(di.InvalidInputError):
            di.empirical_rate(np.ones((2, 3)))
        with pytest.raises(di.InvalidInputError):
            di.empirical_rate(np.ones(10), window=1)
        with pytest.raises(di.InvalidInputError):
            di.empirical_rate(np.ones(5), window=5)
        with pytest.raises(di.InvalidInputError):
            di.empirical_rate(np.array([1.0, -0.5, 0.2, 0.1, 0.05, 0.01]))


class TestExperimentSpec:
    def test_defaults(self):
        spec = small_logit_spec()
        assert spec.methods == di.METHODS
        assert spec.master_seed == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"model_family": "probit"},
            {"J": 0},
            {"n": 0},
            {"replications": 0},
            {"delta_norm": -1.0},
            {"master_seed": -1},
            {"methods": ()},
            {"methods": ("newton",)},
            {"delta_norm": math.inf},
            {"J": 10**20},
        ],
    )
    def test_invalid_specs_rejected(self, overrides):
        with pytest.raises(di.InvalidInputError):
            small_logit_spec(**overrides)

    def test_purechar_needs_two_attributes(self):
        with pytest.raises(di.InvalidInputError):
            small_logit_spec(model_family="purechar", M=1)

    def test_methods_coerced_to_tuple(self):
        spec = small_logit_spec(methods=["convex_tr"])
        assert spec.methods == ("convex_tr",)


class TestRunSuite:
    def test_replication_seeding_scheme(self):
        # instance from child [master, r, 0], start from [master, r, 1],
        # shared by all methods within a replication
        spec = small_logit_spec(replications=2, solver=di.SolverConfig(max_iterations=0))
        suite = di.run_suite(spec)
        for r in range(2):
            market, x_star, sigma_star = di.make_logit_instance(
                spec.J, spec.M, spec.n, np.random.SeedSequence([spec.master_seed, r, 0])
            )
            x0 = di.perturb_start(
                x_star, spec.delta_norm, np.random.SeedSequence([spec.master_seed, r, 1])
            )
            for method in spec.methods:
                res = suite.results[(method, r)]
                assert np.array_equal(res.x_final, x0)
                err = np.abs(market.evaluate(x0).shares - sigma_star).max()
                assert res.error_trace[0] == err

    def test_bands_cover_full_iteration_axis(self):
        spec = small_logit_spec()
        suite = di.run_suite(spec)
        assert set(suite.bands) == set(spec.methods)
        for method, band in suite.bands.items():
            # each band ends at its own method's longest trace
            longest = max(suite.results[(method, r)].error_trace.size for r in range(3))
            for arr in (band.minimum, band.median, band.maximum):
                assert arr.shape == (longest,)
            assert np.all(band.minimum <= band.median)
            assert np.all(band.median <= band.maximum)
            # padding carries the last error forward, so bands never increase
            assert np.all(np.diff(band.maximum) <= 0.0)

    def test_padding_carries_final_error(self):
        # convex_tr's replications accept unequal numbers of iterates here,
        # so the shorter ones are padded up to the longest
        suite = di.run_suite(small_logit_spec(methods=("convex_tr",)))
        traces = [suite.results[("convex_tr", r)].error_trace for r in range(3)]
        longest = max(trace.size for trace in traces)
        assert min(trace.size for trace in traces) < longest
        padded = np.array([np.pad(t, (0, longest - t.size), mode="edge") for t in traces])
        band = suite.bands["convex_tr"]
        assert np.array_equal(band.minimum, padded.min(axis=0))
        assert np.array_equal(band.median, np.median(padded, axis=0))
        assert np.array_equal(band.maximum, padded.max(axis=0))

    def test_band_independent_of_other_methods(self):
        # a method's band depends on its own runs only, not on which
        # methods ran beside it
        alone = di.run_suite(small_logit_spec(methods=("convex_tr",)))
        beside = di.run_suite(small_logit_spec(methods=("contraction", "convex_tr")))
        band, other = alone.bands["convex_tr"], beside.bands["convex_tr"]
        for name in ("minimum", "median", "maximum"):
            assert np.array_equal(getattr(band, name), getattr(other, name))
        assert band.empirical_rate == other.empirical_rate

    def test_single_replication_bands_collapse(self):
        spec = small_logit_spec(replications=1)
        suite = di.run_suite(spec)
        for band in suite.bands.values():
            assert np.array_equal(band.minimum, band.maximum)
            assert np.array_equal(band.minimum, band.median)

    def test_rate_estimates_separate_methods(self):
        spec = small_logit_spec(replications=4)
        suite = di.run_suite(spec)
        contraction_rate = suite.bands["contraction"].empirical_rate
        convex_rate = suite.bands["convex_tr"].empirical_rate
        assert 0.5 < contraction_rate < 1.0
        assert convex_rate < 0.5

    def test_start_at_truth_gives_nan_rate(self):
        # every trace has length 1, too short for any rate window
        spec = small_logit_spec(delta_norm=0.0, methods=("convex_tr",))
        suite = di.run_suite(spec)
        band = suite.bands["convex_tr"]
        assert math.isnan(band.empirical_rate)
        assert np.all(band.maximum == band.maximum[0])

    def test_degeneracy_statistics(self):
        spec = small_logit_spec(replications=3, solver=di.SolverConfig(max_iterations=1))
        suite = di.run_suite(spec)
        deg = suite.degeneracy
        for r in range(3):
            _, _, sigma_star = di.make_logit_instance(
                spec.J, spec.M, spec.n, np.random.SeedSequence([spec.master_seed, r, 0])
            )
            assert deg.min_inside_share[r] == sigma_star.min()
            assert deg.outside_share[r] == max(0.0, 1.0 - sigma_star.sum())
            assert deg.min_overall[r] == min(deg.min_inside_share[r], deg.outside_share[r])
        assert deg.fraction_below(2.0) == 1.0
        assert deg.fraction_below(0.0) == 0.0

    def test_failures_recorded_and_excluded_from_bands(self):
        # replications whose target touches the simplex boundary break the
        # contraction precondition; the suite must carry on without them
        spec = di.ExperimentSpec(
            model_family="purechar",
            J=6,
            M=3,
            n=50,
            replications=4,
            delta_norm=5.0,
            solver=di.SolverConfig(max_iterations=40),
            master_seed=0,
        )
        suite = di.run_suite(spec)
        assert suite.failures
        for (method, r), message in suite.failures.items():
            assert method == "contraction"
            assert "unsupported target" in message
            assert (method, r) not in suite.results
        # the other methods always produce a result
        for method in ("convex_tr", "residual_tr"):
            for r in range(4):
                assert (method, r) in suite.results
        assert suite.degeneracy.fraction_below(1e-10) > 0.0
        assert "contraction" in suite.bands

    def test_deterministic_across_runs_and_worker_counts(self, monkeypatch):
        spec = small_logit_spec(replications=3, solver=di.SolverConfig(max_iterations=25))
        monkeypatch.delenv(di.WORKERS_ENV, raising=False)
        first = di.run_suite(spec)
        monkeypatch.setenv(di.WORKERS_ENV, "2")
        second = di.run_suite(spec)
        assert set(first.results) == set(second.results)
        for key, res in first.results.items():
            other = second.results[key]
            assert np.array_equal(res.x_final, other.x_final)
            assert np.array_equal(res.error_trace, other.error_trace)
            assert np.array_equal(res.eval_trace, other.eval_trace)
            assert res.eval_counts == other.eval_counts
        for method, band in first.bands.items():
            assert np.array_equal(band.median, second.bands[method].median)
        assert np.array_equal(first.degeneracy.min_overall, second.degeneracy.min_overall)

    def test_invalid_worker_env_rejected(self, monkeypatch):
        spec = small_logit_spec(replications=2, solver=di.SolverConfig(max_iterations=1))
        monkeypatch.setenv(di.WORKERS_ENV, "zero")
        with pytest.raises(di.InvalidInputError):
            di.run_suite(spec)
        monkeypatch.setenv(di.WORKERS_ENV, "0")
        with pytest.raises(di.InvalidInputError):
            di.run_suite(spec)
