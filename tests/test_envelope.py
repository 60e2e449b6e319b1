"""Upper envelope of lines: contract examples, tie rules, structural
invariants, and equivalence with brute-force grid argmax."""

import math

import numpy as np
import pytest

import demandinv as di
from oracles import grid_argmax_owner


def owner_at(segments, t):
    for seg in segments:
        if seg.lower <= t <= seg.upper:
            return seg.owner
    raise AssertionError(f"no segment covers {t}")


def check_structure(segments):
    assert segments[0].lower == -math.inf
    assert segments[-1].upper == math.inf
    for left, right in zip(segments, segments[1:]):
        assert left.upper == right.lower  # contiguous cover
        assert left.lower < left.upper  # no zero-width pieces
        assert left.owner != right.owner
        assert left.b < right.b  # slopes strictly increasing


class TestContractExamples:
    def test_single_crossing_at_zero(self):
        segs = di.upper_envelope([(1, 0.0, 1.0)], include_zero_line=True)
        assert [(s.owner, s.lower, s.upper) for s in segs] == [
            (di.OUTSIDE, -math.inf, 0.0),
            (1, 0.0, math.inf),
        ]

    def test_constant_line_above_zero(self):
        segs = di.upper_envelope([(1, 1.0, 0.0)], include_zero_line=True)
        assert [(s.owner, s.lower, s.upper) for s in segs] == [(1, -math.inf, math.inf)]

    def test_random_lines_match_grid_argmax(self):
        for seed in (0, 1, 2, 3, 4):
            rng = np.random.default_rng(seed)
            lines = [(j, float(rng.normal()), float(rng.normal())) for j in range(10)]
            segs = di.upper_envelope(lines, include_zero_line=True)
            check_structure(segs)
            ts = rng.uniform(-8.0, 8.0, 2000)
            expected = grid_argmax_owner(lines, True, ts)
            got = np.array([owner_at(segs, t) for t in ts])
            assert np.array_equal(got, expected)


class TestTieRules:
    def test_coincident_products_prefer_lower_index(self):
        segs = di.upper_envelope([(4, 1.0, 2.0), (2, 1.0, 2.0)], include_zero_line=False)
        assert [s.owner for s in segs] == [2]

    def test_outside_loses_ties(self):
        segs = di.upper_envelope([(3, 0.0, 0.0)], include_zero_line=True)
        assert [s.owner for s in segs] == [3]

    def test_equal_slope_keeps_highest_intercept(self):
        segs = di.upper_envelope(
            [(0, -1.0, 1.0), (1, 2.0, 1.0), (2, 0.5, 0.0)], include_zero_line=True
        )
        owners = {s.owner for s in segs}
        assert 0 not in owners and 1 in owners

    def test_line_below_zero_never_appears(self):
        segs = di.upper_envelope([(0, -1.0, 0.0)], include_zero_line=True)
        assert [s.owner for s in segs] == [di.OUTSIDE]


class TestEdgeCases:
    def test_zero_line_alone(self):
        segs = di.upper_envelope([], include_zero_line=True)
        assert [(s.owner, s.a, s.b) for s in segs] == [(di.OUTSIDE, 0.0, 0.0)]

    def test_single_line_without_zero(self):
        segs = di.upper_envelope([(0, -5.0, 0.2)], include_zero_line=False)
        assert [s.owner for s in segs] == [0]

    def test_middle_line_can_be_dominated(self):
        # steep and flat lines meet below a line that never wins
        lines = [(0, 0.0, 0.0), (1, -100.0, 1.0), (2, 0.0, 2.0)]
        segs = di.upper_envelope(lines, include_zero_line=False)
        assert [s.owner for s in segs] == [0, 2]

    def test_no_lines_at_all_rejected(self):
        with pytest.raises(di.InvalidInputError):
            di.upper_envelope([], include_zero_line=False)

    def test_nonfinite_rejected(self):
        with pytest.raises(di.InvalidInputError):
            di.upper_envelope([(0, math.nan, 1.0)], include_zero_line=True)
        with pytest.raises(di.InvalidInputError):
            di.upper_envelope([(0, 0.0, math.inf)], include_zero_line=True)

    @pytest.mark.parametrize("a", [0.5, -0.5])
    @pytest.mark.parametrize("b", [5e-324, -5e-324])
    def test_subnormal_slope_against_zero_line(self, a, b):
        # the crossing with the zero line overflows to +-inf
        lines = [(0, a, b)]
        segs = di.upper_envelope(lines, include_zero_line=True)
        check_structure(segs)
        assert all(seg.lower < seg.upper for seg in segs)
        ts = np.linspace(-1e300, 1e300, 101)
        expected = grid_argmax_owner(lines, True, ts)
        assert np.array_equal([owner_at(segs, t) for t in ts], expected)

    def test_many_parallel_lines(self):
        lines = [(j, float(j), 1.0) for j in range(5)]
        segs = di.upper_envelope(lines, include_zero_line=True)
        check_structure(segs)
        assert [s.owner for s in segs] == [di.OUTSIDE, 4]
