import functools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from optics_coverage.geometry import (
    CoLocatedSensorsError,
    Point2D,
    hypot,
    overlap_angle,
    sum_in_order,
)


def mc_boundary_inside_fraction(d, r, samples, seed):
    """Monte-Carlo oracle: fraction of one circle's boundary inside an
    equal disc whose center is d away. Equals alpha / pi."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, samples)
    x = r * np.cos(angles)
    y = r * np.sin(angles)
    return float((((x - d) ** 2 + y**2) <= r * r).mean())


def python_hypot(dx, dy):
    """``math.hypot`` of each pair, the floats ``hypot`` must return."""
    return np.array([math.hypot(u, v) for u, v in zip(dx, dy)], dtype=float)


def assert_same_floats(got, want):
    """Bit for bit: the same sign of zero, and NaN where NaN is wanted."""
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), [
        (i, got[i], want[i]) for i in np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    ][:5]


# the edges of the scaled path: 0, subnormals, the least normal, and both
# sides of 2**-1000 and 2**1000, where math.hypot takes over
EDGES = [
    0.0, -0.0, 5e-324, 2.0**-1060, 2.0**-1022, 2.0**-1000,
    math.nextafter(2.0**-1000, 0), math.nextafter(2.0**-1000, 1),
    2.0**1000, math.nextafter(2.0**1000, 0), math.nextafter(2.0**1000, math.inf),
    1.7976931348623157e308, 1.0, 3.0, 4.0,
]
any_float = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGES)


class TestHypot:
    @given(st.lists(st.tuples(any_float, any_float), max_size=40))
    @example([(3.0, 4.0), (0.0, -0.0), (-0.0, 0.0), (5e-324, 5e-324), (2.0**-1000, 1.0)])
    @example([(2.0**1000, 2.0**1000), (1.7976931348623157e308, 1.7976931348623157e308)])
    @example([(a, b) for a in EDGES for b in EDGES])
    @example([])
    def test_equals_math_hypot_bit_for_bit(self, pairs):
        dx = np.array([u for u, _ in pairs], dtype=float)
        dy = np.array([v for _, v in pairs], dtype=float)
        assert_same_floats(hypot(dx, dy), python_hypot(dx, dy))

    def test_deployment_like_differences(self):
        # pair differences of a 158 m field at reach 10: the table's inputs
        rng = np.random.default_rng(20)
        x, y = rng.uniform(0, 158.1, (2, 100_000))
        dx = (x + rng.uniform(-10, 10, x.size)) - x
        dy = (y + rng.uniform(-10, 10, y.size)) - y
        assert_same_floats(hypot(dx, dy), python_hypot(dx, dy))

    def test_leaves_its_arguments_unchanged(self):
        # every step writes into an array of its own making, never an argument
        dx = np.array([3.0, -0.0, 2.0**1000, 1.5, -7.25])
        dy = np.array([-4.0, 0.0, 1.0, 2.0**-1100, 0.5])
        kept = dx.copy(), dy.copy()
        assert_same_floats(hypot(dx, dy), python_hypot(dx, dy))
        assert_same_floats(dx, kept[0])
        assert_same_floats(dy, kept[1])

    def test_non_finite_entries_as_math_hypot(self):
        dx = np.array([math.nan, math.inf, -math.inf, math.nan, 3.0, 0.0])
        dy = np.array([1.0, math.nan, 2.0, math.nan, 4.0, 0.0])
        assert_same_floats(hypot(dx, dy), python_hypot(dx, dy))

    def test_math_hypot_answers_outside_the_scaled_range(self, monkeypatch):
        asked, exact = [], math.hypot

        def spy(u, v):
            asked.append((u, v))
            return exact(u, v)

        monkeypatch.setattr(math, "hypot", spy)
        dx = np.array([3.0, 0.0, 2.0**-1000, 2.0**1000, 1.5])
        dy = np.array([4.0, -0.0, 2.0**-1001, 1.0, 2.0**-1100])
        got = hypot(dx, dy)
        assert asked == [(0.0, -0.0), (2.0**-1000, 2.0**-1001), (2.0**1000, 1.0)]
        assert got.tolist() == [5.0, 0.0, *[exact(*pair) for pair in asked[1:]], 1.5]


class TestOverlapAngle:
    def test_tangent_discs(self):
        assert overlap_angle(10, 5) == 0

    def test_disjoint_discs(self):
        assert overlap_angle(12, 5) == 0

    def test_half_radius_separation(self):
        # frozen from the boundary-sampling oracle: a third of the circle
        assert overlap_angle(5, 5) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_mc_oracle_confirms_frozen_value(self):
        frac = mc_boundary_inside_fraction(5, 5, 10**6, seed=7)
        assert frac == pytest.approx(1 / 3, rel=0.01)

    def test_coincident_centers_rejected(self):
        with pytest.raises(CoLocatedSensorsError):
            overlap_angle(0, 5)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            overlap_angle(-1, 5)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            overlap_angle(1, 0)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -1.0])
    def test_radius_must_be_positive_and_finite(self, r):
        # a NaN radius read 0.0 and an infinite one pi/2
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            overlap_angle(1, r)

    def test_nan_distance_rejected(self):
        # it read 0.0, as if the discs were disjoint
        with pytest.raises(ValueError, match="distance must be non-negative, got nan"):
            overlap_angle(math.nan, 5)

    def test_infinite_distance_is_disjoint(self):
        assert overlap_angle(math.inf, 5) == 0.0

    def test_monotone_non_increasing_in_d(self):
        r = 5.0
        rng = random.Random(123)
        for _ in range(200):
            d1 = rng.uniform(1e-6, 2 * r)
            d2 = rng.uniform(d1, 2 * r)
            assert overlap_angle(d2, r) <= overlap_angle(d1, r)

    @pytest.mark.parametrize("frac", [0.2, 0.5, 0.8])
    def test_mc_oracle_at_standard_separations(self, frac):
        r, samples = 5.0, 10**6
        d = frac * 2 * r
        inside = mc_boundary_inside_fraction(d, r, samples, seed=int(frac * 100))
        assert overlap_angle(d, r) / math.pi == pytest.approx(inside, rel=0.01)

    @given(st.floats(1e-6, 1.0), st.floats(0.01, 100.0))
    def test_range(self, frac, r):
        alpha = overlap_angle(frac * 2 * r, r)
        assert 0 <= alpha <= math.pi / 2


class TestTypes:
    def test_point_must_be_finite(self):
        with pytest.raises(ValueError):
            Point2D(math.nan, 0)
        with pytest.raises(ValueError):
            Point2D(0, math.inf)



class TestSumInOrder:
    def test_adds_one_value_at_a_time(self):
        # 1e16 + 1.0 rounds back to 1e16, twice; a compensated sum
        # (math.fsum, or Python's sum from 3.12 on) gives 1e16 + 2
        assert sum_in_order([1e16, 1.0, 1.0]) == 1e16
        assert math.fsum([1e16, 1.0, 1.0]) == 1e16 + 2
        assert sum_in_order([0.1] * 10) == 0.9999999999999999
        assert sum_in_order(np.array([0.1] * 10)) == 0.9999999999999999

    def test_nothing_sums_to_zero(self):
        assert sum_in_order([]) == 0.0

    @given(st.lists(st.floats(width=64), min_size=1, max_size=50))
    @example([1.7976931348623157e308, 1.7976931348623157e308])
    @example([math.inf, -math.inf])
    @example([-0.0, -0.0])
    def test_is_a_left_fold(self, values):
        total = sum_in_order(values)
        assert type(total) is float
        assert repr(total) == repr(functools.reduce(operator.add, values))
