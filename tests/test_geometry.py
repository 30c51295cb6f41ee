import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from optics_coverage.geometry import (
    CoLocatedSensorsError,
    Point2D,
    euclidean_distance,
    overlap_angle,
)

finite_coord = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def mc_boundary_inside_fraction(d, r, samples, seed):
    """Monte-Carlo oracle: fraction of one circle's boundary inside an
    equal disc whose center is d away. Equals alpha / pi."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * np.pi, samples)
    x = r * np.cos(angles)
    y = r * np.sin(angles)
    return float((((x - d) ** 2 + y**2) <= r * r).mean())


class TestEuclideanDistance:
    def test_identity(self):
        assert euclidean_distance(Point2D(0, 0), Point2D(0, 0)) == 0

    def test_3_4_5(self):
        assert euclidean_distance(Point2D(0, 0), Point2D(3, 4)) == 5

    def test_translated_3_4_5(self):
        assert euclidean_distance(Point2D(1.5, 2.5), Point2D(4.5, 6.5)) == 5

    def test_symmetric(self):
        a, b = Point2D(1.2, -3.4), Point2D(-0.7, 9.9)
        assert euclidean_distance(a, b) == euclidean_distance(b, a)

    @given(
        finite_coord, finite_coord, finite_coord,
        finite_coord, finite_coord, finite_coord,
    )
    def test_triangle_inequality(self, ax, ay, bx, by, cx, cy):
        a, b, c = Point2D(ax, ay), Point2D(bx, by), Point2D(cx, cy)
        lhs = euclidean_distance(a, c)
        rhs = euclidean_distance(a, b) + euclidean_distance(b, c)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


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

