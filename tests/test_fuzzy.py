"""Trapezoidal membership, areas, and the non-exclusive degree."""

import math

import numpy as np
import pytest

from dnfusion import TrapezoidalFuzzyNumber, non_exclusive_degree
from dnfusion.fuzzy import _envelope_areas

from oracles import riemann_area, riemann_envelope_areas


def shifted(t, offset):
    """The same shape translated along the axis by ``offset``."""
    return TrapezoidalFuzzyNumber(t.a + offset, t.b + offset, t.c + offset, t.d + offset)


# the five-level [0, 1] scale, also exercised end to end in test_exclusivity
LOW = TrapezoidalFuzzyNumber(0.04, 0.10, 0.18, 0.23)
FAIRLY_LOW = TrapezoidalFuzzyNumber(0.17, 0.22, 0.36, 0.42)
MEDIUM = TrapezoidalFuzzyNumber(0.32, 0.41, 0.58, 0.65)
FAIRLY_HIGH = TrapezoidalFuzzyNumber(0.58, 0.63, 0.80, 0.86)
HIGH = TrapezoidalFuzzyNumber(0.72, 0.78, 0.92, 0.97)


class TestValidation:
    def test_breakpoints_must_be_sorted(self):
        with pytest.raises(ValueError, match="a <= b <= c <= d"):
            TrapezoidalFuzzyNumber(0.3, 0.1, 0.4, 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            TrapezoidalFuzzyNumber(0.0, 0.1, 0.2, float("inf"))
        with pytest.raises(ValueError, match="finite"):
            TrapezoidalFuzzyNumber(float("nan"), 0.1, 0.2, 0.3)

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError, match="number"):
            TrapezoidalFuzzyNumber("0.1", 0.2, 0.3, 0.4)
        with pytest.raises(ValueError, match="number"):
            TrapezoidalFuzzyNumber(True, 0.2, 0.3, 0.4)

    def test_rejects_overflowing_support(self):
        with pytest.raises(ValueError, match="overflows"):
            TrapezoidalFuzzyNumber(-1.5e308, 0.0, 0.0, 1.5e308)

    def test_degenerate_forms_allowed(self):
        TrapezoidalFuzzyNumber(2.0, 2.0, 2.0, 2.0)
        TrapezoidalFuzzyNumber(1.0, 2.0, 2.0, 3.0)
        TrapezoidalFuzzyNumber(1.0, 1.0, 2.0, 3.0)

    def test_integer_breakpoints_coerced(self):
        t = TrapezoidalFuzzyNumber(1, 2, 3, 4)
        assert t.a == 1.0 and isinstance(t.a, float)

    def test_negative_axis_allowed(self):
        t = TrapezoidalFuzzyNumber(-60.0, -50.0, -4.0, -1.0)
        assert t.membership(-20.0) == 1.0


class TestMembership:
    def test_plateau_is_one(self):
        assert LOW.membership(0.14) == 1.0

    def test_outside_support_is_zero(self):
        assert LOW.membership(0.30) == 0.0
        assert LOW.membership(0.0) == 0.0

    def test_rising_edge_interpolates(self):
        # (0.07 - 0.04) / (0.10 - 0.04) = 0.5
        assert LOW.membership(0.07) == pytest.approx(0.5, abs=1e-12)

    def test_falling_edge_interpolates(self):
        # (0.23 - 0.20) / (0.23 - 0.18) = 0.6
        assert LOW.membership(0.20) == pytest.approx(0.6, abs=1e-12)

    def test_support_endpoints_are_zero(self):
        assert LOW.membership(0.04) == 0.0
        assert LOW.membership(0.23) == 0.0

    def test_shoulder_points_are_one(self):
        assert LOW.membership(0.10) == 1.0
        assert LOW.membership(0.18) == 1.0

    def test_crisp_point(self):
        t = TrapezoidalFuzzyNumber(5.0, 5.0, 5.0, 5.0)
        assert t.membership(5.0) == 1.0
        assert t.membership(5.0 + 1e-9) == 0.0
        assert t.membership(4.0) == 0.0

    def test_flat_side_wins_at_degenerate_edges(self):
        left_crisp = TrapezoidalFuzzyNumber(1.0, 1.0, 2.0, 3.0)
        assert left_crisp.membership(1.0) == 1.0
        right_crisp = TrapezoidalFuzzyNumber(1.0, 2.0, 3.0, 3.0)
        assert right_crisp.membership(3.0) == 1.0

    @pytest.mark.parametrize("shape", [LOW, FAIRLY_LOW, MEDIUM, FAIRLY_HIGH, HIGH])
    def test_matches_linear_interpolation_tabulation(self, shape):
        xs = np.linspace(shape.a - 0.05, shape.d + 0.05, 10001)
        expected = np.interp(xs, [shape.a, shape.b, shape.c, shape.d], [0.0, 1.0, 1.0, 0.0])
        worst = max(abs(shape.membership(float(x)) - e) for x, e in zip(xs, expected))
        assert worst <= 1e-12


class TestArea:
    @pytest.mark.parametrize(
        "shape,expected",
        [
            (LOW, 0.135),
            (FAIRLY_LOW, 0.195),
            (MEDIUM, 0.25),
            (FAIRLY_HIGH, 0.225),
            (HIGH, 0.195),
        ],
    )
    def test_closed_form(self, shape, expected):
        # ((d - a) + (c - b)) / 2
        assert shape.area() == pytest.approx(expected, abs=1e-12)

    def test_crisp_area_is_zero(self):
        assert TrapezoidalFuzzyNumber(2.0, 2.0, 2.0, 2.0).area() == 0.0

    def test_triangular_area(self):
        # half of the base length
        t = TrapezoidalFuzzyNumber(0.0, 1.0, 1.0, 4.0)
        assert t.area() == pytest.approx(2.0, abs=1e-12)

    def test_matches_riemann_oracle(self):
        assert MEDIUM.area() == pytest.approx(riemann_area(MEDIUM), abs=1e-9)
        assert HIGH.area() == pytest.approx(riemann_area(HIGH), abs=1e-9)


class TestEnvelopeAreas:
    def test_adjacent_scale_pair(self):
        # overlap of the low and fairly-low granules:
        # crossing heights 1/6 and 2/3 bound two triangles and the ramp piece
        s, u = _envelope_areas(LOW, FAIRLY_LOW)
        assert s == pytest.approx(0.018, abs=1e-12)
        assert u == pytest.approx(0.312, abs=1e-12)

    def test_high_scale_pair(self):
        s, u = _envelope_areas(FAIRLY_HIGH, HIGH)
        assert s == pytest.approx(0.08, abs=1e-12)
        assert u == pytest.approx(0.34, abs=1e-12)

    def test_disjoint_supports(self):
        s, u = _envelope_areas(LOW, MEDIUM)
        assert s == 0.0
        assert u == pytest.approx(LOW.area() + MEDIUM.area(), abs=1e-12)

    def test_touching_supports_share_nothing(self):
        left = TrapezoidalFuzzyNumber(0.0, 0.1, 0.2, 0.3)
        right = TrapezoidalFuzzyNumber(0.3, 0.4, 0.5, 0.6)
        assert _envelope_areas(left, right)[0] == 0.0

    def test_self_envelope_is_area(self):
        s, u = _envelope_areas(MEDIUM, MEDIUM)
        assert s == pytest.approx(MEDIUM.area(), abs=1e-12)
        assert u == pytest.approx(MEDIUM.area(), abs=1e-12)

    def test_inclusion_exclusion_on_scale_pairs(self):
        pairs = [(LOW, FAIRLY_LOW), (FAIRLY_LOW, MEDIUM), (MEDIUM, FAIRLY_HIGH), (FAIRLY_HIGH, HIGH)]
        for t1, t2 in pairs:
            s, u = _envelope_areas(t1, t2)
            assert s + u == pytest.approx(t1.area() + t2.area(), abs=1e-12)

    def test_symmetric_bit_for_bit(self):
        pairs = [(LOW, FAIRLY_LOW), (MEDIUM, FAIRLY_HIGH), (FAIRLY_HIGH, HIGH)]
        for t1, t2 in pairs:
            assert _envelope_areas(t1, t2) == _envelope_areas(t2, t1)

    def test_matches_riemann_oracle(self):
        for t1, t2 in [(LOW, FAIRLY_LOW), (FAIRLY_HIGH, HIGH)]:
            s_ref, u_ref = riemann_envelope_areas(t1, t2)
            s, u = _envelope_areas(t1, t2)
            assert s == pytest.approx(s_ref, abs=1e-6)
            assert u == pytest.approx(u_ref, abs=1e-6)

    def test_crisp_against_trapezoid(self):
        crisp = TrapezoidalFuzzyNumber(0.14, 0.14, 0.14, 0.14)
        s, u = _envelope_areas(crisp, LOW)
        assert s == 0.0
        assert u == pytest.approx(LOW.area(), abs=1e-12)

    def test_translation_leaves_areas_unchanged(self):
        offset = 17.5
        s0, u0 = _envelope_areas(LOW, FAIRLY_LOW)
        s1, u1 = _envelope_areas(shifted(LOW, offset), shifted(FAIRLY_LOW, offset))
        assert s1 == pytest.approx(s0, abs=1e-12)
        assert u1 == pytest.approx(u0, abs=1e-12)

    def test_power_of_two_scaling_is_exact_near_float_max(self):
        # both ends of an interval past half of float max: a midpoint taken as
        # 0.5 * (x0 + x1) would overflow to inf, where membership reads 0
        scale = 2.0**1023
        pairs = [
            ((1.0, 1.2, 1.5, 1.6), (1.1, 1.3, 1.4, 1.7)),
            ((0.5, 0.6, 0.8, 1.0), (0.55, 0.7, 0.9, 1.1)),
        ]
        for p, q in pairs:
            t1, t2 = TrapezoidalFuzzyNumber(*p), TrapezoidalFuzzyNumber(*q)
            big1 = TrapezoidalFuzzyNumber(*(x * scale for x in p))
            big2 = TrapezoidalFuzzyNumber(*(x * scale for x in q))
            s, u = _envelope_areas(t1, t2)
            big_s, big_u = _envelope_areas(big1, big2)
            assert big_s == s * scale
            assert big_u == u * scale
            assert non_exclusive_degree(big1, big2) == non_exclusive_degree(t1, t2)


class TestNonExclusiveDegree:
    def test_adjacent_scale_pairs(self):
        # 0.018 / 0.312, 0.08 / 0.34
        assert non_exclusive_degree(LOW, FAIRLY_LOW) == pytest.approx(0.0577, abs=5e-5)
        assert non_exclusive_degree(FAIRLY_LOW, MEDIUM) == pytest.approx(0.081, abs=5e-5)
        assert non_exclusive_degree(MEDIUM, FAIRLY_HIGH) == pytest.approx(0.0449, abs=5e-5)
        assert non_exclusive_degree(FAIRLY_HIGH, HIGH) == pytest.approx(0.2353, abs=5e-5)

    def test_disjoint_is_zero(self):
        assert non_exclusive_degree(LOW, MEDIUM) == 0.0
        assert non_exclusive_degree(LOW, HIGH) == 0.0

    def test_identical_is_one(self):
        assert non_exclusive_degree(MEDIUM, MEDIUM) == 1.0

    def test_nested_shapes(self):
        # inner sits inside the outer plateau: 0.2 / 0.6
        outer = TrapezoidalFuzzyNumber(0.0, 0.1, 0.6, 0.7)
        inner = TrapezoidalFuzzyNumber(0.2, 0.3, 0.4, 0.5)
        assert non_exclusive_degree(outer, inner) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_crisp_conventions(self):
        five = TrapezoidalFuzzyNumber(5.0, 5.0, 5.0, 5.0)
        five_again = TrapezoidalFuzzyNumber(5.0, 5.0, 5.0, 5.0)
        seven = TrapezoidalFuzzyNumber(7.0, 7.0, 7.0, 7.0)
        assert non_exclusive_degree(five, five_again) == 1.0
        assert non_exclusive_degree(five, seven) == 0.0

    def test_touching_supports_are_exactly_zero(self):
        left = TrapezoidalFuzzyNumber(0.0, 0.1, 0.2, 0.3)
        right = TrapezoidalFuzzyNumber(0.3, 0.4, 0.5, 0.6)
        assert non_exclusive_degree(left, right) == 0.0
        assert non_exclusive_degree(right, left) == 0.0

    def test_crisp_point_at_a_support_end_is_zero(self):
        for x in (LOW.a, LOW.d):
            crisp = TrapezoidalFuzzyNumber(x, x, x, x)
            assert non_exclusive_degree(crisp, LOW) == 0.0
            assert non_exclusive_degree(LOW, crisp) == 0.0

    def test_crisp_point_touching_a_rectangle_is_zero(self):
        # both memberships are 1 at the shared point, which has no width
        crisp = TrapezoidalFuzzyNumber(2.0, 2.0, 2.0, 2.0)
        below = TrapezoidalFuzzyNumber(1.0, 1.0, 2.0, 2.0)
        above = TrapezoidalFuzzyNumber(2.0, 2.0, 3.0, 3.0)
        for rectangle in (below, above):
            assert non_exclusive_degree(crisp, rectangle) == 0.0
            assert non_exclusive_degree(rectangle, crisp) == 0.0

    def test_flat_sides_touching_next_to_a_one_ulp_interval_are_zero(self):
        # the midpoint of [2, 2 + ulp] rounds onto 2, where both flat sides
        # read 1, so the envelope sum finds an intersection of one ulp
        left = TrapezoidalFuzzyNumber(0.0, 1.0, 2.0, 2.0)
        right = TrapezoidalFuzzyNumber(2.0, 2.0, math.nextafter(2.0, 3.0), 4.0)
        assert _envelope_areas(left, right)[0] > 0.0
        assert non_exclusive_degree(left, right) == 0.0
        assert non_exclusive_degree(right, left) == 0.0

    def test_crisp_inside_trapezoid_is_zero(self):
        crisp = TrapezoidalFuzzyNumber(0.14, 0.14, 0.14, 0.14)
        assert non_exclusive_degree(crisp, LOW) == 0.0

    def test_symmetric_bit_for_bit(self):
        assert non_exclusive_degree(LOW, FAIRLY_LOW) == non_exclusive_degree(FAIRLY_LOW, LOW)

    def test_translation_invariant(self):
        d0 = non_exclusive_degree(FAIRLY_HIGH, HIGH)
        d1 = non_exclusive_degree(shifted(FAIRLY_HIGH, -3.25), shifted(HIGH, -3.25))
        assert d1 == pytest.approx(d0, abs=1e-12)
