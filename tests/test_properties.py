"""Property-based invariants for envelope areas and combination."""

import math
import random
from fractions import Fraction
from itertools import combinations, pairwise
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dnfusion import (
    Curve,
    DNumber,
    EvidenceBody,
    Frame,
    IntrusionModel,
    RiskTriple,
    Scenario,
    TotalConflict,
    TrapezoidalFuzzyNumber,
    assess_risk,
    combine_all,
    evidence_to_dnumber,
    exclusive_coefficient,
    non_exclusive_degree,
    relative_matrix,
)
from dnfusion.dnumber import COMPLETENESS_TOL, MASS_FLOOR
from dnfusion.exclusivity import Granulation
from dnfusion.fuzzy import _envelope_areas, _grid
from dnfusion.intrusion import BODY_NAMES, NOT_POSSIBLE, POSSIBLE, UNKNOWN

from generators import smooth_trapezoid
from oracles import rational_combine, riemann_envelope_areas


def shifted(t, offset):
    """The same shape translated along the axis by ``offset``."""
    return TrapezoidalFuzzyNumber(t.a + offset, t.b + offset, t.c + offset, t.d + offset)


coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def trapezoids(draw):
    xs = sorted(draw(st.lists(coords, min_size=4, max_size=4)))
    kind = draw(st.sampled_from(("general", "triangular", "crisp")))
    if kind == "crisp":
        return TrapezoidalFuzzyNumber(xs[0], xs[0], xs[0], xs[0])
    if kind == "triangular":
        return TrapezoidalFuzzyNumber(xs[0], xs[1], xs[1], xs[3])
    return TrapezoidalFuzzyNumber(*xs)


@st.composite
def strict_trapezoids(draw):
    xs = sorted(draw(st.lists(coords, min_size=4, max_size=4, unique=True)))
    return TrapezoidalFuzzyNumber(*xs)


@st.composite
def separated_pairs(draw):
    """Two shapes whose supports are disjoint or touch: the second starts at or
    after the first's ``d``."""
    t1, t2 = draw(trapezoids()), draw(trapezoids())
    start = t1.d + draw(st.floats(min_value=0.0, max_value=10.0))
    widths = (t2.b - t2.a, t2.c - t2.a, t2.d - t2.a)
    return t1, TrapezoidalFuzzyNumber(start, *(start + w for w in widths))


LABEL_POOL = ("a", "b", "c", "d")


@st.composite
def complete_dnumber(draw, frame):
    subsets = [
        frozenset(c)
        for size in range(1, len(frame.labels) + 1)
        for c in combinations(frame.labels, size)
    ]
    chosen = draw(
        st.lists(st.sampled_from(subsets), min_size=1, max_size=4, unique=True)
    )
    weights = draw(
        st.lists(st.integers(1, 1000), min_size=len(chosen), max_size=len(chosen))
    )
    total = sum(weights)
    return DNumber(
        frame, {tuple(sorted(s)): w / total for s, w in zip(chosen, weights)}
    )


@st.composite
def dnumber_group(draw, count, max_labels=4):
    n = draw(st.integers(2, max_labels))
    frame = Frame(LABEL_POOL[:n])
    return tuple(draw(complete_dnumber(frame)) for _ in range(count))


class TestEnvelopeProperties:
    @given(trapezoids(), trapezoids())
    def test_inclusion_exclusion(self, t1, t2):
        s, u = _envelope_areas(t1, t2)
        assert s + u == pytest.approx(t1.area() + t2.area(), abs=1e-12)

    @given(trapezoids(), trapezoids())
    def test_bounds(self, t1, t2):
        s, u = _envelope_areas(t1, t2)
        assert 0.0 <= s <= min(t1.area(), t2.area()) + 1e-12
        assert max(t1.area(), t2.area()) - 1e-12 <= u <= t1.area() + t2.area() + 1e-12

    @given(trapezoids(), trapezoids())
    # crossings that round to a neighbour of a breakpoint: 2.8999999999999995
    # next to 2.9, and 0.30000000000000027 next to 0.3
    @example(
        t1=TrapezoidalFuzzyNumber(0.0, 0.1, 0.3, 2.9),
        t2=TrapezoidalFuzzyNumber(0.0, 1.3, 1.3, 2.9),
    )
    @example(
        t1=TrapezoidalFuzzyNumber(0.2, 0.2, 0.3, 3.3),
        t2=TrapezoidalFuzzyNumber(0.0, 0.3, 3.3, 3.3),
    )
    def test_argument_order_is_irrelevant(self, t1, t2):
        assert _envelope_areas(t1, t2) == _envelope_areas(t2, t1)

    @given(trapezoids(), trapezoids(), st.floats(min_value=-100.0, max_value=100.0))
    def test_translation_invariance(self, t1, t2, offset):
        before = _envelope_areas(t1, t2)
        after = _envelope_areas(shifted(t1, offset), shifted(t2, offset))
        assert after[0] == pytest.approx(before[0], abs=1e-12)
        assert after[1] == pytest.approx(before[1], abs=1e-12)

    @given(trapezoids(), trapezoids())
    @example(
        t1=TrapezoidalFuzzyNumber(0.0, 0.0, 0.0, 2.0681934292004549e-224),
        t2=TrapezoidalFuzzyNumber(-1.0, -1.0, -1.0, -1.0),
    )
    @example(
        t1=TrapezoidalFuzzyNumber(0.0, 0.1, 0.3, 2.9),
        t2=TrapezoidalFuzzyNumber(0.0, 1.3, 1.3, 2.9),
    )
    @example(
        t1=TrapezoidalFuzzyNumber(0.2, 0.2, 0.3, 3.3),
        t2=TrapezoidalFuzzyNumber(0.0, 0.3, 3.3, 3.3),
    )
    def test_degree_is_a_proportion(self, t1, t2):
        assert 0.0 <= non_exclusive_degree(t1, t2) <= 1.0

    @given(separated_pairs())
    def test_separated_supports_match_the_envelope_areas(self, pair):
        t1, t2 = pair
        # two crisp points keep their limit convention
        assume(t1.a < t1.d or t2.a < t2.d)
        # The midpoint sum is exact only where each midpoint falls inside its
        # interval. At a one-ulp interval next to the touching point it can
        # round onto that point and find an intersection (pinned in
        # test_fuzzy), which the degree rightly ignores.
        assume(all(x0 < 0.5 * x0 + 0.5 * x1 < x1 for x0, x1 in pairwise(_grid(t1, t2))))
        s, u = _envelope_areas(t1, t2)
        # both areas can underflow at subnormal breakpoints, leaving no ratio
        assume(u > 0.0)
        degree = non_exclusive_degree(t1, t2)
        assert degree == s / u
        assert non_exclusive_degree(t2, t1) == degree

    @given(trapezoids())
    def test_self_degree_is_one_for_positive_area(self, t):
        assume(t.area() > 0.0)
        assert non_exclusive_degree(t, t) == pytest.approx(1.0, abs=1e-12)

    @given(
        strict_trapezoids(),
        st.floats(min_value=-51.0, max_value=51.0, allow_nan=False),
    )
    def test_membership_matches_tabulated_interpolation(self, t, x):
        expected = float(np.interp(x, [t.a, t.b, t.c, t.d], [0.0, 1.0, 1.0, 0.0]))
        assert t.membership(x) == pytest.approx(expected, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_midpoint_riemann_oracle(self, seed):
        rng = random.Random(seed)
        t1 = smooth_trapezoid(rng)
        t2 = smooth_trapezoid(rng)
        s_ref, u_ref = riemann_envelope_areas(t1, t2)
        s, u = _envelope_areas(t1, t2)
        assert s == pytest.approx(s_ref, abs=1e-6)
        assert u == pytest.approx(u_ref, abs=1e-6)


class TestExclusivityProperties:
    @given(st.permutations(range(5)))
    def test_coefficient_ignores_granule_order(self, scale, order):
        baseline = exclusive_coefficient(relative_matrix(scale))
        pairs = tuple((scale.labels[i], scale.shapes[i]) for i in order)
        shuffled = exclusive_coefficient(relative_matrix(Granulation(pairs)))
        assert shuffled == pytest.approx(baseline, abs=1e-12)


class TestCombinationProperties:
    @given(dnumber_group(2))
    def test_commutativity_is_exact(self, pair):
        d1, d2 = pair
        try:
            forward = d1.combine(d2)
        except TotalConflict:
            with pytest.raises(TotalConflict):
                d2.combine(d1)
            return
        backward = d2.combine(d1)
        assert forward == backward

    @given(dnumber_group(3))
    def test_associativity(self, triple):
        d1, d2, d3 = triple
        try:
            left = d1.combine(d2).combine(d3)
            right = d1.combine(d2.combine(d3))
        except TotalConflict:
            assume(False)
        assert set(left.masses) == set(right.masses)
        for focal, mass in left.masses.items():
            assert mass == pytest.approx(right.masses[focal], abs=1e-9)

    @given(dnumber_group(2))
    def test_combination_preserves_completeness(self, pair):
        d1, d2 = pair
        try:
            fused = d1.combine(d2)
        except TotalConflict:
            assume(False)
        assert fused.completeness() == pytest.approx(1.0, abs=1e-9)

    @given(dnumber_group(2, max_labels=3))
    @example(
        pair=(
            DNumber(Frame(("a", "b", "c")), {("a",): 1.0}),
            DNumber(Frame(("a", "b", "c")), {("b",): 1 / 3, ("c",): 2 / 3}),
        )
    )
    def test_matches_exact_rational_arithmetic(self, pair):
        d1, d2 = pair
        oracle = rational_combine(d1, d2)
        try:
            fused = d1.combine(d2)
        except TotalConflict:
            assert oracle is None
            return
        assert oracle is not None
        assert set(fused.masses) == set(oracle)
        for focal, mass in fused.masses.items():
            assert mass == pytest.approx(float(oracle[focal]), abs=1e-12)

    @given(dnumber_group(1))
    def test_vacuous_is_neutral(self, single):
        (d,) = single
        fused = d.combine(DNumber.vacuous(d.frame))
        assert set(fused.masses) == set(d.masses)
        for focal, mass in d.masses.items():
            assert fused.masses[focal] == pytest.approx(mass, abs=1e-12)


class TestDiscountProperties:
    @given(dnumber_group(1))
    def test_zero_discount_is_identity(self, single):
        (d,) = single
        assert d.discount(0.0) == d

    @given(dnumber_group(1), st.floats(min_value=0.0, max_value=1.0))
    def test_discount_preserves_completeness(self, single, epsilon):
        (d,) = single
        assert d.discount(epsilon).completeness() == pytest.approx(1.0, abs=1e-9)

    @given(dnumber_group(1), st.floats(min_value=0.0, max_value=1.0))
    def test_discount_scales_proper_masses(self, single, epsilon):
        (d,) = single
        discounted = d.discount(epsilon)
        theta = d.frame.theta
        for focal, mass in d.masses.items():
            if focal != theta:
                expected = mass * (1.0 - epsilon)
                if expected >= 1e-12:
                    assert discounted.masses[focal] == expected


@st.composite
def body_and_value(draw):
    shapes = draw(st.lists(trapezoids(), min_size=1, max_size=5))
    focals = draw(
        st.lists(
            st.sampled_from((POSSIBLE, UNKNOWN, NOT_POSSIBLE)),
            min_size=len(shapes),
            max_size=len(shapes),
        )
    )
    curves = tuple(Curve(f"c{i}", f, t) for i, (f, t) in enumerate(zip(focals, shapes)))
    breakpoints = [x for t in shapes for x in (t.a, t.b, t.c, t.d)]
    value = draw(st.one_of(st.sampled_from(breakpoints), st.floats(-60.0, 60.0)))
    return EvidenceBody("pathway", "u", curves, 0.1), value


@st.composite
def model_and_scenario(draw):
    bodies, values = [], []
    for name in BODY_NAMES:
        body, value = draw(body_and_value())
        bodies.append(EvidenceBody(name, "u", body.curves, draw(st.floats(0.0, 1.0))))
        values.append(value)
    breaks, pressure, distance = values
    return IntrusionModel(*bodies), Scenario(breaks, pressure, abs(distance))


class TestAssessRiskProperties:
    @given(model_and_scenario())
    def test_mask_read_matches_the_public_view(self, drawn):
        model, scenario = drawn
        values = (scenario.breaks, scenario.pressure, scenario.distance)
        discounted = [
            evidence_to_dnumber(body, value).discount(body.epsilon)
            for body, value in zip(model.bodies, values)
        ]
        try:
            masses = combine_all(discounted).masses
        except TotalConflict:
            with pytest.raises(TotalConflict):
                assess_risk(scenario, model)
            return
        focals = (POSSIBLE, UNKNOWN, NOT_POSSIBLE)
        triple = assess_risk(scenario, model)
        # RiskTriple checks nothing, so the invariant its masses keep is pinned here
        assert all(0.0 <= m <= 1.0 for m in (triple.p, triple.p_np, triple.np))
        assert abs(triple.p + triple.p_np + triple.np - 1.0) <= COMPLETENESS_TOL
        assert triple == RiskTriple(*(masses.get(focal, 0.0) for focal in focals))
        # the first fold's exact masses feed the second, with no rounding between them
        first = rational_combine(discounted[0], discounted[1])
        exact = first and rational_combine(SimpleNamespace(masses=first), discounted[2])
        # combine drops sums below MASS_FLOOR of the surviving mass, and a sum dropped before
        # a fold in near-total conflict moves the result far more than the floor; the exact
        # folds keep such dust, so draws that make it, or that the oracle calls total
        # conflict, are left to the check above
        if not exact or any(0 < m < 2 * MASS_FLOOR for m in (*first.values(), *exact.values())):
            return
        oracle = tuple(float(exact.get(focal, 0)) for focal in focals)
        assert (triple.p, triple.p_np, triple.np) == pytest.approx(oracle, abs=1e-12)


class TestDerivedResults:
    """The package builds these results unchecked; the public constructor must accept them."""

    @staticmethod
    def assert_as_constructed(d):
        assert DNumber(d.frame, d.masses) == d
        assert d.is_complete()
        positions = [[d.frame.labels.index(label) for label in f.labels] for f in d.masses]
        assert positions == sorted(positions)

    @given(dnumber_group(2), st.floats(0.0, 1.0), st.floats(0.1, 1.0))
    def test_results_pass_the_public_constructor(self, pair, epsilon, scale):
        d1, d2 = pair
        shrunk = DNumber(d1.frame, {f: m * scale for f, m in d1.masses.items()})
        results = [shrunk.normalize_incomplete(), d1.discount(epsilon)]
        try:
            results.append(d1.discount(epsilon).combine(d2))
        except TotalConflict:
            pass
        for d in results:
            self.assert_as_constructed(d)

    @given(body_and_value())
    # the {P, NP} curve reads about 4e-209 here, dust that both constructors drop
    @example(
        drawn=(
            EvidenceBody(
                "pathway",
                "u",
                (
                    Curve("c0", POSSIBLE, TrapezoidalFuzzyNumber(-1.0, 0.0, 0.0, 0.0)),
                    Curve("c1", UNKNOWN, TrapezoidalFuzzyNumber(-1.0, -1.0, -1.0, 0.0)),
                ),
                0.1,
            ),
            -4.3841553500787e-209,
        )
    )
    def test_evidence_passes_the_public_constructor(self, drawn):
        body, value = drawn
        d = evidence_to_dnumber(body, value)
        self.assert_as_constructed(d)
        weights = {}
        for curve in body.curves:
            mu = curve.shape.membership(value)
            if mu > 0.0:
                weights[curve.focal] = weights.get(curve.focal, 0.0) + mu
        total = sum(weights.values())
        expected = {f: mu / total for f, mu in weights.items() if mu / total >= MASS_FLOOR}
        expected = expected or {d.frame.theta: 1.0}
        assert d.masses == pytest.approx(expected, abs=1e-12)


class TestNormalization:
    @given(dnumber_group(1), st.floats(min_value=0.1, max_value=1.0))
    def test_missing_mass_moves_to_full_frame(self, single, scale):
        (d,) = single
        shrunk = DNumber(d.frame, {f: m * scale for f, m in d.masses.items()})
        restored = shrunk.normalize_incomplete()
        assert restored.completeness() == pytest.approx(1.0, abs=1e-9)
        theta = d.frame.theta
        for focal, mass in shrunk.masses.items():
            if focal != theta:
                assert restored.masses[focal] == mass

    @given(dnumber_group(1))
    def test_complete_input_is_returned_unchanged(self, single):
        (d,) = single
        assert d.normalize_incomplete() is d
