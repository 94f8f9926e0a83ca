"""Granulations, the relative matrix, and the exclusive coefficient."""

import random

import pytest

from dnfusion import (
    Granulation,
    RelativeMatrix,
    TooFewGranules,
    TrapezoidalFuzzyNumber,
    exclusive_coefficient,
    exclusivity,
    relative_matrix,
)


def T(a, b, c, d):
    return TrapezoidalFuzzyNumber(a, b, c, d)


class TestGranulation:
    def test_labels_and_shapes_in_order(self, scale):
        assert scale.labels == ("low", "fairly low", "medium", "fairly high", "high")
        assert len(scale) == 5
        assert scale.shapes[0] == T(0.04, 0.10, 0.18, 0.23)

    def test_iterates_pairs(self, scale):
        pairs = list(scale.granules)
        assert pairs[0] == ("low", T(0.04, 0.10, 0.18, 0.23))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Granulation(())

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate granule label"):
            Granulation((("x", T(0, 1, 2, 3)), ("x", T(4, 5, 6, 7))))

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="label"):
            Granulation(((3, T(0, 1, 2, 3)),))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Granulation((("x", (0, 1, 2, 3)),))

    def test_accepts_lists(self):
        g = Granulation([["x", T(0, 1, 2, 3)]])
        assert g.labels == ("x",)


class TestRelativeMatrix:
    def test_five_level_scale_values(self, scale):
        m = relative_matrix(scale)
        assert m.labels == scale.labels
        assert m.values[0][1] == pytest.approx(0.0577, abs=5e-5)
        assert m.values[1][2] == pytest.approx(0.081, abs=5e-5)
        assert m.values[2][3] == pytest.approx(0.0449, abs=5e-5)
        assert m.values[3][4] == pytest.approx(0.2353, abs=5e-5)

    def test_non_adjacent_pairs_are_exactly_zero(self, scale):
        m = relative_matrix(scale)
        zero_pairs = [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]
        for i, j in zero_pairs:
            assert m.values[i][j] == 0.0
            assert m.values[j][i] == 0.0

    def test_diagonal_is_exactly_one(self, scale):
        m = relative_matrix(scale)
        for i in range(len(m.labels)):
            assert m.values[i][i] == 1.0

    def test_symmetric_bit_for_bit(self, scale):
        m = relative_matrix(scale)
        for i in range(len(m.labels)):
            for j in range(len(m.labels)):
                assert m.values[i][j] == m.values[j][i]

    def test_disjoint_granules_read_no_membership(self, monkeypatch):
        # granule i spans [3i, 3i + 2 + i % 2]: odd ones touch the next granule
        n = 30
        shapes = (T(3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 2 + i % 2) for i in range(n))
        g = Granulation(tuple((f"g{i}", shape) for i, shape in enumerate(shapes)))
        calls = {"degree": 0, "membership": 0}

        def counted_degree(t1, t2):
            calls["degree"] += 1
            return degree(t1, t2)

        def counted_membership(self, x):
            calls["membership"] += 1
            return membership(self, x)

        degree = exclusivity.non_exclusive_degree
        membership = TrapezoidalFuzzyNumber.membership
        monkeypatch.setattr(exclusivity, "non_exclusive_degree", counted_degree)
        monkeypatch.setattr(TrapezoidalFuzzyNumber, "membership", counted_membership)
        m = relative_matrix(g)
        assert calls == {"degree": n * (n - 1) // 2, "membership": 0}
        assert exclusive_coefficient(m) == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="matrix"):
            RelativeMatrix(("a", "b"), ((1.0, 0.5),))


class TestExclusiveCoefficient:
    def test_five_level_scale(self, scale):
        eps = exclusive_coefficient(relative_matrix(scale))
        # (0.0576923 + 0.0809717 + 0.0449129 + 0.2352941) / 10
        assert eps == pytest.approx(0.042, abs=5e-4)
        assert eps == pytest.approx(0.0418871, abs=1e-6)

    def test_single_granule_raises(self):
        g = Granulation((("only", T(0, 1, 2, 3)),))
        with pytest.raises(TooFewGranules):
            exclusive_coefficient(relative_matrix(g))

    def test_two_disjoint_granules(self):
        g = Granulation((("a", T(0, 1, 2, 3)), ("b", T(5, 6, 7, 8))))
        assert exclusive_coefficient(relative_matrix(g)) == 0.0

    def test_two_identical_granules(self):
        g = Granulation((("a", T(0, 1, 2, 3)), ("b", T(0, 1, 2, 3))))
        assert exclusive_coefficient(relative_matrix(g)) == 1.0

    def test_two_granules_equals_their_degree(self):
        # nested pair: 0.2 / 0.6
        g = Granulation((("outer", T(0.0, 0.1, 0.6, 0.7)), ("inner", T(0.2, 0.3, 0.4, 0.5))))
        assert exclusive_coefficient(relative_matrix(g)) == pytest.approx(1 / 3, abs=1e-12)

    def test_permutation_invariant(self, scale):
        eps = exclusive_coefficient(relative_matrix(scale))
        pairs = list(scale.granules)
        rng = random.Random(7)
        for _ in range(10):
            rng.shuffle(pairs)
            shuffled = exclusive_coefficient(relative_matrix(Granulation(tuple(pairs))))
            assert shuffled == pytest.approx(eps, abs=1e-12)

    def test_disjoint_granule_strictly_decreases(self, scale):
        eps = exclusive_coefficient(relative_matrix(scale))
        assert eps > 0.0
        extended = Granulation(scale.granules + (("beyond", T(5.0, 6.0, 7.0, 8.0)),))
        extended_eps = exclusive_coefficient(relative_matrix(extended))
        # same overlap total spread over 15 pairs instead of 10
        assert extended_eps < eps
        assert extended_eps == pytest.approx(eps * 10 / 15, abs=1e-12)
