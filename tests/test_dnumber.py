"""Frames, focal elements, and D-number operations."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dnfusion import (
    DNumber,
    EmptyInput,
    FocalElement,
    Frame,
    FrameMismatch,
    IncompleteInput,
    TotalConflict,
    combine_all,
)

from generators import random_complete_dnumber, random_frame
from oracles import rational_combine

PN = Frame(("P", "NP"))


class TestFrame:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Frame(())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            Frame(("P", "P"))

    def test_rejects_non_string_labels(self):
        with pytest.raises(ValueError, match="strings"):
            Frame(("P", 3))

    def test_membership_and_iteration(self):
        frame = Frame(("x", "y"))
        assert len(frame) == 2

    def test_theta_covers_whole_frame(self):
        assert PN.theta.labels == ("P", "NP")

    def test_focal_canonicalizes_order(self, score_frame):
        focal = score_frame.focal(("high", "medium"))
        assert focal.labels == ("medium", "high")

    def test_focal_accepts_single_label(self):
        assert PN.focal("P").labels == ("P",)

    def test_focal_drops_duplicates(self):
        assert PN.focal(("P", "P")).labels == ("P",)

    def test_focal_rejects_unknown_labels(self):
        with pytest.raises(ValueError, match="not in frame"):
            PN.focal(("P", "Q"))

    def test_focal_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            PN.focal(())


class TestFocalElement:
    def test_str_lists_labels(self, score_frame):
        assert str(score_frame.focal(("high", "medium"))) == "{medium, high}"

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            FocalElement(())


class TestConstruction:
    def test_accepts_mixed_key_forms(self):
        d = DNumber(PN, {"P": 0.4, ("P", "NP"): 0.6})
        assert d.masses[PN.focal("P")] == 0.4
        assert d.masses[PN.theta] == 0.6

    def test_accepts_pair_iterables_and_accumulates(self):
        d = DNumber(PN, [("P", 0.25), ("P", 0.25), ("NP", 0.5)])
        assert d.masses[PN.focal("P")] == 0.5

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="non-negative"):
            DNumber(PN, {"P": -0.1})

    def test_rejects_total_above_one(self):
        with pytest.raises(ValueError, match="exceed 1"):
            DNumber(PN, {"P": 0.7, "NP": 0.7})

    def test_rejects_non_finite_mass(self):
        with pytest.raises(ValueError, match="finite"):
            DNumber(PN, {"P": float("nan")})

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError, match="not in frame"):
            DNumber(PN, {"Q": 1.0})

    def test_prunes_dust(self):
        d = DNumber(PN, {"P": 0.5, "NP": 1e-15})
        assert PN.focal("NP") not in d.masses

    @pytest.mark.parametrize("build", [DNumber, DNumber.vacuous])
    def test_frame_must_be_a_frame(self, build):
        with pytest.raises(ValueError, match="must be a Frame"):
            build(("P", "NP"))

    def test_empty_mass_map_allowed(self):
        assert DNumber(PN).completeness() == 0.0

    def test_immutable(self):
        d = DNumber.vacuous(PN)
        with pytest.raises(AttributeError):
            d.frame = PN
        with pytest.raises(TypeError):
            d.masses[PN.theta] = 0.5

    def test_equality_ignores_insertion_order(self):
        d1 = DNumber(PN, {"P": 0.5, "NP": 0.5})
        d2 = DNumber(PN, {"NP": 0.5, "P": 0.5})
        assert d1 == d2


class TestCompleteness:
    def test_partial_total(self):
        frame = Frame(("b1", "b2", "b3"))
        d = DNumber(frame, {"b1": 0.2, "b3": 0.6, ("b1", "b2", "b3"): 0.1})
        assert d.completeness() == pytest.approx(0.9, abs=1e-12)
        assert not d.is_complete()

    def test_vacuous_is_complete(self):
        assert DNumber.vacuous(PN).completeness() == 1.0
        assert DNumber.vacuous(PN).is_complete()

    def test_near_one_counts_as_complete(self):
        d = DNumber(PN, {"P": 1.0 - 5e-10})
        assert d.is_complete()


class TestNormalizeIncomplete:
    def test_deficit_goes_to_theta(self):
        d = DNumber(PN, {"P": 0.5, "NP": 0.3}).normalize_incomplete()
        assert d.masses[PN.theta] == pytest.approx(0.2, abs=1e-12)
        assert d.masses[PN.focal("P")] == 0.5
        assert d.masses[PN.focal("NP")] == 0.3
        assert d.completeness() == pytest.approx(1.0, abs=1e-12)

    def test_existing_theta_accumulates(self):
        d = DNumber(PN, {"P": 0.5, ("P", "NP"): 0.2}).normalize_incomplete()
        assert d.masses[PN.theta] == pytest.approx(0.5, abs=1e-12)

    def test_complete_input_returned_unchanged(self):
        d = DNumber(PN, {"P": 0.5, "NP": 0.5})
        assert d.normalize_incomplete() is d

    def test_empty_becomes_vacuous(self):
        assert DNumber(PN).normalize_incomplete() == DNumber.vacuous(PN)


class TestDiscount:
    def test_masses_scaled_and_theta_absorbs(self, score_frame, expert_pair):
        d1, _ = expert_pair
        out = d1.discount(0.042)
        # 0.12 * 0.958 and 0.7 * 0.958
        assert out.masses[score_frame.focal("low")] == pytest.approx(0.115, abs=1e-3)
        assert out.masses[score_frame.focal(("low", "fairly low"))] == pytest.approx(0.671, abs=1e-3)
        assert out.masses[score_frame.theta] == pytest.approx(0.042, abs=1e-12)

    def test_categorical_report(self):
        d = DNumber(PN, {"NP": 1.0}).discount(0.1195)
        assert d.masses[PN.focal("NP")] == pytest.approx(0.8805, abs=1e-12)
        assert d.masses[PN.theta] == pytest.approx(0.1195, abs=1e-12)

    def test_zero_epsilon_is_identity(self, expert_pair):
        d1, _ = expert_pair
        assert d1.discount(0.0) == d1

    def test_full_epsilon_is_vacuous(self, expert_pair):
        d1, _ = expert_pair
        assert d1.discount(1.0) == DNumber.vacuous(d1.frame)

    def test_preserves_completeness(self, expert_pair):
        d1, _ = expert_pair
        for eps in (0.01, 0.3, 0.719, 0.999):
            assert d1.discount(eps).completeness() == pytest.approx(1.0, abs=1e-9)

    def test_rejects_out_of_range_epsilon(self, expert_pair):
        d1, _ = expert_pair
        with pytest.raises(ValueError, match="epsilon"):
            d1.discount(-0.1)
        with pytest.raises(ValueError, match="epsilon"):
            d1.discount(1.1)

    def test_rejects_incomplete_input(self):
        d = DNumber(PN, {"P": 0.5})
        with pytest.raises(IncompleteInput):
            d.discount(0.1)


class TestCombine:
    def test_worked_example(self, score_frame, expert_pair):
        d1, d2 = expert_pair
        eps = 0.042
        fused = d1.discount(eps).combine(d2.discount(eps))
        expected = {
            ("low",): 0.3096,
            ("low", "fairly low"): 0.2359,
            ("medium",): 0.3232,
            ("fairly high",): 0.0213,
            ("medium", "high"): 0.1039,
            ("low", "fairly low", "medium", "fairly high", "high"): 0.0061,
        }
        assert len(fused.masses) == len(expected)
        for labels, value in expected.items():
            assert fused.masses[score_frame.focal(labels)] == pytest.approx(value, abs=5e-3)

    def test_agrees_with_rational_oracle(self, expert_pair):
        d1, d2 = expert_pair
        fused = d1.discount(0.042).combine(d2.discount(0.042))
        oracle = rational_combine(d1.discount(0.042), d2.discount(0.042))
        assert oracle is not None
        assert set(fused.masses) == set(oracle)
        for focal, value in oracle.items():
            assert fused.masses[focal] == pytest.approx(float(value), abs=1e-12)

    def test_vacuous_is_neutral(self, expert_pair):
        d1, _ = expert_pair
        assert d1.combine(DNumber.vacuous(d1.frame)) == d1
        assert DNumber.vacuous(d1.frame).combine(d1) == d1

    def test_total_conflict_raises(self):
        left = DNumber(PN, {"P": 1.0})
        right = DNumber(PN, {"NP": 1.0})
        with pytest.raises(TotalConflict):
            left.combine(right)

    def test_frame_mismatch_raises(self):
        other = Frame(("P", "NP", "maybe"))
        with pytest.raises(FrameMismatch):
            DNumber.vacuous(PN).combine(DNumber.vacuous(other))

    def test_incomplete_operand_raises(self):
        whole = DNumber.vacuous(PN)
        partial = DNumber(PN, {"P": 0.5})
        with pytest.raises(IncompleteInput):
            whole.combine(partial)
        with pytest.raises(IncompleteInput):
            partial.combine(whole)

    def test_output_complete(self, expert_pair):
        d1, d2 = expert_pair
        fused = d1.discount(0.042).combine(d2.discount(0.042))
        assert fused.completeness() == pytest.approx(1.0, abs=1e-9)

    def test_tiny_products_pruned(self):
        d = DNumber(PN, {"P": 1e-7, ("P", "NP"): 1.0 - 1e-7})
        fused = d.combine(d)
        # the P mass is dominated by cross products with theta, but a pure
        # 1e-14 product on its own would have been dropped
        assert fused.masses[PN.focal("P")] > 0.0
        tiny = DNumber(PN, {"NP": 1e-7, ("P", "NP"): 1.0 - 1e-7})
        cross = d.combine(tiny)
        # P can only arise as 1e-7 * 1e-7 conflict-free products do not exist;
        # P x NP conflicts, P x theta survives
        assert cross.masses[PN.focal("P")] == pytest.approx(1e-7, rel=1e-6)

    def test_conflict_renormalizes(self):
        left = DNumber(PN, {"P": 0.6, ("P", "NP"): 0.4})
        right = DNumber(PN, {"NP": 0.5, ("P", "NP"): 0.5})
        fused = left.combine(right)
        # k = 0.6 * 0.5 = 0.3; P: 0.3, NP: 0.2, theta: 0.2 over 0.7
        assert fused.masses[PN.focal("P")] == pytest.approx(0.3 / 0.7, abs=1e-12)
        assert fused.masses[PN.focal("NP")] == pytest.approx(0.2 / 0.7, abs=1e-12)
        assert fused.masses[PN.theta] == pytest.approx(0.2 / 0.7, abs=1e-12)


class TestCombineAll:
    def test_three_body_landmark(self):
        pathway = DNumber(PN, {"NP": 1.0}).discount(0.1195)
        pressure = DNumber.vacuous(PN).discount(0.1057)
        source = DNumber(PN, {"P": 1.0}).discount(0.131)
        fused = combine_all([pathway, pressure, source])
        assert fused.masses[PN.focal("P")] == pytest.approx(0.44, abs=0.01)
        assert fused.masses[PN.focal("NP")] == pytest.approx(0.49, abs=0.01)
        assert fused.masses[PN.theta] == pytest.approx(0.07, abs=0.01)

    def test_single_input_unchanged(self, expert_pair):
        d1, _ = expert_pair
        assert combine_all([d1]) is d1

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            combine_all([])

    def test_vacuous_fold(self):
        fused = combine_all([DNumber.vacuous(PN)] * 3)
        assert fused == DNumber.vacuous(PN)

    def test_long_fold_keeps_completeness(self):
        # Hundreds of focal sets per fold leave dust below MASS_FLOOR; if it is
        # dropped after normalizing, the loss accumulates across folds until
        # a complete input is rejected as incomplete.
        rng = random.Random(5)
        frame = Frame(tuple(f"l{i}" for i in range(10)))
        dnumbers = []
        for _ in range(30):
            masses = {}
            while len(masses) < 8:
                labels = tuple(label for label in frame.labels if rng.random() < 0.6)
                if labels:
                    masses[labels] = rng.random()
            scale = 1.0 / 1.05 / sum(masses.values())
            d = DNumber(frame, {key: mass * scale for key, mass in masses.items()})
            dnumbers.append(d.normalize_incomplete().discount(0.05))
        fused = combine_all(dnumbers)
        assert abs(fused.completeness() - 1.0) <= 1e-12


# lexical order differs from frame order, so a sort by label would show
LABEL_POOL = ("m", "b", "k", "a", "zz", "c", "q", "e", "y", "d", "x", "f")


@st.composite
def masks_on_a_frame(draw):
    """A frame of up to 12 labels and distinct non-empty masks over it."""
    n = draw(st.integers(1, len(LABEL_POOL)))
    frame = Frame(draw(st.permutations(LABEL_POOL))[:n])
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=40, unique=True))
    return frame, masks


class TestMassesView:
    def test_display_order_on_three_labels(self):
        frame = Frame(("a", "b", "c"))
        d = DNumber(frame, {("b",): 0.1, ("c", "a"): 0.2, ("b", "a"): 0.3, ("a",): 0.4})
        assert [focal.labels for focal in d.masses] == [("a",), ("a", "b"), ("a", "c"), ("b",)]
        assert list(d.masses.values()) == [0.4, 0.3, 0.2, 0.1]

    @given(case=masks_on_a_frame())
    def test_keys_are_canonical_and_sorted_by_frame_positions(self, case):
        frame, masks = case
        # the labels of each mask in frame order, worked out without the frame
        members = {
            mask: tuple(label for i, label in enumerate(frame.labels) if mask >> i & 1)
            for mask in masks
        }
        total = len(masks) * (len(masks) + 1) / 2
        masses = {mask: (k + 1) / total for k, mask in enumerate(masks)}
        d = DNumber(frame, {members[mask][::-1]: mass for mask, mass in masses.items()})
        view = d.masses
        assert len(view) == len(masks)
        for mask, labels in members.items():
            key = frame.focal(labels)
            assert key.labels == labels
            assert view[key] == masses[mask]
        positions = [[frame.labels.index(label) for label in key.labels] for key in view]
        assert positions == sorted(positions)


class TestRandomizedAgainstOracle:
    def test_combine_matches_rational_arithmetic(self):
        rng = random.Random(20240817)
        checked = 0
        while checked < 150:
            frame = random_frame(rng, max_size=3)
            d1 = random_complete_dnumber(rng, frame)
            d2 = random_complete_dnumber(rng, frame)
            oracle = rational_combine(d1, d2)
            try:
                fused = d1.combine(d2)
            except TotalConflict:
                assert oracle is None
                continue
            assert oracle is not None
            for focal in set(fused.masses) | set(oracle):
                got = fused.masses.get(focal, 0.0)
                want = float(oracle.get(focal, 0))
                assert got == pytest.approx(want, abs=1e-12)
            checked += 1
