"""Evidence bodies, the bundled model, and scenario risk assessment."""

import json
import warnings
from collections import Counter

import pytest

from dnfusion import (
    DNumber,
    EpsilonMismatchWarning,
    EvidenceBody,
    FocalElement,
    Frame,
    Granulation,
    IntrusionModel,
    Scenario,
    TooFewGranules,
    TotalConflict,
    TrapezoidalFuzzyNumber,
    assess_risk,
    default_model,
    evidence_to_dnumber,
    exclusive_coefficient,
    load_model,
    relative_matrix,
)
from dnfusion.intrusion import INTRUSION_FRAME, NOT_POSSIBLE, POSSIBLE, UNKNOWN, Curve


def T(a, b, c, d):
    return TrapezoidalFuzzyNumber(a, b, c, d)


def build_body(name="pathway", unit="breaks/100 km/year", curves=None, epsilon=None):
    if curves is None:
        curves = (
            Curve("calm", NOT_POSSIBLE, T(0.0, 0.0, 10.0, 20.0)),
            Curve("rough", POSSIBLE, T(30.0, 40.0, 50.0, 60.0)),
        )
    return EvidenceBody.build(name, unit, curves, epsilon=epsilon)


def derived_epsilon(body):
    granulation = Granulation(tuple((curve.label, curve.shape) for curve in body.curves))
    return exclusive_coefficient(relative_matrix(granulation))


class TestCurve:
    def test_rejects_focal_outside_frame_vocabulary(self):
        bogus = FocalElement(("NP", "P"))  # not in canonical frame order
        with pytest.raises(ValueError, match="focal"):
            Curve("x", bogus, T(0, 1, 2, 3))

    @pytest.mark.parametrize("focal", [["P"], {"P"}], ids=["list", "set"])
    def test_rejects_an_unhashable_focal(self, focal):
        with pytest.raises(ValueError, match="focal must be one of"):
            Curve("x", focal, T(0, 1, 2, 3))

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError, match="label"):
            Curve("", POSSIBLE, T(0, 1, 2, 3))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            Curve("x", POSSIBLE, (0, 1, 2, 3))


class TestEvidenceBody:
    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="name"):
            build_body(name="weather")

    def test_rejects_empty_curves(self):
        with pytest.raises(ValueError, match="curve"):
            EvidenceBody("pathway", "u", (), 0.1)

    def test_rejects_duplicate_curve_labels(self):
        curves = (
            Curve("same", NOT_POSSIBLE, T(0, 1, 2, 3)),
            Curve("same", POSSIBLE, T(5, 6, 7, 8)),
        )
        with pytest.raises(ValueError, match="duplicate"):
            build_body(curves=curves)

    def test_rejects_epsilon_out_of_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            build_body(epsilon=1.5)

    def test_derives_epsilon_when_not_configured(self):
        body = build_body()
        assert body.epsilon == derived_epsilon(body)

    def test_disjoint_curves_derive_zero(self):
        assert build_body().epsilon == 0.0

    def test_single_curve_needs_explicit_epsilon(self):
        curves = (Curve("only", POSSIBLE, T(0, 1, 2, 3)),)
        with pytest.raises(TooFewGranules):
            build_body(curves=curves)
        assert build_body(curves=curves, epsilon=0.2).epsilon == 0.2

    def test_configured_epsilon_far_from_derived_warns(self):
        with pytest.warns(EpsilonMismatchWarning, match="differs"):
            build_body(epsilon=0.5)

    @pytest.mark.parametrize("epsilon", [None, 0.1])
    def test_build_rejects_a_non_curve_naming_the_body(self, epsilon):
        curves = (Curve("calm", NOT_POSSIBLE, T(0.0, 0.0, 10.0, 20.0)), "junk")
        with pytest.raises(ValueError, match="body 'pathway': curves must be Curve instances"):
            build_body(curves=curves, epsilon=epsilon)

    def test_configured_epsilon_close_to_derived_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            body = build_body(epsilon=0.015)
        assert body.epsilon == 0.015


class TestEvidenceToDNumber:
    def test_plateau_gives_categorical_mass(self):
        body = build_body()
        assert evidence_to_dnumber(body, 5.0) == DNumber(INTRUSION_FRAME, {"NP": 1.0})
        assert evidence_to_dnumber(body, 45.0) == DNumber(INTRUSION_FRAME, {"P": 1.0})

    def test_gap_between_curves_gives_ignorance(self):
        body = build_body()
        assert evidence_to_dnumber(body, 25.0) == DNumber.vacuous(INTRUSION_FRAME)

    def test_overlap_normalizes_proportionally(self):
        curves = (
            Curve("calm", NOT_POSSIBLE, T(0.0, 0.0, 10.0, 20.0)),
            Curve("unsure", UNKNOWN, T(5.0, 15.0, 25.0, 35.0)),
        )
        body = build_body(curves=curves)
        d = evidence_to_dnumber(body, 10.0)
        # memberships 1.0 and 0.5 normalize to 2/3 and 1/3
        assert d.masses[NOT_POSSIBLE] == pytest.approx(2 / 3, abs=1e-12)
        assert d.masses[UNKNOWN] == pytest.approx(1 / 3, abs=1e-12)
        assert d.completeness() == pytest.approx(1.0, abs=1e-12)

    def test_same_focal_curves_accumulate(self):
        curves = (
            Curve("one", POSSIBLE, T(0.0, 0.0, 10.0, 20.0)),
            Curve("two", POSSIBLE, T(5.0, 15.0, 25.0, 35.0)),
            Curve("other", NOT_POSSIBLE, T(0.0, 5.0, 30.0, 40.0)),
        )
        body = build_body(curves=curves)
        d = evidence_to_dnumber(body, 10.0)
        # P collects 1.0 + 0.5 against NP at 1.0
        assert d.masses[POSSIBLE] == pytest.approx(1.5 / 2.5, abs=1e-12)

    def test_rejects_non_finite_value(self):
        with pytest.raises(ValueError, match="finite"):
            evidence_to_dnumber(build_body(), float("nan"))


class TestScenario:
    def test_negative_pressure_allowed(self):
        Scenario(10.0, -20.0, 3.0)

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError, match="distance"):
            Scenario(10.0, 0.0, -1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Scenario(float("inf"), 0.0, 3.0)


class TestDefaultModel:
    def test_configured_epsilons(self):
        model = default_model()
        assert model.pathway.epsilon == 0.1195
        assert model.pressure.epsilon == 0.1057
        assert model.source.epsilon == 0.131

    def test_derived_epsilons_agree_with_configuration(self):
        # close enough that constructing the model emits no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = default_model()
        for body in model.bodies:
            assert abs(derived_epsilon(body) - body.epsilon) <= 0.02

    def test_landmark_measurements_are_categorical(self):
        model = default_model()
        cases = [
            (model.pathway, 10.0, {"NP": 1.0}),
            (model.pressure, 0.0, {("P", "NP"): 1.0}),
            (model.source, 3.0, {"P": 1.0}),
            (model.pressure, 50.0, {"NP": 1.0}),
            (model.pressure, -20.0, {"P": 1.0}),
        ]
        for body, value, masses in cases:
            assert evidence_to_dnumber(body, value) == DNumber(INTRUSION_FRAME, masses)

    def test_out_of_range_measurements_are_vacuous(self):
        model = default_model()
        assert evidence_to_dnumber(model.pathway, 30.0) == DNumber.vacuous(INTRUSION_FRAME)
        assert evidence_to_dnumber(model.source, 20.0) == DNumber.vacuous(INTRUSION_FRAME)

    def test_model_field_names_must_match_bodies(self):
        model = default_model()
        with pytest.raises(ValueError, match="pathway"):
            IntrusionModel(model.pressure, model.pressure, model.source)


class TestAssessRisk:
    @pytest.mark.parametrize(
        "breaks,pressure,distance,expected,tol",
        [
            (10.0, 0.0, 3.0, (0.44, 0.07, 0.49), 0.01),
            (10.0, 0.0, 20.0, (0.0, 0.1195, 0.8805), 0.005),
            (10.0, 50.0, 20.0, (0.0, 0.013, 0.987), 0.005),
            (30.0, 50.0, 20.0, (0.0, 0.11, 0.89), 0.01),
            (30.0, 50.0, 3.0, (0.41, 0.06, 0.53), 0.01),
            (30.0, -20.0, 3.0, (0.98, 0.02, 0.0), 0.01),
        ],
    )
    def test_reference_scenarios(self, breaks, pressure, distance, expected, tol):
        triple = assess_risk(Scenario(breaks, pressure, distance), default_model())
        assert triple.p == pytest.approx(expected[0], abs=tol)
        assert triple.p_np == pytest.approx(expected[1], abs=tol)
        assert triple.np == pytest.approx(expected[2], abs=tol)

    def test_components_sum_to_one(self):
        model = default_model()
        for scenario in [Scenario(10, 0, 3), Scenario(22, 7, 11), Scenario(0, -60, 0)]:
            triple = assess_risk(scenario, model)
            assert triple.p + triple.p_np + triple.np == pytest.approx(1.0, abs=1e-9)

    def test_closer_source_never_lowers_intrusion_mass(self):
        model = default_model()
        for breaks in (10.0, 30.0):
            for pressure in (0.0, 50.0, -20.0):
                far = assess_risk(Scenario(breaks, pressure, 20.0), model)
                near = assess_risk(Scenario(breaks, pressure, 3.0), model)
                assert near.p >= far.p

    def test_total_conflict_propagates(self):
        conflicted = IntrusionModel(
            EvidenceBody.build(
                "pathway",
                "breaks/100 km/year",
                (Curve("always", POSSIBLE, T(0.0, 0.0, 100.0, 100.0)),),
                epsilon=0.0,
            ),
            EvidenceBody.build(
                "pressure",
                "psi",
                (Curve("never", NOT_POSSIBLE, T(-100.0, -100.0, 100.0, 100.0)),),
                epsilon=0.0,
            ),
            EvidenceBody.build(
                "source",
                "m",
                (Curve("maybe", UNKNOWN, T(0.0, 0.0, 100.0, 100.0)),),
                epsilon=0.0,
            ),
        )
        with pytest.raises(TotalConflict):
            assess_risk(Scenario(10.0, 0.0, 3.0), conflicted)


class TestRowPath:
    """assess_risk reads and writes masses by frame bitmask, never by FocalElement."""

    @staticmethod
    def model_file(tmp_path, model):
        # focal labels listed in reverse, so the loader's canonical order is exercised
        doc = {
            "bodies": [
                {
                    "name": body.name,
                    "unit": body.unit,
                    "epsilon": body.epsilon,
                    "curves": [
                        {
                            "label": curve.label,
                            "focal": list(reversed(curve.focal.labels)),
                            "shape": [curve.shape.a, curve.shape.b, curve.shape.c, curve.shape.d],
                        }
                        for curve in body.curves
                    ],
                }
                for body in model.bodies
            ]
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_builds_no_display_objects(self, tmp_path, monkeypatch):
        default = default_model()
        models = (default, load_model(self.model_file(tmp_path, default)))
        scenarios = [
            Scenario(breaks, pressure, distance)
            for breaks in (10.0, 20.0, 35.0, 100.0)
            for pressure in (-20.0, 0.0, 20.0, 60.0)
            for distance in (3.0, 10.0, 20.0, 35.0)
        ]
        calls = Counter()

        def counted(name):
            original = getattr(Frame, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        for name in ("_mask", "_element"):
            monkeypatch.setattr(Frame, name, counted(name))
        triples = [assess_risk(scenario, model) for model in models for scenario in scenarios]
        assert (calls["_mask"], calls["_element"]) == (0, 0)
        # the loaded model is the default one, so both give the same triples
        assert triples[: len(scenarios)] == triples[len(scenarios) :]
        # the counters are live: building one focal element counts once on each
        INTRUSION_FRAME.focal("P")
        assert (calls["_mask"], calls["_element"]) == (1, 1)
