"""JSON loaders: accepted documents and the messages rejected ones produce."""

import json

import pytest

from dnfusion import (
    DNumber,
    EpsilonMismatchWarning,
    Frame,
    ValidationError,
    load_dnumbers,
    load_granulation,
    load_model,
    load_scenarios,
)
from dnfusion.intrusion import INTRUSION_FRAME


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


MODEL_DOC = {
    "bodies": [
        {
            "name": "pathway",
            "unit": "breaks/100 km/year",
            "curves": [
                {"label": "calm", "focal": ["NP"], "shape": [0, 0, 10, 20]},
                {"label": "rough", "focal": ["P"], "shape": [30, 40, 50, 60]},
            ],
        },
        {
            "name": "pressure",
            "unit": "psi",
            "epsilon": 0.0,
            "curves": [{"focal": ["P", "NP"], "shape": [-10, -5, 5, 10]}],
        },
        {
            "name": "source",
            "unit": "m",
            "curves": [
                {"label": "near", "focal": ["P"], "shape": [0, 0, 5, 10]},
                {"label": "far", "focal": ["NP"], "shape": [20, 30, 40, 50]},
            ],
        },
    ]
}


class TestLoadGranulation:
    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            {
                "granules": [
                    {"label": "low", "shape": [0, 0, 1, 2]},
                    {"label": "high", "shape": [1.5, 2, 3, 3]},
                ]
            },
        )
        g = load_granulation(path)
        assert g.labels == ("low", "high")
        assert g.shapes[1].a == 1.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="nope.json"):
            load_granulation(tmp_path / "nope.json")

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"granules": [}', encoding="utf-8")
        with pytest.raises(ValidationError, match=r"line 1 column 15"):
            load_granulation(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = write(tmp_path, "g.json", [1, 2])
        with pytest.raises(ValidationError, match="expected an object"):
            load_granulation(path)

    def test_empty_granules(self, tmp_path):
        path = write(tmp_path, "g.json", {"granules": []})
        with pytest.raises(ValidationError, match="non-empty"):
            load_granulation(path)

    def test_missing_label(self, tmp_path):
        path = write(tmp_path, "g.json", {"granules": [{"shape": [0, 1, 2, 3]}]})
        with pytest.raises(ValidationError, match=r"granules\[0\]\.label"):
            load_granulation(path)

    def test_shape_length(self, tmp_path):
        path = write(tmp_path, "g.json", {"granules": [{"label": "x", "shape": [0, 1, 2]}]})
        with pytest.raises(ValidationError, match=r"\[a, b, c, d\]"):
            load_granulation(path)

    def test_shape_rejects_boolean(self, tmp_path):
        path = write(tmp_path, "g.json", {"granules": [{"label": "x", "shape": [0, True, 2, 3]}]})
        with pytest.raises(ValidationError, match="expected a number"):
            load_granulation(path)

    def test_shape_rejects_nan_literal(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"granules": [{"label": "x", "shape": [0, NaN, 2, 3]}]}', encoding="utf-8")
        with pytest.raises(ValidationError, match="finite"):
            load_granulation(path)

    def test_unsorted_shape_names_the_granule(self, tmp_path):
        path = write(tmp_path, "g.json", {"granules": [{"label": "odd", "shape": [5, 1, 2, 3]}]})
        with pytest.raises(ValidationError, match="'odd'"):
            load_granulation(path)

    def test_duplicate_labels(self, tmp_path):
        path = write(
            tmp_path,
            "g.json",
            {
                "granules": [
                    {"label": "x", "shape": [0, 1, 2, 3]},
                    {"label": "x", "shape": [4, 5, 6, 7]},
                ]
            },
        )
        with pytest.raises(ValidationError, match="duplicate"):
            load_granulation(path)


class TestLoadDNumbers:
    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path,
            "d.json",
            [
                {
                    "frame": ["a", "b"],
                    "masses": [
                        {"focal": ["a"], "value": 0.3},
                        {"focal": ["a", "b"], "value": 0.7},
                    ],
                },
                {"frame": ["a", "b"], "masses": [{"focal": ["b"], "value": 1.0}]},
            ],
        )
        loaded = load_dnumbers(path)
        frame = Frame(("a", "b"))
        assert loaded == [
            DNumber(frame, {"a": 0.3, ("a", "b"): 0.7}),
            DNumber(frame, {"b": 1.0}),
        ]

    def test_duplicate_focal_entries_accumulate(self, tmp_path):
        path = write(
            tmp_path,
            "d.json",
            [
                {
                    "frame": ["a", "b"],
                    "masses": [
                        {"focal": ["a"], "value": 0.2},
                        {"focal": ["a"], "value": 0.3},
                    ],
                }
            ],
        )
        (d,) = load_dnumbers(path)
        assert d.masses[Frame(("a", "b")).focal("a")] == pytest.approx(0.5)

    def test_top_level_must_be_array(self, tmp_path):
        path = write(tmp_path, "d.json", {"frame": ["a"]})
        with pytest.raises(ValidationError, match="expected an array"):
            load_dnumbers(path)

    def test_frames_must_match(self, tmp_path):
        path = write(
            tmp_path,
            "d.json",
            [
                {"frame": ["a", "b"], "masses": [{"focal": ["a"], "value": 1.0}]},
                {"frame": ["a", "c"], "masses": [{"focal": ["a"], "value": 1.0}]},
            ],
        )
        with pytest.raises(ValidationError, match=r"\[1\]\.frame"):
            load_dnumbers(path)

    def test_unknown_focal_label(self, tmp_path):
        path = write(
            tmp_path,
            "d.json",
            [{"frame": ["a", "b"], "masses": [{"focal": ["z"], "value": 1.0}]}],
        )
        with pytest.raises(ValidationError, match=r"masses\[0\]\.focal"):
            load_dnumbers(path)

    def test_negative_mass(self, tmp_path):
        path = write(
            tmp_path,
            "d.json",
            [{"frame": ["a", "b"], "masses": [{"focal": ["a"], "value": -0.2}]}],
        )
        with pytest.raises(ValidationError, match="negative"):
            load_dnumbers(path)

    def test_masses_exceeding_one(self, tmp_path):
        path = write(
            tmp_path,
            "d.json",
            [
                {
                    "frame": ["a", "b"],
                    "masses": [
                        {"focal": ["a"], "value": 0.8},
                        {"focal": ["b"], "value": 0.8},
                    ],
                }
            ],
        )
        with pytest.raises(ValidationError, match="exceed"):
            load_dnumbers(path)


class TestLoadModel:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "m.json", MODEL_DOC)
        model = load_model(path)
        assert model.pathway.epsilon == 0.0
        assert model.pressure.epsilon == 0.0
        assert model.pressure.curves[0].label == "P,NP"
        assert model.source.unit == "m"
        assert model.source.curves[0].focal == INTRUSION_FRAME.focal("P")

    def test_auto_label_collision_gets_suffix(self, tmp_path):
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["bodies"][0]["epsilon"] = 0.0
        doc["bodies"][0]["curves"] = [
            {"focal": ["NP"], "shape": [0, 0, 10, 20]},
            {"focal": ["NP"], "shape": [30, 40, 50, 60]},
        ]
        model = load_model(write(tmp_path, "m.json", doc))
        assert [c.label for c in model.pathway.curves] == ["NP", "NP #1"]

    def test_duplicate_explicit_label(self, tmp_path):
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["bodies"][2]["curves"][1]["label"] = "near"
        with pytest.raises(ValidationError, match="duplicate label 'near'"):
            load_model(write(tmp_path, "m.json", doc))

    def test_unknown_body_name(self, tmp_path):
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["bodies"][0]["name"] = "weather"
        with pytest.raises(ValidationError, match="'weather'"):
            load_model(write(tmp_path, "m.json", doc))

    def test_duplicate_body(self, tmp_path):
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["bodies"][1]["name"] = "pathway"
        doc["bodies"][1]["curves"] = doc["bodies"][0]["curves"]
        with pytest.raises(ValidationError, match="duplicate body"):
            load_model(write(tmp_path, "m.json", doc))

    def test_missing_body(self, tmp_path):
        doc = {"bodies": MODEL_DOC["bodies"][:2]}
        with pytest.raises(ValidationError, match="missing bodies: source"):
            load_model(write(tmp_path, "m.json", doc))

    def test_epsilon_out_of_range(self, tmp_path):
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["bodies"][1]["epsilon"] = 1.2
        with pytest.raises(ValidationError, match=r"\[0, 1\]"):
            load_model(write(tmp_path, "m.json", doc))

    @pytest.mark.parametrize("epsilon", [True, "0.5"])
    def test_epsilon_must_be_a_number(self, tmp_path, epsilon):
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["bodies"][1]["epsilon"] = epsilon
        with pytest.raises(ValidationError, match=r"bodies\[1\].*epsilon"):
            load_model(write(tmp_path, "m.json", doc))

    def test_bad_curve_focal(self, tmp_path):
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["bodies"][0]["curves"][0]["focal"] = ["Q"]
        with pytest.raises(ValidationError, match="'calm'"):
            load_model(write(tmp_path, "m.json", doc))

    def test_single_curve_without_epsilon(self, tmp_path):
        doc = json.loads(json.dumps(MODEL_DOC))
        del doc["bodies"][1]["epsilon"]
        with pytest.raises(ValidationError, match="single curve"):
            load_model(write(tmp_path, "m.json", doc))

    def test_epsilon_mismatch_warning_surfaces(self, tmp_path):
        doc = json.loads(json.dumps(MODEL_DOC))
        doc["bodies"][0]["epsilon"] = 0.6
        with pytest.warns(EpsilonMismatchWarning):
            load_model(write(tmp_path, "m.json", doc))


class TestLoadScenarios:
    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path,
            "s.json",
            [
                {"id": "s1", "breaks": 10, "pressure": 0, "distance": 3},
                {"id": 2, "breaks": 30.5, "pressure": -20, "distance": 3},
            ],
        )
        rows = load_scenarios(path)
        assert [r.id for r in rows] == ["s1", "2"]
        assert rows[0].scenario.breaks == 10.0
        assert rows[1].scenario.pressure == -20.0
        assert all(r.error is None for r in rows)

    def test_empty_file(self, tmp_path):
        assert load_scenarios(write(tmp_path, "s.json", [])) == []

    def test_missing_id_becomes_inline_error(self, tmp_path):
        path = write(tmp_path, "s.json", [{"breaks": 1, "pressure": 2, "distance": 3}])
        (row,) = load_scenarios(path)
        assert row.id == "#1"
        assert row.scenario is None
        assert "missing id" in row.error

    def test_missing_field_keeps_id(self, tmp_path):
        path = write(tmp_path, "s.json", [{"id": "x", "breaks": 1, "pressure": 2}])
        (row,) = load_scenarios(path)
        assert row.id == "x"
        assert "distance" in row.error

    def test_negative_distance_is_inline(self, tmp_path):
        path = write(
            tmp_path,
            "s.json",
            [
                {"id": "bad", "breaks": 1, "pressure": 2, "distance": -3},
                {"id": "good", "breaks": 1, "pressure": 2, "distance": 3},
            ],
        )
        rows = load_scenarios(path)
        assert rows[0].scenario is None and "distance" in rows[0].error
        assert rows[1].scenario is not None and rows[1].error is None

    def test_duplicate_ids_fail_the_file(self, tmp_path):
        path = write(
            tmp_path,
            "s.json",
            [
                {"id": "x", "breaks": 1, "pressure": 2, "distance": 3},
                {"id": "x", "breaks": 4, "pressure": 5, "distance": 6},
            ],
        )
        with pytest.raises(ValidationError, match="duplicate id 'x'"):
            load_scenarios(path)

    def test_non_object_row_is_inline(self, tmp_path):
        path = write(tmp_path, "s.json", [17])
        (row,) = load_scenarios(path)
        assert row.id == "#1"
        assert "expected an object" in row.error

    def test_top_level_must_be_array(self, tmp_path):
        path = write(tmp_path, "s.json", {"id": "x"})
        with pytest.raises(ValidationError, match="expected an array"):
            load_scenarios(path)
