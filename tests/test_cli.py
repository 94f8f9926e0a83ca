"""CLI behaviour: output shapes, exit codes, and robustness against bad input."""

import contextlib
import io
import json
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dnfusion import (
    DnfusionError,
    Granulation,
    TrapezoidalFuzzyNumber,
    cli,
    non_exclusive_degree,
    relative_matrix,
)
from dnfusion.cli import EXIT_CONFLICT, EXIT_INPUT, EXIT_OK
from dnfusion.intrusion import BODY_NAMES, RiskTriple


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def scale_file(tmp_path, scale):
    doc = {
        "granules": [
            {"label": label, "shape": [shape.a, shape.b, shape.c, shape.d]}
            for label, shape in scale.granules
        ]
    }
    path = tmp_path / "scale.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_file(tmp_path, expert_pair):
    entries = []
    for d in expert_pair:
        entries.append(
            {
                "frame": list(d.frame.labels),
                "masses": [
                    {"focal": list(f.labels), "value": m} for f, m in d.masses.items()
                ],
            }
        )
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return str(path)


@pytest.fixture
def six_scenarios_file(tmp_path):
    rows = [
        {"id": "s1", "breaks": 10, "pressure": 0, "distance": 3},
        {"id": "s2", "breaks": 10, "pressure": 0, "distance": 20},
        {"id": "s3", "breaks": 10, "pressure": 50, "distance": 20},
        {"id": "s4", "breaks": 30, "pressure": 50, "distance": 20},
        {"id": "s5", "breaks": 30, "pressure": 50, "distance": 3},
        {"id": "s6", "breaks": 30, "pressure": -20, "distance": 3},
    ]
    path = tmp_path / "scenarios.json"
    path.write_text(json.dumps(rows), encoding="utf-8")
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


CONFLICTED_MODEL = {
    "bodies": [
        {
            "name": "pathway",
            "unit": "breaks/100 km/year",
            "epsilon": 0.0,
            "curves": [{"focal": ["P"], "shape": [0, 0, 100, 100]}],
        },
        {
            "name": "pressure",
            "unit": "psi",
            "epsilon": 0.0,
            "curves": [{"focal": ["NP"], "shape": [-100, -100, 100, 100]}],
        },
        {
            "name": "source",
            "unit": "m",
            "epsilon": 0.0,
            "curves": [{"focal": ["P", "NP"], "shape": [0, 0, 100, 100]}],
        },
    ]
}


# The pathway curves are disjoint, so their derived epsilon is 0, not 0.5.
MISMATCHED_MODEL = {
    "bodies": [
        {
            "name": "pathway",
            "unit": "breaks/100 km/year",
            "epsilon": 0.5,
            "curves": [
                {"focal": ["NP"], "shape": [0, 0, 14, 26]},
                {"focal": ["P"], "shape": [32, 38, 55, 60]},
            ],
        },
        {
            "name": "pressure",
            "unit": "psi",
            "epsilon": 0.0,
            "curves": [{"focal": ["P", "NP"], "shape": [-100, -100, 100, 100]}],
        },
        {
            "name": "source",
            "unit": "m",
            "epsilon": 0.0,
            "curves": [{"focal": ["P", "NP"], "shape": [0, 0, 100, 100]}],
        },
    ]
}


def granulation_doc(shapes):
    return {"granules": [{"label": f"g{i}", "shape": list(s)} for i, s in enumerate(shapes)]}


def degrees_of(shapes):
    granules = tuple((f"g{i}", TrapezoidalFuzzyNumber(*s)) for i, s in enumerate(shapes))
    return relative_matrix(Granulation(granules)).values


def assert_epsilon_rounds_each_degree(path, shapes):
    """Both formats of ``epsilon`` show every degree rounded to 4 places."""
    try:
        degrees = degrees_of(shapes)
    except DnfusionError:
        assert call(["epsilon", path])[0] == EXIT_INPUT
        return
    expected = [[round(v, 4) for v in row] for row in degrees]
    code, out, _ = call(["epsilon", path, "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["matrix"] == expected
    code, out, _ = call(["epsilon", path])
    assert code == EXIT_OK
    rows = [line.split()[1:] for line in out.splitlines()[1:-1]]
    assert rows == [[f"{v:.4f}" for v in row] for row in expected]


# on a small integer grid, crisp points coincide often and sorted draws touch and nest
grid_coords = st.integers(0, 12).map(float) | st.floats(0.0, 12.0)
crisp_points = st.integers(0, 12).map(lambda x: [float(x)] * 4)
granule_shapes = crisp_points | st.lists(grid_coords, min_size=4, max_size=4).map(sorted)


class TestEpsilon:
    def test_matrix_is_each_degree_rounded(self, tmp_path):
        shapes = [
            (0, 1, 2, 3),
            (3, 4, 5, 6),  # touches the first
            (4, 4.5, 5, 5.5),  # nested in the second
            (5, 6, 8, 9),  # overlaps the second and third
            (8.999, 10, 11, 12),  # overlaps the fourth by a sliver that rounds to 0
            (20, 20, 20, 20),
            (20, 20, 20, 20),  # a crisp point coinciding with the one before
        ]
        degrees = {v for row in degrees_of(shapes) for v in row}
        assert {0.0, 1.0} < degrees and any(0.0 < v < 5e-5 for v in degrees)
        path = write_json(tmp_path, "g.json", granulation_doc(shapes))
        assert_epsilon_rounds_each_degree(path, shapes)

    @given(shapes=st.lists(granule_shapes, min_size=2, max_size=6))
    @settings(deadline=None)
    def test_any_matrix_is_each_degree_rounded(self, doc_path, shapes):
        doc_path.write_text(json.dumps(granulation_doc(shapes)), encoding="utf-8")
        assert_epsilon_rounds_each_degree(str(doc_path), shapes)

    def test_json_matrix_and_coefficient(self, capsys, scale_file):
        code, out, _ = run(capsys, "epsilon", scale_file, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["labels"][0] == "low"
        assert payload["epsilon"] == pytest.approx(0.0419, abs=5e-4)
        m = payload["matrix"]
        assert m[0][1] == pytest.approx(0.0577, abs=5e-4)
        assert m[1][2] == pytest.approx(0.0810, abs=5e-4)
        assert m[2][3] == pytest.approx(0.0449, abs=5e-4)
        assert m[3][4] == pytest.approx(0.2353, abs=5e-4)
        assert m[0][2] == 0.0
        assert all(m[i][i] == 1.0 for i in range(5))
        assert m[1][0] == m[0][1]

    def test_text_output(self, capsys, scale_file):
        code, out, _ = run(capsys, "epsilon", scale_file)
        assert code == EXIT_OK
        assert "epsilon: 0.0419" in out
        assert "0.0577" in out
        assert "0.0000" in out
        assert out.splitlines()[0].split() == [
            "low",
            "fairly",
            "low",
            "medium",
            "fairly",
            "high",
            "high",
        ]

    def test_disjoint_granules_give_zero(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "g.json",
            {
                "granules": [
                    {"label": "a", "shape": [0, 1, 2, 3]},
                    {"label": "b", "shape": [5, 6, 7, 8]},
                ]
            },
        )
        code, out, _ = run(capsys, "epsilon", path)
        assert code == EXIT_OK
        assert "epsilon: 0.0000" in out

    def test_invalid_shape_names_granule(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "g.json", {"granules": [{"label": "odd", "shape": [5, 1, 2, 3]}]}
        )
        code, _, err = run(capsys, "epsilon", path)
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "odd" in err

    def test_overflowing_joint_support_is_an_input_error(self, capsys, tmp_path):
        # each support is finite, but the pair spans more than a float holds
        left, right = [-1.5e308, -1.5e308, 0, 0], [0, 0, 1.5e308, 1.5e308]
        with pytest.raises(ValueError, match="joint support"):
            non_exclusive_degree(TrapezoidalFuzzyNumber(*left), TrapezoidalFuzzyNumber(*right))
        granules = [{"label": "l", "shape": left}, {"label": "r", "shape": right}]
        path = write_json(tmp_path, "g.json", {"granules": granules})
        code, out, err = run(capsys, "epsilon", path)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_underflowing_areas_are_an_input_error(self, capsys, tmp_path):
        # every envelope midpoint rounds onto a breakpoint where both read 0
        shape = [5e-324, 1e-323, 1e-323, 1.5e-323]
        granules = [{"label": "x", "shape": shape}, {"label": "y", "shape": shape}]
        path = write_json(tmp_path, "g.json", {"granules": granules})
        code, out, err = run(capsys, "epsilon", path)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_disjoint_subnormal_granules_give_zero(self, capsys, tmp_path):
        granules = [
            {"label": "x", "shape": [2e-323, 2.5e-323, 2.5e-323, 2.5e-323]},
            {"label": "y", "shape": [5e-324, 1e-323, 1e-323, 1.5e-323]},
        ]
        path = write_json(tmp_path, "g.json", {"granules": granules})
        code, out, _ = run(capsys, "epsilon", path, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["matrix"][0][1] == payload["matrix"][1][0] == 0.0
        assert payload["epsilon"] == 0.0

    def test_deeply_nested_label_gives_a_short_error(self, capsys, tmp_path):
        nested = [[]]
        for _ in range(500):
            nested = [nested]
        granule = {"label": nested, "shape": [0, 1, 2, 3]}
        path = write_json(tmp_path, "g.json", {"granules": [granule]})
        code, _, err = run(capsys, "epsilon", path)
        assert code == EXIT_INPUT
        assert err.startswith("error:") and len(err) < 200

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "epsilon", str(tmp_path / "none.json"))
        assert code == EXIT_INPUT
        assert "error:" in err


class TestFuse:
    def test_worked_pair_json(self, capsys, pair_file):
        code, out, _ = run(
            capsys, "fuse", pair_file, "--epsilon", "0.042", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["epsilon"] == 0.042
        masses = {tuple(m["focal"]): m["value"] for m in payload["masses"]}
        assert masses[("low",)] == pytest.approx(0.3097, abs=5e-3)
        assert masses[("low", "fairly low")] == pytest.approx(0.2360, abs=5e-3)
        assert masses[("medium",)] == pytest.approx(0.3232, abs=5e-3)
        assert masses[("fairly high",)] == pytest.approx(0.0213, abs=5e-3)
        assert masses[("medium", "high")] == pytest.approx(0.1039, abs=5e-3)
        assert masses[("low", "fairly low", "medium", "fairly high", "high")] == (
            pytest.approx(0.0060, abs=5e-3)
        )

    def test_text_output(self, capsys, pair_file):
        code, out, _ = run(capsys, "fuse", pair_file, "--epsilon", "0.042")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "fused masses (epsilon = 0.0420):"
        assert lines[1].startswith("{low}")
        assert lines[1].endswith("0.3097")

    def test_incomplete_inputs_are_normalized_first(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "d.json",
            [
                {"frame": ["a", "b"], "masses": [{"focal": ["a"], "value": 0.5}]},
                {"frame": ["a", "b"], "masses": [{"focal": ["a"], "value": 1.0}]},
            ],
        )
        code, out, _ = run(capsys, "fuse", path, "--epsilon", "0", "--format", "json")
        assert code == EXIT_OK
        masses = {tuple(m["focal"]): m["value"] for m in json.loads(out)["masses"]}
        # {a: 0.5, ab: 0.5} x {a: 1.0} has no conflict, a collects 1.0
        assert masses[("a",)] == 1.0

    def test_single_dnumber_is_an_input_error(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "d.json", [{"frame": ["a"], "masses": [{"focal": ["a"], "value": 1.0}]}]
        )
        code, _, err = run(capsys, "fuse", path, "--epsilon", "0.1")
        assert code == EXIT_INPUT
        assert "at least two" in err

    def test_total_conflict_exit_code(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "d.json",
            [
                {"frame": ["a", "b"], "masses": [{"focal": ["a"], "value": 1.0}]},
                {"frame": ["a", "b"], "masses": [{"focal": ["b"], "value": 1.0}]},
            ],
        )
        code, _, err = run(capsys, "fuse", path, "--epsilon", "0")
        assert code == EXIT_CONFLICT
        assert "error:" in err

    def test_epsilon_out_of_range(self, capsys, pair_file):
        code, _, err = run(capsys, "fuse", pair_file, "--epsilon", "1.5")
        assert code == EXIT_INPUT
        assert "[0, 1]" in err

    def test_epsilon_flag_required(self, capsys, pair_file):
        code, _, _ = run(capsys, "fuse", pair_file)
        assert code == EXIT_INPUT


class TestAssess:
    def test_reference_scenario_text(self, capsys):
        code, out, _ = run(
            capsys, "assess", "--breaks", "10", "--pressure", "0", "--distance", "3"
        )
        assert code == EXIT_OK
        assert "risk ({P}, {P,NP}, {NP}): (0.442, 0.067, 0.491)" in out
        assert "verdict: NP" in out

    def test_reference_scenario_json(self, capsys):
        code, out, _ = run(
            capsys,
            "assess",
            "--breaks",
            "30",
            "--pressure",
            "-20",
            "--distance",
            "3",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["risk"]["P"] == pytest.approx(0.986, abs=1e-2)
        assert payload["verdict"] == "P"
        assert payload["pressure"] == -20.0

    def test_custom_model_file(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", CONFLICTED_MODEL)
        code, _, err = run(
            capsys,
            "assess",
            "--breaks",
            "10",
            "--pressure",
            "0",
            "--distance",
            "3",
            "--model",
            path,
        )
        assert code == EXIT_CONFLICT
        assert "error:" in err

    def test_model_epsilon_warning_is_one_line_on_every_call(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", MISMATCHED_MODEL)
        argv = ["assess", "--breaks", "10", "--pressure", "0", "--distance", "3", "--model", path]
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert code == EXIT_OK
            assert out.splitlines()[-1].startswith("verdict:")
            assert err.count("\n") == 1
            assert err.startswith(
                f"warning: {path}: body 'pathway': configured epsilon 0.5000 differs from the "
                "curve-derived value 0.0000"
            )

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "assess", "--breaks", "10", "--pressure", "0")
        assert code == EXIT_INPUT

    def test_non_finite_measurement(self, capsys):
        code, _, err = run(
            capsys, "assess", "--breaks", "10", "--pressure", "nan", "--distance", "3"
        )
        assert code == EXIT_INPUT
        assert "finite" in err

    def test_bad_model_path(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "assess",
            "--breaks",
            "10",
            "--pressure",
            "0",
            "--distance",
            "3",
            "--model",
            str(tmp_path / "none.json"),
        )
        assert code == EXIT_INPUT
        assert "error:" in err

    def test_verdict_prefers_first_on_tie(self):
        assert cli._verdict(RiskTriple(0.4, 0.4, 0.2)) == "P"
        assert cli._verdict(RiskTriple(0.3, 0.35, 0.35)) == "P,NP"


class TestBatch:
    def test_six_scenarios_json(self, capsys, six_scenarios_file):
        code, out, _ = run(capsys, "batch", six_scenarios_file, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [row["id"] for row in payload] == ["s1", "s2", "s3", "s4", "s5", "s6"]
        assert payload[0]["risk"] == {"P": 0.442, "P,NP": 0.067, "NP": 0.491}
        assert payload[0]["verdict"] == "NP"
        assert payload[5]["verdict"] == "P"
        assert payload[2]["risk"]["NP"] == pytest.approx(0.987, abs=5e-3)

    def test_six_scenarios_text_table(self, capsys, six_scenarios_file):
        code, out, _ = run(capsys, "batch", six_scenarios_file)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == [
            "id",
            "breaks",
            "pressure",
            "distance",
            "P",
            "P,NP",
            "NP",
            "verdict",
        ]
        assert len(lines) == 7
        assert lines[1].split()[0] == "s1"
        assert lines[1].split()[-1] == "NP"
        assert lines[6].split()[-1] == "P"

    def test_empty_file_prints_header_only(self, capsys, tmp_path):
        path = write_json(tmp_path, "s.json", [])
        code, out, _ = run(capsys, "batch", path)
        assert code == EXIT_OK
        assert out.splitlines()[0].startswith("id")
        assert len(out.splitlines()) == 1

    def test_malformed_row_is_inline(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "s.json",
            [
                {"id": "ok", "breaks": 10, "pressure": 0, "distance": 3},
                {"id": "bad", "breaks": 10, "pressure": 0},
            ],
        )
        code, out, _ = run(capsys, "batch", path)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "error:" in lines[2]
        assert "bad" in lines[2]
        assert "error:" not in lines[1]

    def test_all_rows_malformed_fails(self, capsys, tmp_path):
        path = write_json(tmp_path, "s.json", [{"id": "bad", "breaks": 10}])
        code, out, _ = run(capsys, "batch", path)
        assert code == EXIT_INPUT
        assert "error:" in out

    def test_row_level_total_conflict(self, capsys, tmp_path):
        model = write_json(tmp_path, "m.json", CONFLICTED_MODEL)
        path = write_json(
            tmp_path,
            "s.json",
            [
                {"id": "clash", "breaks": 10, "pressure": 0, "distance": 3},
                {"id": "blank", "breaks": 200, "pressure": 200, "distance": 200},
            ],
        )
        code, out, _ = run(capsys, "batch", path, "--model", model, "--format", "json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "total conflict" in payload[0]["error"]
        assert payload[1]["risk"] == {"P": 0.0, "P,NP": 1.0, "NP": 0.0}

    def test_duplicate_ids_fail_the_file(self, capsys, tmp_path):
        path = write_json(
            tmp_path,
            "s.json",
            [
                {"id": "x", "breaks": 1, "pressure": 2, "distance": 3},
                {"id": "x", "breaks": 4, "pressure": 5, "distance": 6},
            ],
        )
        code, _, err = run(capsys, "batch", path)
        assert code == EXIT_INPUT
        assert "duplicate id" in err

    @pytest.mark.parametrize("valid_first", [True, False], ids=["valid_first", "valid_last"])
    def test_a_stand_in_id_is_no_duplicate(self, capsys, tmp_path, valid_first):
        # the row without an id shows as its position, which the valid row's id repeats
        no_id = {"breaks": 10, "pressure": 0, "distance": 3}
        valid = dict(no_id, id="#2" if valid_first else "#1")
        rows = [valid, no_id] if valid_first else [no_id, valid]
        path = write_json(tmp_path, "s.json", rows)
        code, out, err = run(capsys, "batch", path, "--format", "json")
        assert code == EXIT_OK
        assert err == ""
        payload = json.loads(out)
        good, bad = payload if valid_first else payload[::-1]
        assert good["id"] == bad["id"] == valid["id"]
        assert good["verdict"] == "NP"
        assert bad["error"] == f"scenarios[{1 if valid_first else 0}]: missing id"

    def test_deeply_nested_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "batch", str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_deeply_nested_value_gives_a_short_row_error(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        nested = "[" * 500 + "]" * 500
        path.write_text(
            '[{"id": "bad", "breaks": %s, "pressure": 0, "distance": 3},'
            ' {"id": "ok", "breaks": 10, "pressure": 0, "distance": 3}]' % nested,
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "batch", str(path))
        assert code == EXIT_OK
        bad_line, good_line = out.splitlines()[1:]
        assert "error:" in bad_line and len(bad_line) < 200
        assert "error:" not in good_line and good_line.endswith("NP")

    def test_output_is_deterministic(self, capsys, six_scenarios_file):
        _, first, _ = run(capsys, "batch", six_scenarios_file, "--format", "json")
        _, second, _ = run(capsys, "batch", six_scenarios_file, "--format", "json")
        assert first == second


@pytest.fixture
def mixed_batch_file(tmp_path):
    rows = [
        {"id": "s1", "breaks": 10, "pressure": 0, "distance": 3},
        {"id": "a-much-longer-row-id", "breaks": 10, "pressure": 0},
        {"id": "s6", "breaks": 30, "pressure": -20, "distance": 3},
        {"id": "s7", "breaks": 12.5, "pressure": 0.25, "distance": 1500},
    ]
    return write_json(tmp_path, "mixed.json", rows)


class TestOutputFormats:
    def test_json_is_one_line(self, capsys, scale_file, pair_file, six_scenarios_file):
        for argv in (
            ["epsilon", scale_file],
            ["fuse", pair_file, "--epsilon", "0.042"],
            ["assess", "--breaks", "10", "--pressure", "0", "--distance", "3"],
            ["batch", six_scenarios_file],
        ):
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == EXIT_OK
            assert out.count("\n") == 1 and out.endswith("\n"), argv
            json.loads(out)

    @staticmethod
    def both(capsys, *argv):
        code, text, err = run(capsys, *argv)
        json_code, out, json_err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (json_code, json_err)
        return text.splitlines(), json.loads(out)

    def test_epsilon_text_shows_the_json_values(self, capsys, scale_file):
        lines, payload = self.both(capsys, "epsilon", scale_file)
        labels = payload["labels"]
        assert lines[0].split() == " ".join(labels).split()
        assert len(lines) == len(labels) + 2
        for line, label, row in zip(lines[1:], labels, payload["matrix"]):
            assert line.startswith(label)
            assert line[len(label) :].split() == [f"{value:.4f}" for value in row]
        assert lines[-1] == f"epsilon: {payload['epsilon']:.4f}"

    def test_fuse_text_shows_the_json_values(self, capsys, pair_file):
        lines, payload = self.both(capsys, "fuse", pair_file, "--epsilon", "0.042")
        assert lines[0] == f"fused masses (epsilon = {payload['epsilon']:.4f}):"
        assert len(lines) == len(payload["masses"]) + 1
        for line, entry in zip(lines[1:], payload["masses"]):
            focal, value = line.rsplit(maxsplit=1)
            assert focal == "{" + ", ".join(entry["focal"]) + "}"
            assert value == f"{entry['value']:.4f}"

    def test_assess_text_shows_the_json_values(self, capsys):
        argv = ("assess", "--breaks", "30", "--pressure", "-20", "--distance", "3")
        lines, payload = self.both(capsys, *argv)
        risk = payload["risk"]
        assert lines == [
            f"risk ({{P}}, {{P,NP}}, {{NP}}): "
            f"({risk['P']:.3f}, {risk['P,NP']:.3f}, {risk['NP']:.3f})",
            f"verdict: {payload['verdict']}",
        ]

    def test_batch_text_shows_the_json_values(self, capsys, tmp_path):
        model = write_json(tmp_path, "m.json", CONFLICTED_MODEL)
        rows = [
            {"id": "clash", "breaks": 10, "pressure": 0, "distance": 3},
            {"id": "blank", "breaks": 200, "pressure": 200, "distance": 200},
            {"id": "malformed", "breaks": 10, "pressure": "high", "distance": 3},
            {"id": "partial", "breaks": 50, "pressure": 150, "distance": 0.5},
        ]
        path = write_json(tmp_path, "s.json", rows)
        lines, payload = self.both(capsys, "batch", path, "--model", model)
        assert [entry["id"] for entry in payload] == [row["id"] for row in rows]
        assert "total conflict" in payload[0]["error"] and "error" in payload[2]
        assert len(lines) == len(payload) + 1
        for line, entry in zip(lines[1:], payload):
            if "error" in entry:
                assert line.lstrip() == f"{entry['id']}  error: {entry['error']}"
                continue
            risk = entry["risk"]
            assert line.split() == [
                entry["id"],
                f"{entry['breaks']:g}",
                f"{entry['pressure']:g}",
                f"{entry['distance']:g}",
                f"{risk['P']:.3f}",
                f"{risk['P,NP']:.3f}",
                f"{risk['NP']:.3f}",
                entry["verdict"],
            ]

    def test_batch_text_table(self, capsys, mixed_batch_file):
        code, out, _ = run(capsys, "batch", mixed_batch_file)
        assert code == EXIT_OK
        assert out.splitlines() == [
            "                  id  breaks  pressure  distance      P   P,NP     NP  verdict",
            "                  s1      10         0         3  0.442  0.067  0.491       NP",
            "a-much-longer-row-id  error: scenarios[1]: distance: expected a number, got None",
            "                  s6      30       -20         3  0.986  0.014  0.000        P",
            "                  s7    12.5      0.25      1500  0.000  0.497  0.503       NP",
        ]


class TestRoundTrip:
    def test_fuse_json_matches_library_rounding(self, capsys, pair_file, expert_pair):
        from dnfusion import combine_all

        _, out, _ = run(capsys, "fuse", pair_file, "--epsilon", "0.042", "--format", "json")
        payload = json.loads(out)
        fused = combine_all([d.discount(0.042) for d in expert_pair])
        expected = [
            {"focal": list(f.labels), "value": round(m, 4)} for f, m in fused.masses.items()
        ]
        assert payload["masses"] == expected


class TestEntryPoints:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == EXIT_OK

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == EXIT_INPUT

    def test_no_arguments(self, capsys):
        assert cli.main([]) == EXIT_INPUT

    def test_a_rebound_command_is_the_one_called(self, capsys, monkeypatch):
        assert cli.main(["assess", "--breaks", "10", "--pressure", "0", "--distance", "3"]) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_assess", lambda args: seen.append(args.breaks) or EXIT_OK)
        assert cli.main(["assess", "--breaks", "4", "--pressure", "0", "--distance", "3"]) == 0
        assert seen == [4.0]

    def test_module_invocation(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "dnfusion",
                "assess",
                "--breaks",
                "10",
                "--pressure",
                "0",
                "--distance",
                "3",
            ],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "verdict: NP" in result.stdout


class TestFuzz:
    def test_mutated_invocations_never_crash(self, capsys, tmp_path, scale_file, pair_file):
        rng = random.Random(20240817)
        scenarios = write_json(
            tmp_path,
            "s.json",
            [{"id": "s1", "breaks": 10, "pressure": 0, "distance": 3}],
        )
        bases = [
            ["epsilon", scale_file],
            ["epsilon", scale_file, "--format", "json"],
            ["fuse", pair_file, "--epsilon", "0.042"],
            ["assess", "--breaks", "10", "--pressure", "0", "--distance", "3"],
            ["batch", scenarios, "--format", "json"],
        ]
        junk = ["", "-1", "nan", "inf", "wat", "/dev/null", str(tmp_path / "gone.json"), "--", "1e309"]
        for _ in range(60):
            argv = list(rng.choice(bases))
            mutation = rng.randrange(4)
            if mutation == 0 and argv:
                argv.pop(rng.randrange(len(argv)))
            elif mutation == 1:
                argv.insert(rng.randrange(len(argv) + 1), rng.choice(junk))
            elif mutation == 2 and argv:
                argv[rng.randrange(len(argv))] = rng.choice(junk)
            code = cli.main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), argv



# Any JSON value, including NaN/Infinity literals and integers beyond float
# range, which json.loads accepts and a float conversion rejects.
HUGE = st.sampled_from([10**400, -(10**400)])
BIG = "1" + "0" * 400
json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | HUGE | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=8,
)
numbers = st.floats(-100, 100) | st.integers(-100, 100) | HUGE | json_values
labels = st.sampled_from(["P", "NP", "a", "b"]) | json_values
shapes = st.lists(numbers, min_size=3, max_size=5) | json_values

# Near-valid documents for each loader, so that the values reach the constructors.
granule = st.fixed_dictionaries({"label": labels, "shape": shapes})
mass = st.fixed_dictionaries({"focal": st.lists(labels, max_size=2), "value": numbers})
dnumber = st.fixed_dictionaries(
    {"frame": st.lists(labels, max_size=3), "masses": st.lists(mass, max_size=3)}
)
curve = st.fixed_dictionaries({"focal": st.lists(labels, max_size=2), "shape": shapes})
body = st.fixed_dictionaries(
    {
        "name": st.sampled_from(BODY_NAMES) | json_values,
        "unit": st.just("u") | json_values,
        "curves": st.lists(curve, max_size=3),
    },
    optional={"epsilon": numbers},
)
row = st.fixed_dictionaries(
    {
        "id": st.text(max_size=2) | json_values,
        "breaks": numbers,
        "pressure": numbers,
        "distance": numbers,
    }
)
ARGV = {
    "epsilon": lambda path: ["epsilon", path],
    "fuse": lambda path: ["fuse", path, "--epsilon", "0.1"],
    "assess": lambda path: [
        "assess", "--breaks", "10", "--pressure", "0", "--distance", "3", "--model", path
    ],
    "batch": lambda path: ["batch", path, "--format", "json"],
}


def _texts(docs):
    nested = st.integers(1, 100_000).map(lambda depth: "[" * depth + "]" * depth)
    return (docs | json_values).map(json.dumps) | nested


documents = st.one_of(
    st.tuples(st.just("epsilon"), _texts(st.fixed_dictionaries({"granules": st.lists(granule)}))),
    st.tuples(st.just("fuse"), _texts(st.lists(dnumber, max_size=3))),
    st.tuples(st.just("assess"), _texts(st.fixed_dictionaries({"bodies": st.lists(body)}))),
    st.tuples(st.just("batch"), _texts(st.lists(row, max_size=3))),
)


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "doc.json"


class TestExitContract:
    @given(case=documents)
    @example(case=("epsilon", '{"granules": [{"label": "x", "shape": [0, %s, 1, 2]}]}' % BIG))
    @example(case=("fuse", '[{"frame": ["a"], "masses": [{"focal": ["a"], "value": %s}]}]' % BIG))
    @example(
        case=(
            "assess",
            '{"bodies": [{"name": "source", "unit": "m", "epsilon": -%s, '
            '"curves": [{"focal": ["P"], "shape": [0, 1, 2, 3]}]}]}' % BIG,
        )
    )
    @example(case=("batch", '[{"id": "x", "breaks": %s, "pressure": 0, "distance": 3}]' % BIG))
    @example(case=("batch", '[{"id": "x", "breaks": NaN, "pressure": -Infinity, "distance": 3}]'))
    @example(case=("batch", "[" * 100_000 + "]" * 100_000))
    @settings(deadline=None)
    def test_any_document_keeps_the_exit_contract(self, doc_path, case):
        command, text = case
        doc_path.write_text(text, encoding="utf-8")
        code, _, err = call(ARGV[command](str(doc_path)))
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONFLICT)
        if err:
            assert err.startswith("error:") and len(err.splitlines()) == 1, err
        else:
            # batch reports failed rows in its output, not on stderr
            assert code == EXIT_OK or command == "batch"

    @given(field=st.sampled_from(["breaks", "pressure", "distance"]), value=json_values)
    @example(field="breaks", value=10**400)
    @example(field="distance", value=-(10**400))
    @settings(deadline=None)
    def test_a_bad_row_stays_a_row_error(self, doc_path, field, value):
        good = {"id": "good", "breaks": 10, "pressure": 0, "distance": 3}
        bad = {**good, "id": "bad", field: value}
        doc_path.write_text(json.dumps([bad, good]), encoding="utf-8")
        code, out, err = call(ARGV["batch"](str(doc_path)))
        assert code == EXIT_OK and err == ""
        bad_row, good_row = json.loads(out)
        assert bad_row["id"] == "bad" and ("error" in bad_row or "risk" in bad_row)
        assert good_row["risk"] == {"P": 0.442, "P,NP": 0.067, "NP": 0.491}
