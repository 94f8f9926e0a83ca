"""End-to-end gate: seven pinned checks, one summary line each.

Every test prints a ``criterion N ... PASS``/``FAIL`` line past pytest's
capture so the verdicts are visible in the normal test run output.
"""

import json
import random
import time
import warnings
from contextlib import contextmanager

import pytest

from dnfusion import (
    DNumber,
    Frame,
    TotalConflict,
    cli,
    combine_all,
    exclusive_coefficient,
    relative_matrix,
)
from dnfusion.fuzzy import _envelope_areas

from generators import (
    random_complete_dnumber,
    random_frame,
    random_trapezoid,
    smooth_trapezoid,
)
from oracles import rational_combine, riemann_envelope_areas

SCORE_LABELS = ("low", "fairly low", "medium", "fairly high", "high")
SCORE_FRAME = Frame(SCORE_LABELS)

EXPERT_ONE = {
    "low": 0.12,
    ("low", "fairly low"): 0.7,
    "medium": 0.02,
    ("high", "medium"): 0.1,
    "fairly high": 0.06,
}
EXPERT_TWO = {
    "low": 0.1,
    ("low", "fairly low"): 0.06,
    "medium": 0.6,
    ("high", "medium"): 0.2,
    "fairly high": 0.04,
}


@contextmanager
def reported(capsys, number, title):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({title}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({title}): PASS")


def scale_epsilon(scale):
    return exclusive_coefficient(relative_matrix(scale))


def test_criterion_1_relative_matrix(capsys, scale):
    with reported(capsys, 1, "relative matrix"):
        start = time.perf_counter()
        matrix = relative_matrix(scale)
        elapsed = time.perf_counter() - start
        expected_nonzero = {
            (0, 1): 0.0577,
            (1, 2): 0.0810,
            (2, 3): 0.0449,
            (3, 4): 0.2353,
        }
        for (i, j), value in expected_nonzero.items():
            assert matrix.values[i][j] == pytest.approx(value, abs=5e-4)
            assert matrix.values[j][i] == matrix.values[i][j]
        for i in range(5):
            for j in range(5):
                if i == j:
                    assert matrix.values[i][j] == 1.0
                elif (i, j) not in expected_nonzero and (j, i) not in expected_nonzero:
                    assert matrix.values[i][j] == 0.0
        assert elapsed < 1.0


def test_criterion_2_exclusive_coefficient(capsys, scale):
    with reported(capsys, 2, "exclusive coefficient"):
        assert scale_epsilon(scale) == pytest.approx(0.042, abs=5e-4)


def test_criterion_3_discounting(capsys, scale):
    with reported(capsys, 3, "discounting"):
        epsilon = scale_epsilon(scale)
        d1 = DNumber(SCORE_FRAME, EXPERT_ONE).discount(epsilon)
        d2 = DNumber(SCORE_FRAME, EXPERT_TWO).discount(epsilon)
        theta = SCORE_FRAME.theta
        expected_one = {
            SCORE_FRAME.focal("low"): 0.115,
            SCORE_FRAME.focal(("low", "fairly low")): 0.671,
            SCORE_FRAME.focal("medium"): 0.019,
            SCORE_FRAME.focal(("high", "medium")): 0.096,
            SCORE_FRAME.focal("fairly high"): 0.057,
            theta: 0.042,
        }
        expected_two = {
            SCORE_FRAME.focal("low"): 0.096,
            SCORE_FRAME.focal(("low", "fairly low")): 0.057,
            SCORE_FRAME.focal("medium"): 0.575,
            SCORE_FRAME.focal(("high", "medium")): 0.192,
            # the 0.04 entry scales to 0.0383, not the 0.38 a misplaced
            # decimal point would suggest
            SCORE_FRAME.focal("fairly high"): 0.0383,
            theta: 0.042,
        }
        assert set(d1.masses) == set(expected_one)
        for focal, value in expected_one.items():
            assert d1.masses[focal] == pytest.approx(value, abs=1e-3)
        assert set(d2.masses) == set(expected_two)
        for focal, value in expected_two.items():
            assert d2.masses[focal] == pytest.approx(value, abs=1e-3)


def test_criterion_4_fusion(capsys, scale):
    with reported(capsys, 4, "two-expert fusion"):
        epsilon = scale_epsilon(scale)
        start = time.perf_counter()
        fused = DNumber(SCORE_FRAME, EXPERT_ONE).discount(epsilon).combine(
            DNumber(SCORE_FRAME, EXPERT_TWO).discount(epsilon)
        )
        elapsed = time.perf_counter() - start
        expected = {
            SCORE_FRAME.focal("low"): 0.3096,
            SCORE_FRAME.focal(("low", "fairly low")): 0.2359,
            SCORE_FRAME.focal("medium"): 0.3232,
            SCORE_FRAME.focal("fairly high"): 0.0213,
            SCORE_FRAME.focal(("high", "medium")): 0.1039,
            SCORE_FRAME.theta: 0.0061,
        }
        assert set(fused.masses) == set(expected)
        for focal, value in expected.items():
            assert fused.masses[focal] == pytest.approx(value, abs=5e-3)
        assert elapsed < 1.0


def test_criterion_5_batch_scenarios(capsys, tmp_path):
    with reported(capsys, 5, "six batch scenarios"):
        rows = [
            {"id": "s1", "breaks": 10, "pressure": 0, "distance": 3},
            {"id": "s2", "breaks": 10, "pressure": 0, "distance": 20},
            {"id": "s3", "breaks": 10, "pressure": 50, "distance": 20},
            {"id": "s4", "breaks": 30, "pressure": 50, "distance": 20},
            {"id": "s5", "breaks": 30, "pressure": 50, "distance": 3},
            {"id": "s6", "breaks": 30, "pressure": -20, "distance": 3},
        ]
        expected = {
            "s1": (0.44, 0.07, 0.49),
            "s2": (0.0, 0.1195, 0.8805),
            "s3": (0.0, 0.013, 0.987),
            "s4": (0.0, 0.11, 0.89),
            "s5": (0.41, 0.06, 0.53),
            "s6": (0.98, 0.02, 0.0),
        }
        path = tmp_path / "scenarios.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        start = time.perf_counter()
        code = cli.main(["batch", str(path), "--format", "json"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert [row["id"] for row in payload] == [row["id"] for row in rows]
        for row in payload:
            p, p_np, np_ = expected[row["id"]]
            assert row["risk"]["P"] == pytest.approx(p, abs=1e-2)
            assert row["risk"]["P,NP"] == pytest.approx(p_np, abs=1e-2)
            assert row["risk"]["NP"] == pytest.approx(np_, abs=1e-2)
        assert elapsed < 1.0


def test_criterion_6_property_suites(capsys):
    with reported(capsys, 6, "randomized property suites"):
        cases = 1000
        start = time.perf_counter()

        rng = random.Random(60001)
        for _ in range(cases):
            t1 = random_trapezoid(rng)
            t2 = random_trapezoid(rng)
            s, u = _envelope_areas(t1, t2)
            assert abs(s + u - (t1.area() + t2.area())) <= 1e-12

        rng = random.Random(60002)
        for _ in range(cases):
            t1 = smooth_trapezoid(rng)
            t2 = smooth_trapezoid(rng)
            s_ref, u_ref = riemann_envelope_areas(t1, t2)
            s, u = _envelope_areas(t1, t2)
            assert abs(s - s_ref) <= 1e-6
            assert abs(u - u_ref) <= 1e-6

        rng = random.Random(60003)
        done = 0
        while done < cases:
            frame = random_frame(rng)
            d1 = random_complete_dnumber(rng, frame)
            d2 = random_complete_dnumber(rng, frame)
            try:
                forward = d1.combine(d2)
            except TotalConflict:
                continue
            backward = d2.combine(d1)
            assert set(forward.masses) == set(backward.masses)
            for focal, mass in forward.masses.items():
                assert abs(mass - backward.masses[focal]) <= 1e-12
            done += 1

        rng = random.Random(60004)
        done = 0
        while done < cases:
            frame = random_frame(rng)
            group = [random_complete_dnumber(rng, frame) for _ in range(3)]
            try:
                left = group[0].combine(group[1]).combine(group[2])
                right = group[0].combine(group[1].combine(group[2]))
            except TotalConflict:
                continue
            assert set(left.masses) == set(right.masses)
            for focal, mass in left.masses.items():
                assert abs(mass - right.masses[focal]) <= 1e-9
            done += 1

        rng = random.Random(60005)
        done = 0
        while done < cases:
            frame = random_frame(rng)
            d1 = random_complete_dnumber(rng, frame)
            d2 = random_complete_dnumber(rng, frame)
            try:
                fused = d1.combine(d2)
            except TotalConflict:
                continue
            assert abs(fused.completeness() - 1.0) <= 1e-9
            done += 1

        rng = random.Random(60006)
        for _ in range(cases):
            d = random_complete_dnumber(rng, random_frame(rng))
            assert d.discount(0.0) == d

        rng = random.Random(60007)
        for _ in range(cases):
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
            assert set(fused.masses) == set(oracle)
            for focal, mass in fused.masses.items():
                assert abs(mass - float(oracle[focal])) <= 1e-12

        assert time.perf_counter() - start < 30.0


def test_criterion_7_cli_robustness(capsys, tmp_path):
    with reported(capsys, 7, "cli robustness"):
        model_doc = {
            "bodies": [
                {
                    "name": "pathway",
                    "unit": "breaks/100 km/year",
                    "epsilon": 0.0,
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
                    "epsilon": 0.0,
                    "curves": [
                        {"label": "near", "focal": ["P"], "shape": [0, 0, 5, 10]},
                        {"label": "far", "focal": ["NP"], "shape": [20, 30, 40, 50]},
                    ],
                },
            ]
        }
        scenario_doc = [
            {"id": "s1", "breaks": 10, "pressure": 0, "distance": 3},
            {"id": "s2", "breaks": 35, "pressure": 0, "distance": 40},
        ]
        model_text = json.dumps(model_doc)
        scenario_text = json.dumps(scenario_doc)

        def mutate(rng, text):
            kind = rng.randrange(6)
            if kind == 0:
                cut = rng.randrange(len(text))
                return text[:cut]
            if kind == 1:
                pos = rng.randrange(len(text))
                return text[:pos] + rng.choice('}]{["x,:') + text[pos:]
            if kind == 2:
                return text.replace(rng.choice(['"', ":", ",", "[", "]"]), "", 1)
            if kind == 3:
                needle = rng.choice(["0", "1", "2", "3", "5"])
                return text.replace(needle, rng.choice(["-1", "1e309", "NaN", "null", '"x"']))
            if kind == 4:
                needle = rng.choice(["breaks", "distance", "focal", "shape", "name", "id"])
                return text.replace(needle, "nope", 1)
            return text

        rng = random.Random(70001)
        codes = set()
        for i in range(200):
            model_path = tmp_path / f"m{i}.json"
            scenario_path = tmp_path / f"s{i}.json"
            model_path.write_text(mutate(rng, model_text), encoding="utf-8")
            scenario_path.write_text(mutate(rng, scenario_text), encoding="utf-8")
            argv = rng.choice(
                [
                    ["batch", str(scenario_path), "--model", str(model_path)],
                    ["batch", str(scenario_path), "--model", str(model_path), "--format", "json"],
                    [
                        "assess",
                        "--breaks",
                        str(rng.uniform(-50, 80)),
                        "--pressure",
                        str(rng.uniform(-80, 100)),
                        "--distance",
                        str(rng.uniform(0, 60)),
                        "--model",
                        str(model_path),
                    ],
                ]
            )
            with warnings.catch_warnings():
                # mutated models may parse yet carry an implausible epsilon
                warnings.simplefilter("ignore")
                code = cli.main(argv)
            capsys.readouterr()
            assert code in (0, 1, 2), argv
            codes.add(code)
        assert 1 in codes

        # exit-code contract on unambiguous inputs
        good_scenarios = tmp_path / "good.json"
        good_scenarios.write_text(scenario_text, encoding="utf-8")
        assert cli.main(["batch", str(good_scenarios)]) == 0
        broken = tmp_path / "broken.json"
        broken.write_text("{not json", encoding="utf-8")
        assert cli.main(["batch", str(broken)]) == 1
        clash = tmp_path / "clash.json"
        clash.write_text(
            json.dumps(
                [
                    {"frame": ["a", "b"], "masses": [{"focal": ["a"], "value": 1.0}]},
                    {"frame": ["a", "b"], "masses": [{"focal": ["b"], "value": 1.0}]},
                ]
            ),
            encoding="utf-8",
        )
        assert cli.main(["fuse", str(clash), "--epsilon", "0"]) == 2
        capsys.readouterr()
