"""Tests of the benchmark itself: reference closed forms, checks that reject
perturbed outputs, and traced counts that repeat and match the inputs.

Run from the repository root: python3 -m pytest bench
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import reference as ref
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from dnfusion import cli  # noqa: E402

# ---- reference closed forms ------------------------------------------------


def test_rectangles_overlap_over_union():
    # [0, 4] and [1, 6]: overlap 3, union 6
    assert ref.degree((0, 0, 4, 4), (1, 1, 6, 6)) == pytest.approx(0.5, abs=1e-15)
    # nested: [2, 3] inside [0, 10]
    assert ref.degree((0, 0, 10, 10), (2, 2, 3, 3)) == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize(
    "shape", [(0, 1, 2, 3), (0, 2, 2, 5), (1, 1, 4, 4), (3, 3, 3, 3), (-2, 0, 0, 0)]
)
def test_identical_shapes_give_one(shape):
    assert ref.degree(shape, shape) == 1.0


@pytest.mark.parametrize(
    "s1, s2",
    [((0, 1, 2, 3), (4, 5, 6, 7)), ((0, 1, 2, 3), (3, 4, 5, 6)), ((1, 1, 1, 1), (0, 2, 2, 4)),
     ((1, 1, 1, 1), (2, 2, 2, 2))],
)  # fmt: skip
def test_disjoint_or_touching_supports_give_zero(s1, s2):
    assert ref.degree(s1, s2) == 0.0
    assert ref.degree(s2, s1) == 0.0


def test_crossing_triangles():
    # two unit triangles peaking at 0 and 1 cross at x = 0.5, height 0.5
    low, high = ref.envelope_areas((-1, 0, 0, 1), (0, 1, 1, 2))
    assert low == pytest.approx(0.25, abs=1e-15)
    assert high == pytest.approx(1.75, abs=1e-15)


def test_membership_edges():
    assert ref.membership((0, 0, 14, 26), 0.0) == 1.0
    assert ref.membership((0, 0, 14, 26), 26.0) == 0.0
    assert ref.membership((1, 2, 3, 3), 3.0) == 1.0
    assert ref.membership((1, 2, 3, 4), 1.5) == 0.5


def test_two_label_combination_by_hand():
    # (P, PNP, NP) = (0.6, 0.3, 0.1) with (0.2, 0.3, 0.5):
    # conflict k = 0.6*0.5 + 0.1*0.2 = 0.32, 1 - k = 0.68
    # P  = (0.12 + 0.18 + 0.06) / 0.68, PNP = 0.09 / 0.68, NP = (0.05 + 0.03 + 0.15) / 0.68
    p, t, n = ref.combine2((0.6, 0.3, 0.1), (0.2, 0.3, 0.5))
    assert p == pytest.approx(0.36 / 0.68, abs=1e-15)
    assert t == pytest.approx(0.09 / 0.68, abs=1e-15)
    assert n == pytest.approx(0.23 / 0.68, abs=1e-15)
    # the bitmask rule agrees: P = 1, NP = 2, {P, NP} = 3
    fused = ref.dempster({1: 0.6, 3: 0.3, 2: 0.1}, {1: 0.2, 3: 0.3, 2: 0.5})
    assert fused[1] == pytest.approx(p, abs=1e-15)
    assert fused[3] == pytest.approx(t, abs=1e-15)
    assert fused[2] == pytest.approx(n, abs=1e-15)


def test_total_conflict_and_completion():
    assert ref.dempster({1: 1.0}, {2: 1.0}) is None
    # an incomplete input gives its deficit to the whole frame before discounting
    fused = ref.fuse([{1: 0.5}, {3: 1.0}], 0.0, 3)
    assert fused == {1: pytest.approx(0.5), 3: pytest.approx(0.5)}


# ---- checks reject perturbed outputs -----------------------------------------


def _output(op) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(op.argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One real output of each kind, with the op that made it."""
    found = {}
    for name in workloads.WORKLOADS:
        plan = workloads.generate(name, 11, tmp_path_factory.mktemp(name))
        for op in plan.ops:
            found.setdefault(op.kind, (op, _output(op)))
    return found


def _rejects(kind, outputs, mutate):
    op, text = outputs[kind]
    checks.CHECKS[kind](text, op.expect)  # the real output passes
    doc = json.loads(text)
    mutate(doc)
    with pytest.raises(checks.CheckError):
        checks.CHECKS[kind](json.dumps(doc), op.expect)


def _bump(entry, key, by):
    entry[key] = round(entry[key] + by, 6)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda rows: _bump(rows[3]["risk"], "P", 1e-3),
        lambda rows: _bump(rows[-1]["risk"], "NP", -1e-3),
        lambda rows: rows.pop(),
        lambda rows: rows.insert(0, rows.pop(5)),
        lambda rows: rows[7].update(id="other"),
        lambda rows: _bump(rows[2], "pressure", 1.0),
    ],
)
def test_batch_check_rejects(outputs, mutate):
    _rejects("batch", outputs, mutate)


def test_batch_check_rejects_a_wrong_verdict(outputs):
    op, text = outputs["batch"]
    rows = json.loads(text)
    decided = next(i for i, e in enumerate(op.expect) if ref.verdict(e[4]) is not None)
    wrong = next(v for v in ("P", "P,NP", "NP") if v != rows[decided]["verdict"])
    _rejects("batch", outputs, lambda rows: rows[decided].update(verdict=wrong))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: _bump(doc["risk"], "P,NP", 1e-3),
        lambda doc: doc["risk"].pop("NP"),
        lambda doc: _bump(doc, "breaks", 1e-9),
    ],
)
def test_assess_check_rejects(outputs, mutate):
    _rejects("assess", outputs, mutate)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: _bump(doc, "epsilon", 2e-4),
        lambda doc: doc["matrix"][1].__setitem__(0, round(doc["matrix"][1][0] + 2e-4, 6)),
        lambda doc: doc["matrix"].pop(),
        lambda doc: doc["labels"].reverse(),
    ],
)
def test_epsilon_check_rejects(outputs, mutate):
    _rejects("epsilon", outputs, mutate)


def test_epsilon_check_requires_zero_for_disjoint_supports():
    labels = ["a", "b"]
    text = json.dumps({"labels": labels, "matrix": [[1.0, 0.0], [0.0, 1.0]], "epsilon": 0.0001})
    with pytest.raises(checks.CheckError):
        checks.check_epsilon(text, (labels, [[1.0, 0.0], [0.0, 1.0]], 0.0, True))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: _bump(doc["masses"][0], "value", 1e-4),
        lambda doc: doc["masses"].pop(),
        lambda doc: doc["masses"].reverse(),
        lambda doc: doc["masses"].append(dict(doc["masses"][0])),
        lambda doc: max(doc["masses"], key=lambda m: len(m["focal"]))["focal"].reverse(),
        lambda doc: _bump(doc, "epsilon", 1e-3),
    ],
)
def test_fuse_check_rejects(outputs, mutate):
    op, text = outputs["fuse"]
    assert len(json.loads(text)["masses"]) > 1
    _rejects("fuse", outputs, mutate)


# ---- inputs and traced counts ----------------------------------------------


def test_inputs_repeat_for_a_seed(tmp_path):
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 5, tmp_path / "a")
        b = workloads.generate(name, 5, tmp_path / "b")
        assert [op.expect for op in a.ops] == [op.expect for op in b.ops]
        for path in (tmp_path / "a").iterdir():
            assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()
        shutil.rmtree(tmp_path / "a")
        shutil.rmtree(tmp_path / "b")


def _traced_counts(plan):
    runner = run.Runner(cli)
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        runner.round(plan.ops)
    finally:
        tracer.uninstall()
    assert runner.failed == 0 and runner.wrong == 0
    calls, _, _, _ = tracer.metrics()
    return {**calls, **tracer.counts}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_and_match_the_inputs(name, tmp_path):
    plan = workloads.generate(name, 2, tmp_path)
    first = _traced_counts(plan)
    assert _traced_counts(plan) == first
    rows = sum(op.rows for op in plan.ops)
    pairs = sum(op.pairs for op in plan.ops)
    assert first.get("intrusion.assess_risk", 0) == rows
    assert first["exclusivity.pairs"] == pairs
    assert first["fuzzy.non_exclusive_degree"] == pairs
    assert first["cli.main"] == len(plan.ops)
    if name == "analysis":
        assert first["dnumber.combine"] == sum(op.items - 1 for op in plan.ops if op.kind == "fuse")


def test_uninstall_restores_every_binding():
    from dnfusion import dnumber, exclusivity, fuzzy, intrusion

    before = (cli.assess_risk, exclusivity.non_exclusive_degree, cli.main,
              dnumber.DNumber.__dict__["__init__"], intrusion.EvidenceBody.__dict__["build"],
              fuzzy.TrapezoidalFuzzyNumber.membership, intrusion.combine_all)  # fmt: skip
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.assess_risk is not before[0]
    assert exclusivity.non_exclusive_degree is not before[1]
    assert isinstance(intrusion.EvidenceBody.__dict__["build"], classmethod)
    tracer.uninstall()
    after = (cli.assess_risk, exclusivity.non_exclusive_degree, cli.main,
             dnumber.DNumber.__dict__["__init__"], intrusion.EvidenceBody.__dict__["build"],
             fuzzy.TrapezoidalFuzzyNumber.membership, intrusion.combine_all)  # fmt: skip
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: math.fsum(range(20000)))
    outer = tracer.span("outer", lambda: [inner() for _ in range(3)])
    outer()
    calls, total, own, edges = tracer.metrics()
    assert calls == {"outer": 1, "inner": 3}
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"], abs=1e-12)
    assert edges[("outer", "inner")][0] == 3 and edges[("-", "outer")][0] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "alerts", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
