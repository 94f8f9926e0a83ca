"""Seeded input generation for the three workloads.

A workload is one round of CLI calls (:class:`Op`) over files written to a
work directory. The same seed writes the same files. What a round is made of
(how many calls, file sizes, which calls use a model file, the shape kinds
and their proportions) is fixed by position in the round and does not depend
on the seed, so that rates and percentiles compare between seeds; the seed
draws the values, positions and breakpoints.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

WORKLOADS = ("screening", "alerts", "analysis")


@dataclass
class Op:
    """One ``dnfusion.cli.main`` call and what its output must match."""

    argv: list[str]
    kind: str  # batch | assess | epsilon | fuse
    items: int
    expect: object
    # independent totals for the traced run's counts
    rows: int = 0  # assess_risk calls the op makes
    pairs: int = 0  # granule pairs the op puts through relative_matrix


@dataclass
class Plan:
    """One round of a workload and what its set-up builds."""

    ops: list[Op]
    # "default" for the built-in model, else model files to load at set-up
    setup_models: list[str] = field(default_factory=list)


def generate(workload: str, seed: int, workdir: Path) -> Plan:
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return {"screening": _screening, "alerts": _alerts, "analysis": _analysis}[workload](
        rng, workdir
    )


def _write(path: Path, doc: object) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


# ---- intrusion models ------------------------------------------------------

# measurement axis of each body, and the focal of its low and high end
_AXES = {
    "pathway": (0.0, 70.0, "NP", "P"),
    "pressure": (-75.0, 100.0, "P", "NP"),
    "source": (0.0, 60.0, "P", "NP"),
}
_UNITS = {"pathway": "breaks/100 km/year", "pressure": "psi", "source": "m"}
_FOCAL_LABELS = {"P": ["P"], "PNP": ["NP", "P"], "NP": ["NP"]}


def _body_curves(rng: random.Random, name: str, n: int) -> list[tuple[str, tuple]]:
    """``n`` curves left to right over 85 % of the axis, neighbours overlapping."""
    lo, hi, low_focal, high_focal = _AXES[name]
    width = 0.85 * (hi - lo) / n
    curves = []
    for i in range(n):
        centre = lo + (i + 0.5) * width + rng.uniform(-0.15, 0.15) * width
        core = rng.uniform(0.0, 0.3) * width if i % 3 != 1 else 0.0  # every third a triangle
        half = rng.uniform(0.7, 1.0) * width
        shape = tuple(
            round(v, 3) for v in (centre - half, centre - core, centre + core, centre + half)
        )
        if i == 0:
            focal = low_focal
        elif i == n - 1:
            focal = high_focal
        else:
            focal = rng.choice(("P", "PNP", "NP"))
        curves.append((focal, shape))
    return curves


def _model(rng: random.Random, path: Path, counts: tuple[int, int, int], index: int):
    """Write a model file; returns the reference model and its granule pairs.

    Bodies alternate between a configured epsilon (the reference-derived
    value at 4 decimals, so the program has no cause to warn) and none, and
    between labelled and unlabelled curves.
    """
    bodies = []
    model = {}
    for b, (name, n) in enumerate(zip(("pathway", "pressure", "source"), counts)):
        curves = _body_curves(rng, name, n)
        derived = ref.body_epsilon(curves)
        body = {"name": name, "unit": _UNITS[name], "curves": []}
        for i, (focal, shape) in enumerate(curves):
            entry = {"focal": _FOCAL_LABELS[focal], "shape": list(shape)}
            if (index + b) % 2:
                entry["label"] = f"{name} {i}"
            body["curves"].append(entry)
        eps = derived
        if (index + b) % 2 == 0 and round(derived, 4) > 0.0:
            eps = round(derived, 4)
            body["epsilon"] = eps
        bodies.append(body)
        model[name] = {"epsilon": eps, "curves": curves}
    _write(path, {"bodies": bodies})
    return model, sum(_pairs(n) for n in counts)


_BUILTIN_PAIRS = sum(_pairs(len(b["curves"])) for b in ref.BUILTIN_MODEL.values())


# ---- screening -------------------------------------------------------------

SCREENING_FILES = 24
SCREENING_SITES = 60


def _screening(rng: random.Random, workdir: Path) -> Plan:
    models = [
        _model(rng, workdir / f"screening-model-{k}.json", counts, k)
        for k, counts in enumerate(((3, 4, 3), (4, 3, 4)))
    ]
    ops = []
    for f in range(SCREENING_FILES):
        # sizes 200..600 rows in a fixed shuffled order
        size = 200 + round(400 * ((f * 7) % SCREENING_FILES) / (SCREENING_FILES - 1))
        # a site has a fixed breakage rate (0.5 steps), source distance (0.5 m)
        # and operating pressure (1 psi); most readings sit near that pressure
        # and one in five is a transient anywhere on the axis
        sites = [
            (rng.randrange(141) * 0.5, rng.randrange(121) * 0.5, rng.randint(10, 90))
            for _ in range(SCREENING_SITES)
        ]
        use_file = f % 6 == 5
        model, model_pairs = models[(f // 6) % 2] if use_file else (ref.BUILTIN_MODEL, _BUILTIN_PAIRS)
        rows, expect = [], []
        for r in range(size):
            breaks, distance, nominal = rng.choice(sites)
            if rng.random() < 0.2:
                pressure = float(rng.randint(-75, 100))
            else:
                pressure = float(nominal + round(rng.gauss(0.0, 2.0)))
            row_id = f"d{f:02d}-{r:04d}"
            rows.append({"id": row_id, "breaks": breaks, "pressure": pressure, "distance": distance})
            expect.append((row_id, breaks, pressure, distance, ref.risk(model, breaks, pressure, distance)))
        path = _write(workdir / f"district-{f:02d}.json", rows)
        argv = ["batch", path, "--format", "json"]
        if use_file:
            argv[2:2] = ["--model", str(workdir / f"screening-model-{(f // 6) % 2}.json")]
        ops.append(Op(argv, "batch", size, expect, rows=size, pairs=model_pairs))
    return Plan(ops, ["default"])


# ---- alerts ----------------------------------------------------------------

ALERT_MODELS = ((2, 3, 4), (5, 2, 3), (3, 5, 2), (4, 4, 5))
ALERTS_PER_MODEL = 50


def _alerts(rng: random.Random, workdir: Path) -> Plan:
    models = []
    for k, counts in enumerate(ALERT_MODELS):
        path = workdir / f"alert-model-{k}.json"
        model, pairs = _model(rng, path, counts, k)
        models.append((str(path), model, pairs))
    ops = []
    seen = set()
    for i in range(ALERTS_PER_MODEL * len(models)):
        path, model, pairs = models[i % len(models)]
        while True:
            values = (rng.uniform(0.0, 70.0), rng.uniform(-75.0, 100.0), rng.uniform(0.0, 60.0))
            if values not in seen:
                seen.add(values)
                break
        b, p, d = values
        argv = [
            "assess",
            f"--breaks={b!r}",
            f"--pressure={p!r}",
            f"--distance={d!r}",
            "--model",
            path,
            "--format",
            "json",
        ]
        ops.append(Op(argv, "assess", 1, (values, ref.risk(model, b, p, d)), rows=1, pairs=pairs))
    return Plan(ops, [m[0] for m in models])


# ---- analysis --------------------------------------------------------------

# Five calls of 40 granules hold the middle of the round's cost order and
# three of 130 hold its 90th percentile, so that the call percentiles land
# among calls of one size instead of between two sizes or among fuse calls,
# whose cost varies with the seed's focal sets.
GRANULATION_SIZES = (8, 16, 24, 40, 40, 40, 40, 40, 130, 130, 130, 150)
# these granulations have pairwise disjoint supports
DISJOINT = {2, 6, 10}
# (D numbers, frame labels) of each fuse call
FUSE_SIZES = (
    (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8),
    (8, 9), (9, 10), (10, 11), (11, 12), (12, 12), (12, 10),
)  # fmt: skip
# fixed cycle of shape kinds: 4 trapezoids, 3 triangles, 2 rectangles, 1 point
KINDS = ("trap", "tri", "rect", "trap", "point", "tri", "trap", "rect", "tri", "trap")


def _shape(rng: random.Random, kind: str, a: float, w: float) -> tuple:
    if kind == "point":
        return (a, a, a, a)
    if kind == "rect":
        return (a, a, a + w, a + w)
    if kind == "tri":
        peak = a + rng.uniform(0.2, 0.8) * w
        return (a, peak, peak, a + w)
    b = a + rng.uniform(0.1, 0.4) * w
    c = b + rng.uniform(0.1, 0.6) * (a + w - b)
    return (a, b, c, a + w)


def granulation_shapes(rng: random.Random, n: int, disjoint: bool) -> list[tuple]:
    """``n`` shapes; unless ``disjoint``, some touch or nest in their predecessor."""
    shapes = []
    cursor = 0.0
    for i in range(n):
        kind = KINDS[i % len(KINDS)]
        w = rng.uniform(1.0, 8.0)
        if disjoint:
            a = cursor + rng.uniform(0.5, 2.0)
        elif i and i % 9 == 3:
            a = shapes[-1][3]  # touches the previous support
        elif i and i % 9 == 6 and shapes[-1][3] > shapes[-1][0]:
            pa, pd = shapes[-1][0], shapes[-1][3]
            a = pa + rng.uniform(0.1, 0.4) * (pd - pa)  # nested in the previous support
            w = rng.uniform(0.1, 0.5) * (pd - a)
        else:
            a = rng.uniform(0.0, 4.0 * n)
        shape = tuple(round(v, 3) for v in _shape(rng, kind, a, w))
        shapes.append(shape)
        cursor = shape[3]
    return shapes


def _dnumbers(rng: random.Random, count: int, size: int) -> list[dict[int, float]]:
    """``count`` D numbers on ``size`` labels, focal sets drawn label by label."""
    out = []
    for j in range(count):
        k = 2 + j % 4
        focals: list[int] = []
        while len(focals) < k:
            mask = sum(1 << b for b in range(size) if rng.random() < 0.5)
            if mask and mask not in focals:
                focals.append(mask)
        weights = [rng.uniform(0.05, 1.0) for _ in focals]
        scale = rng.uniform(0.85, 0.98) if j % 3 == 2 else 1.0  # every third incomplete
        total = sum(weights) / scale
        out.append({f: w / total for f, w in zip(focals, weights)})
    return out


def _analysis(rng: random.Random, workdir: Path) -> Plan:
    ops = []
    for g, (n, (count, size)) in enumerate(zip(GRANULATION_SIZES, FUSE_SIZES)):
        shapes = granulation_shapes(rng, n, g in DISJOINT)
        labels = [f"g{i:03d}" for i in range(n)]
        path = _write(
            workdir / f"granulation-{g:02d}.json",
            {"granules": [{"label": l, "shape": list(s)} for l, s in zip(labels, shapes)]},
        )
        matrix = ref.relative_matrix(shapes)
        expect = (labels, matrix, ref.epsilon(matrix), g in DISJOINT)
        ops.append(Op(["epsilon", path, "--format", "json"], "epsilon", n, expect, pairs=_pairs(n)))

        frame = [f"c{b}" for b in range(size)]
        dnumbers = _dnumbers(rng, count, size)
        doc = []
        for m in dnumbers:
            masses = []
            for mask, value in m.items():
                focal = [frame[b] for b in range(size) if mask >> b & 1]
                rng.shuffle(focal)
                masses.append({"focal": focal, "value": value})
            doc.append({"frame": frame, "masses": masses})
        path = _write(workdir / f"dnumbers-{g:02d}.json", doc)
        eps = round(rng.uniform(0.05, 0.35), 3)
        fused = ref.fuse(dnumbers, eps, (1 << size) - 1)
        argv = ["fuse", path, "--epsilon", repr(eps), "--format", "json"]
        ops.append(Op(argv, "fuse", count, (frame, eps, fused)))
    return Plan(ops, [])
