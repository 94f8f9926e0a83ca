"""Reference computations the benchmark checks dnfusion's outputs against.

Nothing here imports dnfusion. Shapes are plain ``(a, b, c, d)`` tuples, D
numbers are dicts from focal-set bitmasks to masses, and the risk model is a
dict of bodies holding ``(focal, shape)`` curves with focal in
``{"P", "PNP", "NP"}``. The envelope integral works interval by interval on
the union of both shapes' breakpoints and splits an interval only where the
two linear pieces cross, which is a different route from the program's
global crossing grid and midpoint evaluation.
"""

from __future__ import annotations

import math

# Masses a D number may shed as rounding noise before it counts as incomplete;
# the same figure bounds what an exact combination may leave before it is
# total conflict.
DUST = 1e-12


def membership(shape: tuple[float, float, float, float], x: float) -> float:
    """Trapezoid membership; a zero-width edge takes the value of its flat side."""
    a, b, c, d = shape
    if x < a or x > d:
        return 0.0
    rise = 1.0 if b == a else (x - a) / (b - a)
    fall = 1.0 if d == c else (d - x) / (d - c)
    return max(0.0, min(1.0, rise, fall))


def _piece(shape, x0: float, x1: float) -> tuple[float, float]:
    """End values of the shape's linear piece on the open interval (x0, x1).

    The interval lies between two consecutive breakpoints of the joint grid,
    so it sits inside one segment: outside, rising, plateau or falling.
    """
    a, b, c, d = shape
    if x1 <= a or x0 >= d:
        return 0.0, 0.0
    if x1 <= b:
        return (x0 - a) / (b - a), (x1 - a) / (b - a)
    if x0 >= c:
        return (d - x0) / (d - c), (d - x1) / (d - c)
    return 1.0, 1.0


def envelope_areas(s1, s2) -> tuple[float, float]:
    """Exact integrals of min(mu1, mu2) and max(mu1, mu2) over the real line."""
    grid = sorted(set(s1) | set(s2))
    lows: list[float] = []
    highs: list[float] = []
    for x0, x1 in zip(grid, grid[1:]):
        w = x1 - x0
        f0, f1 = _piece(s1, x0, x1)
        g0, g1 = _piece(s2, x0, x1)
        h0, h1 = f0 - g0, f1 - g1
        if h0 * h1 >= 0.0:
            if h0 + h1 <= 0.0:
                lows.append(w * (f0 + f1) / 2)
                highs.append(w * (g0 + g1) / 2)
            else:
                lows.append(w * (g0 + g1) / 2)
                highs.append(w * (f0 + f1) / 2)
            continue
        t = h0 / (h0 - h1)
        y = f0 + t * (f1 - f0)
        lows.append(w * t * (min(f0, g0) + y) / 2 + w * (1 - t) * (min(f1, g1) + y) / 2)
        highs.append(w * t * (max(f0, g0) + y) / 2 + w * (1 - t) * (max(f1, g1) + y) / 2)
    return math.fsum(lows), math.fsum(highs)


def degree(s1, s2) -> float:
    """Intersection area over union area; two crisp points compare by position."""
    low, high = envelope_areas(s1, s2)
    if high <= 0.0:
        return 1.0 if s1[0] == s2[0] else 0.0
    return low / high


def relative_matrix(shapes) -> list[list[float]]:
    n = len(shapes)
    rows = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = degree(shapes[i], shapes[j])
    return rows


def epsilon(matrix) -> float:
    """Mean of the strict upper triangle."""
    n = len(matrix)
    upper = [matrix[i][j] for i in range(n) for j in range(i + 1, n)]
    return math.fsum(upper) / len(upper)


# ---- D numbers over bitmask focal sets ------------------------------------


def complete(m: dict[int, float], theta: int) -> dict[int, float]:
    """Give any missing mass to the whole frame."""
    deficit = 1.0 - math.fsum(m.values())
    if deficit <= DUST:
        return dict(m)
    out = dict(m)
    out[theta] = out.get(theta, 0.0) + deficit
    return out


def discount(m: dict[int, float], eps: float, theta: int) -> dict[int, float]:
    out = {focal: mass * (1.0 - eps) for focal, mass in m.items()}
    out[theta] = out.get(theta, 0.0) + eps
    return out


def dempster(m1: dict[int, float], m2: dict[int, float]) -> dict[int, float] | None:
    """Conflict-normalised product; None when the conflict leaves no mass."""
    buckets: dict[int, list[float]] = {}
    conflict: list[float] = []
    for f1, x in m1.items():
        for f2, y in m2.items():
            meet = f1 & f2
            if meet:
                buckets.setdefault(meet, []).append(x * y)
            else:
                conflict.append(x * y)
    remaining = 1.0 - math.fsum(conflict)
    if remaining <= DUST:
        return None
    return {focal: math.fsum(ps) / remaining for focal, ps in buckets.items()}


def fuse(dnumbers: list[dict[int, float]], eps: float, theta: int) -> dict[int, float] | None:
    """Complete, discount by ``eps`` and fold left with :func:`dempster`."""
    result = None
    for m in dnumbers:
        d = discount(complete(m, theta), eps, theta)
        result = d if result is None else dempster(result, d)
        if result is None:
            return None
    return result


# ---- the two-label intrusion frame {P, NP} --------------------------------

VACUOUS = (0.0, 1.0, 0.0)


def combine2(x: tuple[float, float, float], y: tuple[float, float, float]):
    """Closed form of the combination of two (P, PNP, NP) triples."""
    p1, t1, n1 = x
    p2, t2, n2 = y
    keep = 1.0 - (p1 * n2 + n1 * p2)
    return (
        (p1 * p2 + p1 * t2 + t1 * p2) / keep,
        t1 * t2 / keep,
        (n1 * n2 + n1 * t2 + t1 * n2) / keep,
    )


def body_triple(curves, value: float) -> tuple[float, float, float]:
    """Normalised memberships of a body's curves at ``value`` as (P, PNP, NP)."""
    w = {"P": 0.0, "PNP": 0.0, "NP": 0.0}
    for focal, shape in curves:
        w[focal] += membership(shape, value)
    total = w["P"] + w["PNP"] + w["NP"]
    if total <= 0.0:
        return VACUOUS
    return (w["P"] / total, w["PNP"] / total, w["NP"] / total)


def body_epsilon(curves) -> float:
    return epsilon(relative_matrix([shape for _, shape in curves]))


def risk(model: dict, breaks: float, pressure: float, distance: float):
    """Fused (P, PNP, NP) triple of the three discounted bodies."""
    fused = None
    for name, value in (("pathway", breaks), ("pressure", pressure), ("source", distance)):
        body = model[name]
        p, t, n = body_triple(body["curves"], value)
        e = body["epsilon"]
        d = (p * (1 - e), t * (1 - e) + e, n * (1 - e))
        fused = d if fused is None else combine2(fused, d)
    return fused


def verdict(triple) -> str | None:
    """Label of the largest mass, or None when the top two are within 1e-3."""
    ranked = sorted(zip(triple, ("P", "P,NP", "NP")), reverse=True)
    if ranked[0][0] - ranked[1][0] <= 1e-3:
        return None
    return ranked[0][1]


# The package's built-in calibration, copied as data: breakpoints and the
# configured epsilon of each body.
BUILTIN_MODEL = {
    "pathway": {
        "epsilon": 0.1195,
        "curves": [
            ("NP", (0.0, 0.0, 14.0, 26.0)),
            ("PNP", (11.0, 13.0, 18.0, 25.0)),
            ("P", (32.0, 38.0, 55.0, 60.0)),
        ],
    },
    "pressure": {
        "epsilon": 0.1057,
        "curves": [
            ("P", (-60.0, -50.0, -4.0, -1.0)),
            ("PNP", (-19.0, -15.0, 10.0, 48.0)),
            ("NP", (5.0, 30.0, 70.0, 90.0)),
        ],
    },
    "source": {
        "epsilon": 0.131,
        "curves": [
            ("P", (0.0, 0.0, 6.0, 14.0)),
            ("PNP", (4.0, 6.0, 9.0, 16.0)),
            ("NP", (22.0, 30.0, 45.0, 50.0)),
        ],
    },
}
