"""Trapezoidal fuzzy numbers and exact areas of their min/max envelopes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import pairwise

from .errors import UndefinedDegree, _as_finite

__all__ = ["TrapezoidalFuzzyNumber", "non_exclusive_degree"]


@dataclass(frozen=True)
class TrapezoidalFuzzyNumber:
    """Membership function that is 0 outside [a, d], 1 on [b, c], linear between.

    Degenerate breakpoints are allowed: ``b == c`` gives a triangular number and
    ``a == b == c == d`` a crisp point. When an edge has zero width the flat side
    wins, so membership at that breakpoint is 1.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _as_finite(getattr(self, name), f"breakpoint {name}"))
        if not self.a <= self.b <= self.c <= self.d:
            raise ValueError(
                "breakpoints must satisfy a <= b <= c <= d, got "
                f"({self.a}, {self.b}, {self.c}, {self.d})"
            )
        # a support wider than a float can measure would turn areas into NaN
        if not math.isfinite(self.d - self.a):
            raise ValueError(f"support width d - a overflows, got [{self.a}, {self.d}]")

    def membership(self, x: float) -> float:
        """Membership degree of ``x``, a value in [0, 1]."""
        if x < self.a or x > self.d:
            return 0.0
        if x < self.b:
            return (x - self.a) / (self.b - self.a)
        if x <= self.c:
            return 1.0
        if x < self.d:
            return (self.d - x) / (self.d - self.c)
        return 0.0

    def area(self) -> float:
        """Integral of the membership function, ((d - a) + (c - b)) / 2."""
        return 0.5 * ((self.d - self.a) + (self.c - self.b))


def _crossing(
    p: tuple[float, float, float, float], q: tuple[float, float, float, float]
) -> float | None:
    # Interior intersection point of two sloped edges, if one exists. The
    # formula negates both numerator and denominator under an argument swap,
    # so the computed point is bit-identical either way.
    px0, px1, py0, py1 = p
    qx0, qx1, qy0, qy1 = q
    lo = px0 if px0 > qx0 else qx0
    hi = px1 if px1 < qx1 else qx1
    if lo >= hi:
        return None
    sp = (py1 - py0) / (px1 - px0)
    sq = (qy1 - qy0) / (qx1 - qx0)
    if sp == sq:
        return None
    x = ((qy0 - sq * qx0) - (py0 - sp * px0)) / (sp - sq)
    if lo <= x <= hi:
        return x
    return None


def _grid(t1: TrapezoidalFuzzyNumber, t2: TrapezoidalFuzzyNumber) -> list[float]:
    # Breakpoints are exact inputs and all stay on the grid, so a narrow but
    # genuine support never collapses however far away the other shape lies.
    # A computed crossing that rounds next to a breakpoint only adds a sliver
    # on which both memberships are still linear, so the midpoint rule in
    # _envelope_areas stays exact there.
    grid = {t1.a, t1.b, t1.c, t1.d, t2.a, t2.b, t2.c, t2.d}
    # Only sloped edges need crossing: a plateau or the zero line meets a
    # sloped edge only at that edge's own end, and that end is a breakpoint.
    # A zero-width edge fails _crossing's overlap test before any division.
    edges1 = ((t1.a, t1.b, 0.0, 1.0), (t1.c, t1.d, 1.0, 0.0))
    edges2 = ((t2.a, t2.b, 0.0, 1.0), (t2.c, t2.d, 1.0, 0.0))
    for p in edges1:
        for q in edges2:
            x = _crossing(p, q)
            if x is not None:
                grid.add(x)
    return sorted(grid)


def _envelope_areas(
    t1: TrapezoidalFuzzyNumber, t2: TrapezoidalFuzzyNumber
) -> tuple[float, float]:
    # Between consecutive grid points both memberships are linear and do not
    # cross, so min and max are linear there and the midpoint value integrates
    # each one exactly.
    grid = _grid(t1, t2)
    lows: list[float] = []
    highs: list[float] = []
    for x0, x1 in pairwise(grid):
        width = x1 - x0
        # x0 + x1 can overflow near float max; halving each end first cannot
        mid = 0.5 * x0 + 0.5 * x1
        f = t1.membership(mid)
        g = t2.membership(mid)
        if f <= g:
            lows.append(width * f)
            highs.append(width * g)
        else:
            lows.append(width * g)
            highs.append(width * f)
    return math.fsum(lows), math.fsum(highs)


def non_exclusive_degree(t1: TrapezoidalFuzzyNumber, t2: TrapezoidalFuzzyNumber) -> float:
    """Intersection area over union area, a value in [0, 1].

    Supports that are disjoint or only touch share no area, so the degree is
    0.0. When both shapes are crisp points the ratio is taken in the limit: 1.0
    if the points coincide, 0.0 otherwise. A zero union outside that convention
    raises UndefinedDegree, which happens only when the envelope areas
    underflow to zero at subnormal breakpoints.
    """
    # The union area is at most this span; past float range, fsum would
    # overflow. It is checked before the exit, so a pair that only touches
    # cannot hide an overflowing span.
    hi = t1.d if t1.d > t2.d else t2.d
    lo = t1.a if t1.a < t2.a else t2.a
    if not math.isfinite(hi - lo):
        raise ValueError(f"joint support of {t1} and {t2} overflows")
    if (t1.d <= t2.a or t2.d <= t1.a) and (t1.a < t1.d or t2.a < t2.d):
        return 0.0
    s, u = _envelope_areas(t1, t2)
    if u <= 0.0:
        if t1.area() == 0.0 and t2.area() == 0.0:
            return 1.0 if t1.a == t2.a else 0.0
        raise UndefinedDegree(f"union area is zero for {t1} and {t2}")
    return s / u
