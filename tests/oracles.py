"""Independent numeric oracles for the test suite.

The Riemann oracle tabulates memberships with the clipped min(rise, 1, fall)
formulation rather than the library's branch cascade, and integrates with a
midpoint rule, so it shares no code path with the analytic implementation.
The combination oracle re-does pairwise products in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from dnfusion import DNumber, FocalElement, TrapezoidalFuzzyNumber

RIEMANN_INTERVALS = 1_000_000
# Surviving mass at or below which DNumber.combine reports total conflict:
# its MASS_FLOOR.
TOTAL_CONFLICT_THRESHOLD = Fraction(1e-12)

# Points per block: large enough that per-call overhead stays small, small
# enough that the few scratch buffers stay in cache instead of allocating
# eight-megabyte temporaries for every call.
_BLOCK = 1 << 15


def _clipped_memberships(a, b, c, d, x, out, tmp):
    # min(rise, 1, fall) clipped at 0, written into ``out``. A zero-width
    # edge is +1 on its flat side and -1 beyond: an exact zero difference
    # is +0.0, whose sign is positive.
    np.subtract(x, a, out=out)
    if b > a:
        np.divide(out, b - a, out=out)
    else:
        np.copysign(1.0, out, out=out)
    np.subtract(d, x, out=tmp)
    if d > c:
        np.divide(tmp, d - c, out=tmp)
    else:
        np.copysign(1.0, tmp, out=tmp)
    np.minimum(out, tmp, out=out)
    np.clip(out, 0.0, 1.0, out=out)


def _minmax_sums(a1, b1, c1, d1, a2, b2, c2, d2, lo, hi, n):
    width = hi - lo
    size = min(n, _BLOCK)
    offsets = np.arange(size, dtype=np.float64)
    x, f, g, tmp = (np.empty(size) for _ in range(4))
    smin = 0.0
    smax = 0.0
    for start in range(0, n, size):
        m = min(size, n - start)
        xs, fs, gs, ts = x[:m], f[:m], g[:m], tmp[:m]
        # x_i = lo + width * ((i + 0.5) / n), i = start + offset
        np.add(offsets[:m], start + 0.5, out=xs)
        np.divide(xs, n, out=xs)
        np.multiply(xs, width, out=xs)
        np.add(xs, lo, out=xs)
        _clipped_memberships(a1, b1, c1, d1, xs, fs, ts)
        _clipped_memberships(a2, b2, c2, d2, xs, gs, ts)
        np.minimum(fs, gs, out=ts)
        smin += float(ts.sum())
        np.maximum(fs, gs, out=ts)
        smax += float(ts.sum())
    cell = width / n
    return smin * cell, smax * cell


def riemann_envelope_areas(
    t1: TrapezoidalFuzzyNumber,
    t2: TrapezoidalFuzzyNumber,
    intervals: int = RIEMANN_INTERVALS,
) -> tuple[float, float]:
    """Midpoint Riemann sums of min and max memberships over the joint support."""
    lo = min(t1.a, t2.a)
    hi = max(t1.d, t2.d)
    if hi <= lo:
        return 0.0, 0.0
    return _minmax_sums(t1.a, t1.b, t1.c, t1.d, t2.a, t2.b, t2.c, t2.d, lo, hi, intervals)


def riemann_area(t: TrapezoidalFuzzyNumber, intervals: int = RIEMANN_INTERVALS) -> float:
    """Midpoint Riemann sum of one membership function over its support."""
    return riemann_envelope_areas(t, t, intervals)[0]


def rational_combine(d1: DNumber, d2: DNumber) -> dict | None:
    """Pairwise-product combination in exact rational arithmetic.

    Returns the normalized mass map as Fractions, or None on total conflict,
    which ``DNumber.combine`` documents as surviving mass <= MASS_FLOOR. The
    surviving mass is the sum of the non-conflicting products, not 1 minus
    the conflict: float inputs sum to 1 only within rounding, and under high
    conflict ``1 - conflict`` would magnify that rounding.
    """
    products: dict = {}
    for left, left_mass in d1.masses.items():
        for right, right_mass in d2.masses.items():
            # the meet of two label sets, kept in the left operand's frame order
            common = tuple(label for label in left.labels if label in right.labels)
            if common:
                meet = FocalElement(common)
                product = Fraction(left_mass) * Fraction(right_mass)
                products[meet] = products.get(meet, Fraction(0)) + product
    surviving = sum(products.values(), Fraction(0))
    if surviving <= TOTAL_CONFLICT_THRESHOLD:
        return None
    return {focal: mass / surviving for focal, mass in products.items()}
