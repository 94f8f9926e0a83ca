"""Pairwise non-exclusive degrees of a granulation and the exclusive coefficient."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TooFewGranules
from .fuzzy import TrapezoidalFuzzyNumber, non_exclusive_degree

__all__ = ["Granulation", "RelativeMatrix", "relative_matrix", "exclusive_coefficient"]


@dataclass(frozen=True)
class Granulation:
    """Ordered, uniquely labelled fuzzy granules over one measurement axis."""

    granules: tuple[tuple[str, TrapezoidalFuzzyNumber], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "granules", tuple(tuple(pair) for pair in self.granules))
        if not self.granules:
            raise ValueError("granulation needs at least one granule")
        seen: set[str] = set()
        for pair in self.granules:
            if len(pair) != 2:
                raise ValueError(f"granule must be a (label, shape) pair, got {pair!r}")
            label, shape = pair
            if not isinstance(label, str) or not label:
                raise ValueError(f"granule label must be a non-empty string, got {label!r}")
            if not isinstance(shape, TrapezoidalFuzzyNumber):
                raise ValueError(f"granule {label!r}: shape must be a TrapezoidalFuzzyNumber")
            if label in seen:
                raise ValueError(f"duplicate granule label {label!r}")
            seen.add(label)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.granules)

    @property
    def shapes(self) -> tuple[TrapezoidalFuzzyNumber, ...]:
        return tuple(shape for _, shape in self.granules)

    def __len__(self) -> int:
        return len(self.granules)


@dataclass(frozen=True)
class RelativeMatrix:
    """Symmetric matrix of pairwise non-exclusive degrees with a unit diagonal."""

    labels: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "values", tuple(tuple(row) for row in self.values))
        n = len(self.labels)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError(f"matrix must be {n}x{n} to match the labels")


def relative_matrix(granulation: Granulation) -> RelativeMatrix:
    """Non-exclusive degree of every granule pair; each pair is computed once
    and mirrored, so the result is symmetric by construction."""
    shapes = granulation.shapes
    n = len(shapes)
    rows = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            degree = non_exclusive_degree(shapes[i], shapes[j])
            rows[i][j] = degree
            rows[j][i] = degree
    return RelativeMatrix(granulation.labels, rows)


def exclusive_coefficient(matrix: RelativeMatrix) -> float:
    """Mean entry of the strict upper triangle.

    Zero-overlap pairs still count in the denominator n(n-1)/2.
    """
    n = len(matrix.labels)
    if n < 2:
        raise TooFewGranules("exclusive coefficient needs at least two granules")
    upper = [matrix.values[i][j] for i in range(n) for j in range(i + 1, n)]
    return math.fsum(upper) / (n * (n - 1) / 2)
