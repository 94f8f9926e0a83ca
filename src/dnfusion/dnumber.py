"""D numbers over labelled frames: completeness, discounting, combination.

A D number assigns mass to non-empty subsets of a frame whose labels need not
be mutually exclusive, and the total mass may fall below 1 when information is
incomplete. Combination multiplies masses pairwise, drops products whose focal
elements do not intersect, and renormalizes by the surviving fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import EmptyInput, FrameMismatch, IncompleteInput, TotalConflict, _as_finite

__all__ = [
    "Frame",
    "FocalElement",
    "DNumber",
    "combine_all",
    "COMPLETENESS_TOL",
    "MASS_FLOOR",
]

# Total mass within this of 1 counts as complete.
COMPLETENESS_TOL = 1e-9
# Masses below this are dropped as numeric dust.
MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class FocalElement:
    """Non-empty subset of a frame, stored in canonical frame order.

    Build instances through :meth:`Frame.focal`, which canonicalizes the label
    order; two focal elements compare equal exactly when they canonicalize the
    same label set.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("focal element cannot be empty")

    def __str__(self) -> str:
        return "{" + ", ".join(self.labels) + "}"


@dataclass(frozen=True)
class Frame:
    """Ordered collection of unique labels an assessment ranges over."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("frame needs at least one label")
        seen: set[str] = set()
        for label in self.labels:
            if not isinstance(label, str) or not label:
                raise ValueError(f"frame labels must be non-empty strings, got {label!r}")
            if label in seen:
                raise ValueError(f"duplicate frame label {label!r}")
            seen.add(label)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def theta(self) -> FocalElement:
        """The total-ignorance focal element covering the whole frame."""
        return FocalElement(self.labels)

    def focal(self, labels: str | Iterable[str]) -> FocalElement:
        """Canonical focal element for ``labels``: frame order, duplicates dropped."""
        return self._element(self._mask(labels))

    def _mask(self, labels: str | Iterable[str]) -> int:
        """Bitmask of ``labels``, bit i for ``self.labels[i]``; ValueError if unknown or empty."""
        if isinstance(labels, FocalElement):
            labels = labels.labels
        requested = (labels,) if isinstance(labels, str) else tuple(labels)
        unknown = [label for label in requested if label not in self.labels]
        if unknown:
            raise ValueError(f"labels not in frame {self.labels}: {unknown!r}")
        if not requested:
            raise ValueError("focal element cannot be empty")
        mask = 0
        for label in requested:
            mask |= 1 << self.labels.index(label)
        return mask

    def _element(self, mask: int) -> FocalElement:
        """The focal element of a non-empty bitmask over this frame."""
        labels = self.labels
        return FocalElement(tuple([labels[i] for i in range(mask.bit_length()) if mask >> i & 1]))


def _positions(mask: int) -> list[int]:
    """Frame positions of a mask's labels; sorting by them gives display order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class DNumber:
    """Immutable mass assignment over focal elements of a frame.

    Keys may be FocalElement instances, single labels, or label iterables; all
    are canonicalized through the frame. Masses must be finite and
    non-negative, values below MASS_FLOOR are dropped, and the total may not
    exceed 1 beyond COMPLETENESS_TOL. Duplicate keys accumulate.
    """

    # _masses is keyed by bitmask over frame order: bit i stands for frame.labels[i]
    __slots__ = ("_frame", "_masses")

    def __init__(
        self,
        frame: Frame,
        masses: Mapping[object, float] | Iterable[tuple[object, float]] = (),
    ) -> None:
        if not isinstance(frame, Frame):
            raise ValueError(f"frame must be a Frame, got {type(frame).__name__}")
        items = masses.items() if isinstance(masses, Mapping) else masses
        accumulated: dict[int, float] = {}
        for key, value in items:
            mask = frame._mask(key)
            mass = _as_finite(value, key)
            if mass < 0.0:
                raise ValueError(f"mass for {key} must be non-negative, got {value!r}")
            accumulated[mask] = accumulated.get(mask, 0.0) + mass
        cleaned = {mask: mass for mask, mass in accumulated.items() if mass >= MASS_FLOOR}
        total = math.fsum(cleaned.values())
        if total > 1.0 + COMPLETENESS_TOL:
            raise ValueError(f"total mass may not exceed 1, got {total!r}")
        object.__setattr__(self, "_frame", frame)
        object.__setattr__(self, "_masses", cleaned)

    @classmethod
    def _of(cls, frame: Frame, masses: dict[int, float]) -> DNumber:
        """The package's own results: masks as given, dust dropped, nothing re-checked."""
        d = object.__new__(cls)
        object.__setattr__(d, "_frame", frame)
        object.__setattr__(d, "_masses", {m: v for m, v in masses.items() if v >= MASS_FLOOR})
        return d

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DNumber is immutable")

    @property
    def frame(self) -> Frame:
        return self._frame

    @property
    def masses(self) -> Mapping[FocalElement, float]:
        """Read-only mass map in frame display order: {a}, {a, b}, {a, c}, {b} on (a, b, c)."""
        element = self._frame._element
        ordered = sorted(self._masses.items(), key=lambda kv: _positions(kv[0]))
        return MappingProxyType({element(mask): mass for mask, mass in ordered})

    @classmethod
    def vacuous(cls, frame: Frame) -> DNumber:
        """Total ignorance: all mass on the whole frame."""
        if not isinstance(frame, Frame):
            raise ValueError(f"frame must be a Frame, got {type(frame).__name__}")
        return cls._of(frame, {(1 << len(frame)) - 1: 1.0})

    def completeness(self) -> float:
        """Total assigned mass; below 1 means the information is incomplete."""
        return math.fsum(self._masses.values())

    def is_complete(self) -> bool:
        return self.completeness() >= 1.0 - COMPLETENESS_TOL

    def normalize_incomplete(self) -> DNumber:
        """Route any completeness deficit to total ignorance.

        A complete D number comes back unchanged; existing masses are never
        rescaled, the whole-frame element simply absorbs the missing mass.
        """
        deficit = 1.0 - self.completeness()
        if deficit <= MASS_FLOOR:
            # a deficit this small is rounding noise, not missing evidence
            return self
        theta = (1 << len(self._frame)) - 1
        masses = dict(self._masses)
        masses[theta] = masses.get(theta, 0.0) + deficit
        return DNumber._of(self._frame, masses)

    def discount(self, epsilon: float) -> DNumber:
        """Scale every mass by (1 - epsilon) and give epsilon to total ignorance.

        Requires a complete input; call :meth:`normalize_incomplete` first when
        total mass is below 1. ``epsilon`` must lie in [0, 1].
        """
        epsilon = _as_finite(epsilon, "epsilon")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {epsilon!r}")
        if not self.is_complete():
            raise IncompleteInput(
                f"discount requires total mass 1, got {self.completeness():.12g}; "
                "call normalize_incomplete() first"
            )
        keep = 1.0 - epsilon
        masses = {mask: mass * keep for mask, mass in self._masses.items()}
        theta = (1 << len(self._frame)) - 1
        masses[theta] = masses.get(theta, 0.0) + epsilon
        return DNumber._of(self._frame, masses)

    def combine(self, other: DNumber) -> DNumber:
        """Conflict-normalized combination of two complete D numbers.

        The mass of A sums the products d1(B) * d2(C) over pairs whose label
        sets intersect in exactly A; products on empty intersections are
        conflict and are dropped. Raises TotalConflict when the surviving mass
        is <= MASS_FLOOR. Otherwise sums below MASS_FLOOR times the surviving
        mass are dropped as dust, and the rest is normalized by the mass it
        keeps, so the result is complete.
        """
        if self._frame != other._frame:
            raise FrameMismatch(
                f"cannot combine over different frames: "
                f"{self._frame.labels!r} vs {other._frame.labels!r}"
            )
        if not self.is_complete() or not other.is_complete():
            raise IncompleteInput(
                "combination requires complete inputs; normalize or discount first"
            )
        buckets: dict[int, list[float]] = {}
        for left, left_mass in self._masses.items():
            for right, right_mass in other._masses.items():
                meet = left & right
                if meet:
                    buckets.setdefault(meet, []).append(left_mass * right_mass)
        sums = {mask: math.fsum(products) for mask, products in buckets.items()}
        surviving = math.fsum(sums.values())
        if surviving <= MASS_FLOOR:
            raise TotalConflict(
                f"conflict leaves surviving mass {surviving:.12g}, nothing to normalize"
            )
        kept = {mask: mass for mask, mass in sums.items() if mass >= MASS_FLOOR * surviving}
        total = math.fsum(kept.values())
        return DNumber._of(self._frame, {mask: mass / total for mask, mass in kept.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DNumber):
            return NotImplemented
        return self._frame == other._frame and self._masses == other._masses

    __hash__ = None  # mass maps are float-valued; hashing would mislead

    def __repr__(self) -> str:
        inside = ", ".join(f"{focal}: {mass:.6g}" for focal, mass in self.masses.items())
        return f"DNumber({inside or 'empty'})"


def combine_all(dnumbers: Sequence[DNumber]) -> DNumber:
    """Left fold of pairwise combination; a single input comes back unchanged."""
    items = list(dnumbers)
    if not items:
        raise EmptyInput("combine_all needs at least one D number")
    result = items[0]
    for d in items[1:]:
        result = result.combine(d)
    return result
