"""Contaminant-intrusion risk over the frame {P, NP} from three evidence bodies.

Each body maps one surrogate measurement (pipe breakage rate, transient
pressure, separation from a contamination source) through fuzzy curves to a
D number, which is then discounted by the body's exclusive coefficient before
the three bodies are fused.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

from .dnumber import COMPLETENESS_TOL, DNumber, FocalElement, Frame, combine_all
from .errors import TooFewGranules, _as_finite
from .exclusivity import Granulation, exclusive_coefficient, relative_matrix
from .fuzzy import TrapezoidalFuzzyNumber

__all__ = [
    "INTRUSION_FRAME",
    "POSSIBLE",
    "NOT_POSSIBLE",
    "UNKNOWN",
    "BODY_NAMES",
    "EPSILON_MISMATCH_TOL",
    "EpsilonMismatchWarning",
    "Curve",
    "EvidenceBody",
    "IntrusionModel",
    "Scenario",
    "RiskTriple",
    "evidence_to_dnumber",
    "assess_risk",
    "default_model",
]

INTRUSION_FRAME = Frame(("P", "NP"))
POSSIBLE = INTRUSION_FRAME.focal("P")
NOT_POSSIBLE = INTRUSION_FRAME.focal("NP")
UNKNOWN = INTRUSION_FRAME.theta

_ALLOWED_FOCALS = (POSSIBLE, UNKNOWN, NOT_POSSIBLE)
_FOCAL_MASKS = {focal: INTRUSION_FRAME._mask(focal) for focal in _ALLOWED_FOCALS}

BODY_NAMES = ("pathway", "pressure", "source")

# A configured epsilon further than this from the curve-derived value warns.
EPSILON_MISMATCH_TOL = 0.02


class EpsilonMismatchWarning(UserWarning):
    """Configured epsilon disagrees with the one derived from the curves."""


@dataclass(frozen=True)
class Curve:
    """One fuzzy curve of an evidence body and the focal element it supports."""

    label: str
    focal: FocalElement
    shape: TrapezoidalFuzzyNumber

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"curve label must be a non-empty string, got {self.label!r}")
        if self.focal not in _ALLOWED_FOCALS:
            raise ValueError(
                f"curve {self.label!r}: focal must be one of "
                "{P}, {P, NP}, {NP}, got " + str(self.focal)
            )
        if not isinstance(self.shape, TrapezoidalFuzzyNumber):
            raise ValueError(f"curve {self.label!r}: shape must be a TrapezoidalFuzzyNumber")


@dataclass(frozen=True)
class EvidenceBody:
    """Granulated fuzzy mapping from one surrogate measure to {P, NP} masses.

    ``epsilon`` is the exclusive coefficient applied when this body's evidence
    is discounted. Prefer :meth:`build`, which derives it from the curves when
    no explicit value is configured.
    """

    name: str
    unit: str
    curves: tuple[Curve, ...]
    epsilon: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "curves", tuple(self.curves))
        if self.name not in BODY_NAMES:
            raise ValueError(f"body name must be one of {BODY_NAMES}, got {self.name!r}")
        if not isinstance(self.unit, str) or not self.unit:
            raise ValueError(f"body {self.name!r}: unit must be a non-empty string")
        if not self.curves:
            raise ValueError(f"body {self.name!r} needs at least one curve")
        for curve in self.curves:
            if not isinstance(curve, Curve):
                raise ValueError(f"body {self.name!r}: curves must be Curve instances")
        epsilon = _as_finite(self.epsilon, f"body {self.name!r}: epsilon")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"body {self.name!r}: epsilon must be in [0, 1], got {epsilon!r}")
        object.__setattr__(self, "epsilon", epsilon)

    @classmethod
    def build(
        cls,
        name: str,
        unit: str,
        curves: Iterable[Curve],
        epsilon: float | None = None,
    ) -> EvidenceBody:
        """Construct a body, deriving epsilon from the curves unless configured.

        A configured epsilon that disagrees with the derived coefficient by more
        than EPSILON_MISMATCH_TOL triggers an EpsilonMismatchWarning but is kept.
        """
        # check every field under a stand-in epsilon before reading curves; derived is in [0, 1]
        body = cls(name, unit, curves, 0.0 if epsilon is None else epsilon)
        derived = None
        if len(body.curves) >= 2:
            granulation = Granulation(tuple((c.label, c.shape) for c in body.curves))
            derived = exclusive_coefficient(relative_matrix(granulation))
        if epsilon is None:
            if derived is None:
                raise TooFewGranules(
                    f"body {name!r}: cannot derive epsilon from a single curve; "
                    "configure it explicitly"
                )
            object.__setattr__(body, "epsilon", derived)
        elif derived is not None and abs(body.epsilon - derived) > EPSILON_MISMATCH_TOL:
            warnings.warn(
                f"body {name!r}: configured epsilon {body.epsilon:.4f} differs from the "
                f"curve-derived value {derived:.4f} by more than {EPSILON_MISMATCH_TOL}",
                EpsilonMismatchWarning,
                stacklevel=2,
            )
        return body


@dataclass(frozen=True)
class IntrusionModel:
    """The three evidence bodies, keyed by surrogate measure."""

    pathway: EvidenceBody
    pressure: EvidenceBody
    source: EvidenceBody

    def __post_init__(self) -> None:
        for attr in BODY_NAMES:
            body = getattr(self, attr)
            if not isinstance(body, EvidenceBody) or body.name != attr:
                raise ValueError(f"model field {attr!r} must hold the body named {attr!r}")

    @property
    def bodies(self) -> tuple[EvidenceBody, EvidenceBody, EvidenceBody]:
        return (self.pathway, self.pressure, self.source)


@dataclass(frozen=True)
class Scenario:
    """One observation: breakage rate, transient pressure, separation distance.

    Pressure may be negative (suction during a transient); distance may not.
    """

    breaks: float
    pressure: float
    distance: float

    def __post_init__(self) -> None:
        for name in ("breaks", "pressure", "distance"):
            object.__setattr__(self, name, _as_finite(getattr(self, name), name))
        if self.distance < 0.0:
            raise ValueError(f"distance must be >= 0, got {self.distance}")


@dataclass(frozen=True)
class RiskTriple:
    """Fused masses on {P}, {P, NP}, {NP}; the three sum to 1."""

    p: float
    p_np: float
    np: float

    def __post_init__(self) -> None:
        for name in ("p", "p_np", "np"):
            value = _as_finite(getattr(self, name), name)
            if not -COMPLETENESS_TOL <= value <= 1.0 + COMPLETENESS_TOL:
                raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, value)
        total = self.p + self.p_np + self.np
        if abs(total - 1.0) > COMPLETENESS_TOL:
            raise ValueError(f"risk masses must sum to 1, got {total!r}")


def evidence_to_dnumber(body: EvidenceBody, value: float) -> DNumber:
    """Read the body's curves at ``value`` and normalize memberships into masses.

    Curves supporting the same focal element accumulate before normalization.
    When every membership is zero the body says nothing about the value, so the
    result is total ignorance.
    """
    value = _as_finite(value, "value")
    weights: dict[int, float] = {}
    for curve in body.curves:
        mu = curve.shape.membership(value)
        if mu > 0.0:
            mask = _FOCAL_MASKS[curve.focal]
            weights[mask] = weights.get(mask, 0.0) + mu
    total = math.fsum(weights.values())
    if total <= 0.0:
        return DNumber.vacuous(INTRUSION_FRAME)
    return DNumber._of(INTRUSION_FRAME, {mask: mu / total for mask, mu in weights.items()})


def assess_risk(scenario: Scenario, model: IntrusionModel) -> RiskTriple:
    """Fuse the three discounted evidence bodies at the scenario's measurements."""
    values = (scenario.breaks, scenario.pressure, scenario.distance)
    discounted = [
        evidence_to_dnumber(body, value).discount(body.epsilon)
        for body, value in zip(model.bodies, values)
    ]
    masses = combine_all(discounted)._masses
    return RiskTriple(
        p=masses.get(_FOCAL_MASKS[POSSIBLE], 0.0),
        p_np=masses.get(_FOCAL_MASKS[UNKNOWN], 0.0),
        np=masses.get(_FOCAL_MASKS[NOT_POSSIBLE], 0.0),
    )


def default_model() -> IntrusionModel:
    """The reference model bundled with the package.

    The curve breakpoints are this package's calibration: single-peak granules
    placed so that landmark measurements map to categorical evidence (10
    breaks/100 km/year reads as firmly NP, a 0 psi transient as pure ignorance,
    a source 3 m away as firmly P). The per-body epsilon values are fixed
    configuration, kept over the curve-derived coefficients, which agree with
    them to within EPSILON_MISMATCH_TOL.
    """
    t = TrapezoidalFuzzyNumber
    pathway = EvidenceBody.build(
        "pathway",
        "breaks/100 km/year",
        (
            Curve("low breakage", NOT_POSSIBLE, t(0.0, 0.0, 14.0, 26.0)),
            Curve("moderate breakage", UNKNOWN, t(11.0, 13.0, 18.0, 25.0)),
            Curve("high breakage", POSSIBLE, t(32.0, 38.0, 55.0, 60.0)),
        ),
        epsilon=0.1195,
    )
    pressure = EvidenceBody.build(
        "pressure",
        "psi",
        (
            Curve("negative transient", POSSIBLE, t(-60.0, -50.0, -4.0, -1.0)),
            Curve("near zero", UNKNOWN, t(-19.0, -15.0, 10.0, 48.0)),
            Curve("sustained positive", NOT_POSSIBLE, t(5.0, 30.0, 70.0, 90.0)),
        ),
        epsilon=0.1057,
    )
    source = EvidenceBody.build(
        "source",
        "m",
        (
            Curve("adjacent", POSSIBLE, t(0.0, 0.0, 6.0, 14.0)),
            Curve("nearby", UNKNOWN, t(4.0, 6.0, 9.0, 16.0)),
            Curve("remote", NOT_POSSIBLE, t(22.0, 30.0, 45.0, 50.0)),
        ),
        epsilon=0.131,
    )
    return IntrusionModel(pathway, pressure, source)
