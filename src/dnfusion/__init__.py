"""Evidential fusion with D numbers over fuzzy, non-exclusive propositions."""

from .dnumber import DNumber, FocalElement, Frame, combine_all
from .errors import (
    DnfusionError,
    EmptyInput,
    FrameMismatch,
    IncompleteInput,
    TooFewGranules,
    TotalConflict,
    UndefinedDegree,
    ValidationError,
)
from .exclusivity import Granulation, RelativeMatrix, exclusive_coefficient, relative_matrix
from .formats import ScenarioRow, load_dnumbers, load_granulation, load_model, load_scenarios
from .fuzzy import TrapezoidalFuzzyNumber, non_exclusive_degree
from .intrusion import (
    INTRUSION_FRAME,
    Curve,
    EpsilonMismatchWarning,
    EvidenceBody,
    IntrusionModel,
    RiskTriple,
    Scenario,
    assess_risk,
    default_model,
    evidence_to_dnumber,
)

__version__ = "0.1.0"

__all__ = [
    "DNumber",
    "FocalElement",
    "Frame",
    "combine_all",
    "DnfusionError",
    "EmptyInput",
    "FrameMismatch",
    "IncompleteInput",
    "TooFewGranules",
    "TotalConflict",
    "UndefinedDegree",
    "ValidationError",
    "Granulation",
    "RelativeMatrix",
    "exclusive_coefficient",
    "relative_matrix",
    "ScenarioRow",
    "load_dnumbers",
    "load_granulation",
    "load_model",
    "load_scenarios",
    "TrapezoidalFuzzyNumber",
    "non_exclusive_degree",
    "INTRUSION_FRAME",
    "Curve",
    "EpsilonMismatchWarning",
    "EvidenceBody",
    "IntrusionModel",
    "RiskTriple",
    "Scenario",
    "assess_risk",
    "default_model",
    "evidence_to_dnumber",
    "__version__",
]
