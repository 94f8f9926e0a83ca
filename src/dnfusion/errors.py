"""Exception types raised by the dnfusion package, and its one number check."""

import math
import reprlib


class DnfusionError(Exception):
    """Base class for all dnfusion errors."""


class UndefinedDegree(DnfusionError):
    """The non-exclusive degree has no defined value for the given pair."""


class TooFewGranules(DnfusionError):
    """The exclusive coefficient needs at least two granules."""


class IncompleteInput(DnfusionError):
    """The operation requires a complete D number (total mass 1)."""


class FrameMismatch(DnfusionError):
    """The operands are defined over different frames."""


class TotalConflict(DnfusionError):
    """Combination left no mass to normalize (conflict k = 1)."""


class EmptyInput(DnfusionError):
    """The operation needs at least one input."""


class ValidationError(DnfusionError):
    """A structured input file failed validation."""


def _as_finite(value: object, name: object) -> float:
    """``value`` as a float; ValueError naming ``name`` unless it is a finite real.

    Booleans are rejected although Python counts them as integers, and so is an
    integer too large for a float. ``name`` is formatted only when the check
    fails, so a caller on a hot path can pass an object instead of a string.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name}: expected a number, got {reprlib.repr(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name}: expected a finite number, got a huge integer") from None
    if not math.isfinite(number):
        raise ValueError(f"{name}: expected a finite number, got {value!r}")
    return number
