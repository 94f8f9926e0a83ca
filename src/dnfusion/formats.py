"""JSON file formats: granulations, D numbers, intrusion models, scenarios.

Every loader raises :class:`ValidationError` with a message that names the
offending entry (file, index, label) so the CLI can surface it verbatim.
Loaders check only the structure of a document; the constructors check the
values, and their ValueError comes back naming the entry. Row-level problems in a scenario file become inline errors instead of failing
the whole file.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from pathlib import Path

from .dnumber import DNumber, Frame
from .errors import TooFewGranules, ValidationError
from .exclusivity import Granulation
from .fuzzy import TrapezoidalFuzzyNumber
from .intrusion import (
    BODY_NAMES,
    INTRUSION_FRAME,
    Curve,
    EvidenceBody,
    IntrusionModel,
    Scenario,
)

__all__ = [
    "ScenarioRow",
    "load_granulation",
    "load_dnumbers",
    "load_model",
    "load_scenarios",
]


def _load_json(path: str | Path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8 text ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # nesting beyond the recursion limit, or an integer of more digits
        # than Python converts
        raise ValidationError(f"{path}: {exc}") from exc


def _as_object(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _as_array(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: expected an array, got {type(value).__name__}")
    return value


def _as_string(value: object, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{where}: expected a non-empty string, got {reprlib.repr(value)}")
    return value


def _as_shape(value: object, where: str) -> TrapezoidalFuzzyNumber:
    arr = _as_array(value, where)
    if len(arr) != 4:
        raise ValidationError(f"{where}: shape must be [a, b, c, d], got {len(arr)} values")
    try:
        return TrapezoidalFuzzyNumber(*arr)
    except ValueError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def load_granulation(path: str | Path) -> Granulation:
    """Read ``{"granules": [{"label": str, "shape": [a, b, c, d]}, ...]}``."""
    doc = _as_object(_load_json(path), str(path))
    raw = _as_array(doc.get("granules"), f"{path}: granules")
    if not raw:
        raise ValidationError(f"{path}: granules must be a non-empty array")
    pairs = []
    for i, entry in enumerate(raw):
        where = f"{path}: granules[{i}]"
        obj = _as_object(entry, where)
        label = _as_string(obj.get("label"), f"{where}.label")
        shape = _as_shape(obj.get("shape"), f"{where} ({label!r}).shape")
        pairs.append((label, shape))
    try:
        return Granulation(tuple(pairs))
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def load_dnumbers(path: str | Path) -> list[DNumber]:
    """Read a JSON array of D numbers, all sharing one frame.

    Each entry is ``{"frame": [labels], "masses": [{"focal": [labels],
    "value": real}, ...]}``; duplicate focal entries accumulate.
    """
    raw = _as_array(_load_json(path), str(path))
    out: list[DNumber] = []
    frame: Frame | None = None
    for i, entry in enumerate(raw):
        where = f"{path}: [{i}]"
        obj = _as_object(entry, where)
        labels = [
            _as_string(v, f"{where}.frame[{j}]")
            for j, v in enumerate(_as_array(obj.get("frame"), f"{where}.frame"))
        ]
        try:
            this_frame = Frame(tuple(labels))
        except ValueError as exc:
            raise ValidationError(f"{where}.frame: {exc}") from exc
        if frame is None:
            frame = this_frame
        elif this_frame != frame:
            raise ValidationError(
                f"{where}.frame: differs from the first entry's frame {frame.labels!r}"
            )
        pairs = []
        for j, m in enumerate(_as_array(obj.get("masses"), f"{where}.masses")):
            mwhere = f"{where}.masses[{j}]"
            mobj = _as_object(m, mwhere)
            focal_labels = [
                _as_string(v, f"{mwhere}.focal[{k}]")
                for k, v in enumerate(_as_array(mobj.get("focal"), f"{mwhere}.focal"))
            ]
            try:
                focal = this_frame.focal(focal_labels)
            except ValueError as exc:
                raise ValidationError(f"{mwhere}.focal: {exc}") from exc
            pairs.append((focal, mobj.get("value")))
        try:
            out.append(DNumber(this_frame, pairs))
        except ValueError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    return out


def load_model(path: str | Path) -> IntrusionModel:
    """Read ``{"bodies": [{"name", "unit", "epsilon"?, "curves": [...]}]}``.

    Each curve is ``{"focal": ["P"] | ["P","NP"] | ["NP"], "shape": [a,b,c,d]}``
    with an optional ``"label"``; unlabelled curves are named after their focal
    element.
    """
    doc = _as_object(_load_json(path), str(path))
    raw = _as_array(doc.get("bodies"), f"{path}: bodies")
    bodies: dict[str, EvidenceBody] = {}
    for i, entry in enumerate(raw):
        where = f"{path}: bodies[{i}]"
        obj = _as_object(entry, where)
        name = _as_string(obj.get("name"), f"{where}.name")
        if name in bodies:
            raise ValidationError(f"{where}: duplicate body {name!r}")
        unit = _as_string(obj.get("unit"), f"{where}.unit")
        curves: list[Curve] = []
        used_labels: set[str] = set()
        for j, c in enumerate(_as_array(obj.get("curves"), f"{where}.curves")):
            cwhere = f"{where}.curves[{j}]"
            cobj = _as_object(c, cwhere)
            focal_labels = [
                _as_string(v, f"{cwhere}.focal[{k}]")
                for k, v in enumerate(_as_array(cobj.get("focal"), f"{cwhere}.focal"))
            ]
            raw_label = cobj.get("label")
            if raw_label is None:
                label = ",".join(focal_labels)
                if label in used_labels:
                    label = f"{label} #{j}"
            else:
                label = _as_string(raw_label, f"{cwhere}.label")
            if label in used_labels:
                raise ValidationError(f"{cwhere}.label: duplicate label {label!r}")
            used_labels.add(label)
            cwhere = f"{cwhere} ({label!r})"
            try:
                focal = INTRUSION_FRAME.focal(focal_labels)
            except ValueError as exc:
                raise ValidationError(f"{cwhere}.focal: {exc}") from exc
            shape = _as_shape(cobj.get("shape"), f"{cwhere}.shape")
            try:
                curves.append(Curve(label, focal, shape))
            except ValueError as exc:
                raise ValidationError(f"{cwhere}: {exc}") from exc
        try:
            bodies[name] = EvidenceBody.build(name, unit, curves, epsilon=obj.get("epsilon"))
        except (ValueError, TooFewGranules) as exc:
            raise ValidationError(f"{where}: {exc}") from exc
    missing = [n for n in BODY_NAMES if n not in bodies]
    if missing:
        raise ValidationError(f"{path}: missing bodies: {', '.join(missing)}")
    return IntrusionModel(bodies["pathway"], bodies["pressure"], bodies["source"])


@dataclass(frozen=True)
class ScenarioRow:
    """One parsed batch row; ``scenario`` is None when the row failed validation."""

    id: str
    scenario: Scenario | None
    error: str | None


def load_scenarios(path: str | Path) -> list[ScenarioRow]:
    """Read a JSON array of ``{"id", "breaks", "pressure", "distance"}`` rows.

    Problems local to one row (missing or non-finite numbers, a missing id)
    come back as inline errors on that row. A row without a usable id shows as
    ``#n``, its position in the file. Only ids read from the file must be
    unique: a duplicate fails the whole file, since later output could not be
    attributed.
    """
    raw = _as_array(_load_json(path), str(path))
    rows: list[ScenarioRow] = []
    seen_ids: set[str] = set()
    for i, entry in enumerate(raw):
        where = f"scenarios[{i}]"
        row_id = None
        scenario = None
        error = None
        try:
            obj = _as_object(entry, where)
            raw_id = obj.get("id")
            if raw_id is None:
                raise ValidationError(f"{where}: missing id")
            if isinstance(raw_id, bool) or not isinstance(raw_id, (str, int)):
                raise ValidationError(f"{where}.id: must be a string or an integer")
            row_id = str(raw_id)
            scenario = Scenario(obj.get("breaks"), obj.get("pressure"), obj.get("distance"))
        except ValidationError as exc:
            error = str(exc)
        except ValueError as exc:
            error = f"{where}: {exc}"
        if row_id is None:
            row_id = f"#{i + 1}"  # a stand-in position, not an id from the file
        elif row_id in seen_ids:
            raise ValidationError(f"{where}: duplicate id {row_id!r}")
        else:
            seen_ids.add(row_id)
        rows.append(ScenarioRow(row_id, scenario, error))
    return rows
