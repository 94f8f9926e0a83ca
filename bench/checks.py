"""Checks of each CLI output against the reference the workload generated.

Every check raises :class:`CheckError` naming the first disagreement. The
tolerances are the output's own rounding, plus 5e-5 for epsilon entries:
risk triples print at 3 decimals (5e-4), matrices, epsilon and fused masses
at 4 (5e-5).
"""

from __future__ import annotations

import json

import reference as ref

RISK_TOL = 5e-4 + 1e-9
EPSILON_TOL = 5e-5 + 5e-5 + 1e-12
FUSE_TOL = 5e-5 + 1e-9
_RISK_KEYS = (("P", 0), ("P,NP", 1), ("NP", 2))


class CheckError(Exception):
    """An output that disagrees with the reference."""


def _fail(where: str, what: str) -> None:
    raise CheckError(f"{where}: {what}")


def _risk(where: str, entry: dict, values, triple) -> None:
    for key, value in zip(("breaks", "pressure", "distance"), values):
        if entry.get(key) != value:
            _fail(where, f"{key} echoes {entry.get(key)!r}, input was {value!r}")
    risk = entry.get("risk")
    if not isinstance(risk, dict) or set(risk) != {k for k, _ in _RISK_KEYS}:
        _fail(where, f"risk has keys {sorted(risk) if isinstance(risk, dict) else risk!r}")
    for key, i in _RISK_KEYS:
        if not abs(risk[key] - triple[i]) <= RISK_TOL:
            _fail(where, f"risk {key} = {risk[key]!r}, reference {triple[i]:.6f}")
    expected = ref.verdict(triple)
    if entry.get("verdict") not in ("P", "P,NP", "NP"):
        _fail(where, f"verdict {entry.get('verdict')!r}")
    if expected is not None and entry["verdict"] != expected:
        _fail(where, f"verdict {entry['verdict']!r}, reference {expected!r}")


def check_batch(text: str, expect) -> None:
    rows = json.loads(text)
    if not isinstance(rows, list) or len(rows) != len(expect):
        _fail("batch", f"{len(rows) if isinstance(rows, list) else rows!r} rows, input has {len(expect)}")
    for i, (row, (row_id, b, p, d, triple)) in enumerate(zip(rows, expect)):
        if row.get("id") != row_id:
            _fail(f"batch row {i}", f"id {row.get('id')!r}, input order has {row_id!r}")
        _risk(f"batch row {row_id}", row, (b, p, d), triple)


def check_assess(text: str, expect) -> None:
    values, triple = expect
    _risk("assess", json.loads(text), values, triple)


def check_epsilon(text: str, expect) -> None:
    labels, matrix, eps, disjoint = expect
    doc = json.loads(text)
    if doc.get("labels") != labels:
        _fail("epsilon", "labels differ from the granulation's")
    rows = doc.get("matrix")
    n = len(labels)
    if not isinstance(rows, list) or len(rows) != n or any(len(r) != n for r in rows):
        _fail("epsilon", f"matrix is not {n}x{n}")
    for i in range(n):
        for j in range(n):
            if not abs(rows[i][j] - matrix[i][j]) <= EPSILON_TOL:
                _fail("epsilon", f"matrix[{i}][{j}] = {rows[i][j]!r}, reference {matrix[i][j]:.6f}")
    if not abs(doc.get("epsilon") - eps) <= EPSILON_TOL:
        _fail("epsilon", f"epsilon {doc.get('epsilon')!r}, reference {eps:.6f}")
    if disjoint and doc["epsilon"] != 0:
        _fail("epsilon", f"disjoint supports give epsilon {doc['epsilon']!r}, not 0")


def check_fuse(text: str, expect) -> None:
    frame, eps, fused = expect
    doc = json.loads(text)
    if doc.get("frame") != frame:
        _fail("fuse", f"frame {doc.get('frame')!r}")
    if doc.get("epsilon") != round(eps, 4):
        _fail("fuse", f"epsilon echoes {doc.get('epsilon')!r}, given {eps!r}")
    index = {label: i for i, label in enumerate(frame)}
    got: dict[int, float] = {}
    keys = []
    for entry in doc.get("masses"):
        focal = entry["focal"]
        positions = [index.get(label, -1) for label in focal]
        if not focal or -1 in positions or positions != sorted(set(positions)):
            _fail("fuse", f"focal {focal!r} is not a subset in frame order")
        mask = sum(1 << p for p in positions)
        if mask in got:
            _fail("fuse", f"focal {focal!r} listed twice")
        got[mask] = entry["value"]
        keys.append(positions)
    if keys != sorted(keys):
        _fail("fuse", "masses are not in frame order")
    for mask in set(got) | set(fused):
        value, expected = got.get(mask, 0.0), fused.get(mask, 0.0)
        if not abs(value - expected) <= FUSE_TOL:
            labels = [frame[b] for b in range(len(frame)) if mask >> b & 1]
            _fail("fuse", f"mass of {labels} = {value!r}, reference {expected:.6f}")
    total = sum(got.values())
    if not abs(total - 1.0) <= FUSE_TOL * max(len(got), 1):
        _fail("fuse", f"masses sum to {total!r}")


CHECKS = {"batch": check_batch, "assess": check_assess, "epsilon": check_epsilon, "fuse": check_fuse}
