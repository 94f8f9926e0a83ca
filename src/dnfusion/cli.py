"""Command-line interface: epsilon, fuse, assess, batch."""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings

from .dnumber import combine_all
from .errors import DnfusionError, TotalConflict, ValidationError
from .exclusivity import exclusive_coefficient, relative_matrix
from .formats import ScenarioRow, load_dnumbers, load_granulation, load_model, load_scenarios
from .intrusion import IntrusionModel, RiskTriple, Scenario, assess_risk, default_model

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONFLICT = 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dnfusion",
        description=(
            "Evidential fusion with D numbers: inspect granulation exclusivity, "
            "fuse D numbers, and assess contaminant-intrusion risk."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eps = sub.add_parser(
        "epsilon",
        help="print the relative matrix and exclusive coefficient of a granulation",
    )
    p_eps.add_argument("granulation", help="granulation JSON file")
    _add_format(p_eps)

    p_fuse = sub.add_parser("fuse", help="discount and combine two or more D numbers")
    p_fuse.add_argument("dnumbers", help="JSON array of D numbers on one frame")
    p_fuse.add_argument(
        "--epsilon",
        type=float,
        required=True,
        help="exclusive coefficient in [0, 1] used to discount every input",
    )
    _add_format(p_fuse)

    p_assess = sub.add_parser("assess", help="risk triple for a single scenario")
    p_assess.add_argument("--breaks", type=float, required=True, help="breaks/100 km/year")
    p_assess.add_argument("--pressure", type=float, required=True, help="psi, may be negative")
    p_assess.add_argument("--distance", type=float, required=True, help="meters, >= 0")
    p_assess.add_argument("--model", help="model JSON file (default: built-in model)")
    _add_format(p_assess)

    p_batch = sub.add_parser("batch", help="risk table for a scenario file")
    p_batch.add_argument("scenarios", help="scenario JSON file")
    p_batch.add_argument("--model", help="model JSON file (default: built-in model)")
    _add_format(p_batch)

    return parser


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; a usage error is
        # an input error under this tool's 0/1/2 contract
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        return EXIT_OK if code == 0 else EXIT_INPUT
    try:
        # resolved per call, not stored in the cached parser, so that a
        # rebound command function (a tracer's wrapper) is the one called
        return globals()[f"cmd_{args.command}"](args)
    except TotalConflict as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except (DnfusionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _emit(payload: dict | list, output_format: str, render) -> None:
    """Print a command's one payload: as JSON, or through its text renderer."""
    print(json.dumps(payload) if output_format == "json" else render(payload))


def cmd_epsilon(args: argparse.Namespace) -> int:
    granulation = load_granulation(args.granulation)
    matrix = relative_matrix(granulation)
    payload = {
        "labels": list(matrix.labels),
        # 0.0 (disjoint or touching pairs) and 1.0 (the diagonal) round to themselves
        "matrix": [
            [v if v == 0.0 or v == 1.0 else round(v, 4) for v in row] for row in matrix.values
        ],
        "epsilon": round(exclusive_coefficient(matrix), 4),
    }
    _emit(payload, args.format, _epsilon_text)
    return EXIT_OK


def _epsilon_text(payload: dict) -> str:
    labels = payload["labels"]
    name_width = max(len(label) for label in labels)
    col_width = max(name_width, 6) + 2
    lines = [" " * name_width + "".join(f"{label:>{col_width}}" for label in labels)]
    for label, row in zip(labels, payload["matrix"]):
        cells = "".join(f"{value:>{col_width}.4f}" for value in row)
        lines.append(f"{label:<{name_width}}{cells}")
    lines.append(f"epsilon: {payload['epsilon']:.4f}")
    return "\n".join(lines)


def cmd_fuse(args: argparse.Namespace) -> int:
    dnumbers = load_dnumbers(args.dnumbers)
    if len(dnumbers) < 2:
        raise ValidationError(
            f"{args.dnumbers}: need at least two D numbers, got {len(dnumbers)}"
        )
    discounted = [d.normalize_incomplete().discount(args.epsilon) for d in dnumbers]
    fused = combine_all(discounted)
    payload = {
        "frame": list(fused.frame.labels),
        "epsilon": round(args.epsilon, 4),
        "masses": [
            {"focal": list(focal.labels), "value": round(mass, 4)}
            for focal, mass in fused.masses.items()
        ],
    }
    _emit(payload, args.format, _fuse_text)
    return EXIT_OK


def _fuse_text(payload: dict) -> str:
    # a focal set as FocalElement.__str__ writes it
    focals = ["{" + ", ".join(entry["focal"]) + "}" for entry in payload["masses"]]
    width = max(len(focal) for focal in focals) + 2
    lines = [f"fused masses (epsilon = {payload['epsilon']:.4f}):"]
    for focal, entry in zip(focals, payload["masses"]):
        lines.append(f"{focal:<{width}}{entry['value']:.4f}")
    return "\n".join(lines)


def _model_from_args(args: argparse.Namespace) -> IntrusionModel:
    if not args.model:
        return default_model()
    # one line per warning on every call, not Python's once-per-location report
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = load_model(args.model)
    for warning in caught:
        print(f"warning: {args.model}: {warning.message}", file=sys.stderr)
    return model


def _verdict(triple: RiskTriple) -> str:
    labelled = (("P", triple.p), ("P,NP", triple.p_np), ("NP", triple.np))
    return max(labelled, key=lambda pair: pair[1])[0]


def _scenario_payload(scenario: Scenario, triple: RiskTriple) -> dict:
    return {
        "breaks": scenario.breaks,
        "pressure": scenario.pressure,
        "distance": scenario.distance,
        "risk": {
            "P": round(triple.p, 3),
            "P,NP": round(triple.p_np, 3),
            "NP": round(triple.np, 3),
        },
        "verdict": _verdict(triple),
    }


def cmd_assess(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    scenario = Scenario(args.breaks, args.pressure, args.distance)
    payload = _scenario_payload(scenario, assess_risk(scenario, model))
    _emit(payload, args.format, _assess_text)
    return EXIT_OK


def _assess_text(payload: dict) -> str:
    risk = payload["risk"]
    return (
        "risk ({P}, {P,NP}, {NP}): "
        f"({risk['P']:.3f}, {risk['P,NP']:.3f}, {risk['NP']:.3f})\n"
        f"verdict: {payload['verdict']}"
    )


def cmd_batch(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    payload = [_row_payload(row, model) for row in load_scenarios(args.scenarios)]
    _emit(payload, args.format, _batch_text)
    if payload and all("error" in entry for entry in payload):
        return EXIT_INPUT
    return EXIT_OK


def _row_payload(row: ScenarioRow, model: IntrusionModel) -> dict:
    if row.error is not None:
        return {"id": row.id, "error": row.error}
    try:
        triple = assess_risk(row.scenario, model)
    except TotalConflict as exc:
        return {"id": row.id, "error": f"total conflict: {exc}"}
    return {"id": row.id, **_scenario_payload(row.scenario, triple)}


def _batch_text(payload: list[dict]) -> str:
    headers = ("id", "breaks", "pressure", "distance", "P", "P,NP", "NP", "verdict")
    table = []
    for entry in payload:
        if "error" in entry:
            # an error row has only its id cell, so it widens only that column
            table.append((entry["id"],))
            continue
        scenario = (f"{entry[key]:g}" for key in ("breaks", "pressure", "distance"))
        risk = (f"{value:.3f}" for value in entry["risk"].values())
        table.append((entry["id"], *scenario, *risk, entry["verdict"]))
    widths = [
        max(len(cells[i]) for cells in (headers, *table) if i < len(cells))
        for i in range(len(headers))
    ]
    lines = ["  ".join(h.rjust(width) for h, width in zip(headers, widths))]
    for entry, cells in zip(payload, table):
        line = "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
        lines.append(f"{line}  error: {entry['error']}" if "error" in entry else line)
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
