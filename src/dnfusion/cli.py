"""Command-line interface: epsilon, fuse, assess, batch."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .dnumber import combine_all
from .errors import DnfusionError, TotalConflict, ValidationError
from .exclusivity import exclusive_coefficient, relative_matrix
from .formats import load_dnumbers, load_granulation, load_model, load_scenarios
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


def cmd_epsilon(args: argparse.Namespace) -> int:
    granulation = load_granulation(args.granulation)
    matrix = relative_matrix(granulation)
    epsilon = exclusive_coefficient(matrix)
    if args.format == "json":
        payload = {
            "labels": list(matrix.labels),
            "matrix": [[round(v, 4) for v in row] for row in matrix.values],
            "epsilon": round(epsilon, 4),
        }
        print(json.dumps(payload, indent=2))
    else:
        name_width = max(len(label) for label in matrix.labels)
        col_width = max(max(len(label) for label in matrix.labels), 6) + 2
        lines = [
            " " * name_width + "".join(f"{label:>{col_width}}" for label in matrix.labels)
        ]
        for label, row in zip(matrix.labels, matrix.values):
            cells = "".join(f"{value:>{col_width}.4f}" for value in row)
            lines.append(f"{label:<{name_width}}{cells}")
        lines.append(f"epsilon: {epsilon:.4f}")
        print("\n".join(lines))
    return EXIT_OK


def cmd_fuse(args: argparse.Namespace) -> int:
    dnumbers = load_dnumbers(args.dnumbers)
    if len(dnumbers) < 2:
        raise ValidationError(
            f"{args.dnumbers}: need at least two D numbers, got {len(dnumbers)}"
        )
    discounted = [d.normalize_incomplete().discount(args.epsilon) for d in dnumbers]
    fused = combine_all(discounted)
    masses = fused.masses
    if args.format == "json":
        payload = {
            "frame": list(fused.frame.labels),
            "epsilon": round(args.epsilon, 4),
            "masses": [
                {"focal": list(focal.labels), "value": round(mass, 4)}
                for focal, mass in masses.items()
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(str(focal)) for focal in masses) + 2
        lines = [f"fused masses (epsilon = {args.epsilon:.4f}):"]
        for focal, mass in masses.items():
            lines.append(f"{str(focal):<{width}}{mass:.4f}")
        print("\n".join(lines))
    return EXIT_OK


def _model_from_args(args: argparse.Namespace) -> IntrusionModel:
    return load_model(args.model) if args.model else default_model()


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
    triple = assess_risk(scenario, model)
    if args.format == "json":
        print(json.dumps(_scenario_payload(scenario, triple), indent=2))
    else:
        print(
            "risk ({P}, {P,NP}, {NP}): "
            f"({triple.p:.3f}, {triple.p_np:.3f}, {triple.np:.3f})"
        )
        print(f"verdict: {_verdict(triple)}")
    return EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    model = _model_from_args(args)
    rows = load_scenarios(args.scenarios)
    results: list[tuple] = []
    failures = 0
    for row in rows:
        if row.error is not None:
            results.append((row, None, row.error))
            failures += 1
            continue
        try:
            triple = assess_risk(row.scenario, model)
        except TotalConflict as exc:
            results.append((row, None, f"total conflict: {exc}"))
            failures += 1
            continue
        results.append((row, triple, None))

    if args.format == "json":
        payload = []
        for row, triple, error in results:
            if error is not None:
                payload.append({"id": row.id, "error": error})
            else:
                payload.append({"id": row.id, **_scenario_payload(row.scenario, triple)})
        print(json.dumps(payload, indent=2))
    else:
        print(_batch_table(results))

    if rows and failures == len(rows):
        return EXIT_INPUT
    return EXIT_OK


def _batch_table(results: list[tuple]) -> str:
    headers = ("id", "breaks", "pressure", "distance", "P", "P,NP", "NP", "verdict")
    table_rows = []
    for row, triple, error in results:
        if error is not None:
            table_rows.append((row.id, error))
        else:
            scenario = row.scenario
            table_rows.append(
                (
                    row.id,
                    f"{scenario.breaks:g}",
                    f"{scenario.pressure:g}",
                    f"{scenario.distance:g}",
                    f"{triple.p:.3f}",
                    f"{triple.p_np:.3f}",
                    f"{triple.np:.3f}",
                    _verdict(triple),
                )
            )
    widths = [len(h) for h in headers]
    for cells in table_rows:
        if len(cells) == len(headers):
            for i, cell in enumerate(cells):
                widths[i] = max(widths[i], len(cell))
        else:
            widths[0] = max(widths[0], len(cells[0]))
    lines = ["  ".join(h.rjust(widths[i]) for i, h in enumerate(headers))]
    for cells in table_rows:
        if len(cells) == len(headers):
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells)))
        else:
            lines.append(f"{cells[0].rjust(widths[0])}  error: {cells[1]}")
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(main())
