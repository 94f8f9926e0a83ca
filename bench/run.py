"""Benchmark of dnfusion through its public entry point, ``dnfusion.cli.main``.

Usage (from the repository root):

    python3 bench/run.py --workload screening --seed 1 --seconds 30 --trace 0

The run writes the workload's input files for the seed, times fresh
interpreters through set-up, then calls ``cli.main`` in process, one call at
a time, in whole rounds until the calls have taken ``--seconds`` seconds.
Every output is checked against ``reference.py`` between calls, outside the
timed calls. With ``--trace 1`` it makes one untraced and one traced pass
over a single round instead and reports per-layer metrics; see README.md.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = HERE / "results"

# fresh interpreters timed through set-up in each run; the median is reported
PROBES = 15
# calls made and checked before timing starts
WARMUP_CALLS = 6
# check failures printed to stderr before the rest are only counted
SHOWN_ERRORS = 5


class Runner:
    """Calls ``cli.main`` with output captured and checks what comes back."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.output_bytes = 0

    def call(self, op: workloads.Op) -> float:
        """Make one call, check it, and return its wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(op.argv)
            except Exception:  # an escaped exception is a failed call, not a crash
                code = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        self.attempted += 1
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        if code != 0:
            self.failed += 1
            self._report(op, f"exit {code}: {err.getvalue().strip()}")
            return elapsed
        try:
            checks.CHECKS[op.kind](text, op.expect)
        except Exception as exc:  # any malformed output fails the check
            self.wrong += 1
            self._report(op, f"{type(exc).__name__}: {exc}")
        return elapsed

    def _report(self, op: workloads.Op, message: str) -> None:
        if self.failed + self.wrong <= SHOWN_ERRORS:
            print(f"{' '.join(op.argv)}: {message}", file=sys.stderr)

    def round(self, ops) -> tuple[float, int, list[float]]:
        """One pass over ``ops``: total call time, items done, call times."""
        times = []
        items = 0
        for op in ops:
            failed = self.failed
            times.append(self.call(op))
            if self.failed == failed:
                items += op.items
        return sum(times), items, times


def measure_setup(plan: workloads.Plan) -> float:
    """Median over PROBES fresh interpreters of the time to ready."""
    samples = []
    command = [sys.executable, str(HERE / "probe.py"), str(SRC), *plan.setup_models]
    for _ in range(PROBES):
        start = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(samples)


def timed_run(runner: Runner, plan: workloads.Plan, seconds: float) -> dict:
    measured, items, times = 0.0, 0, []
    while measured < seconds:
        spent, done, round_times = runner.round(plan.ops)
        measured += spent
        items += done
        times += round_times
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    deciles = statistics.quantiles(times, n=10)
    return {
        "items_per_s": (items / measured, "items/s"),
        "call_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "call_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "calls": len(times),
    }


# per-layer metric -> (unit, source, span or counter name)
LAYER_METRICS = {
    "cli.build_parser.s": ("s", "total", "cli.build_parser"),
    "cli.main.calls": ("count", "calls", "cli.main"),
    "cli.main.self_s": ("s", "own", "cli.main"),
    "cli.cmd.self_s": ("s", "own", "cli.cmd"),
    "cli.output_bytes": ("bytes", "counts", "cli.output_bytes"),
    "formats.load_scenarios.s": ("s", "total", "formats.load_scenarios"),
    "formats.input_bytes": ("bytes", "counts", "formats.input_bytes"),
    "formats.load_model.self_s": ("s", "own", "formats.load_model"),
    "formats.load_granulation.s": ("s", "total", "formats.load_granulation"),
    "formats.load_dnumbers.s": ("s", "total", "formats.load_dnumbers"),
    "intrusion.assess_risk.calls": ("count", "calls", "intrusion.assess_risk"),
    "intrusion.assess_risk.self_s": ("s", "own", "intrusion.assess_risk"),
    "intrusion.evidence_to_dnumber.s": ("s", "total", "intrusion.evidence_to_dnumber"),
    "intrusion.EvidenceBody.build.calls": ("count", "calls", "intrusion.EvidenceBody.build"),
    "intrusion.EvidenceBody.build.self_s": ("s", "own", "intrusion.EvidenceBody.build"),
    "intrusion.default_model.s": ("s", "total", "intrusion.default_model"),
    "dnumber.DNumber.init.calls": ("count", "calls", "dnumber.DNumber.init"),
    "dnumber.DNumber.init.s": ("s", "total", "dnumber.DNumber.init"),
    "dnumber.combine.calls": ("count", "calls", "dnumber.combine"),
    "dnumber.combine.self_s": ("s", "own", "dnumber.combine"),
    "dnumber.focal_products": ("count", "counts", "dnumber.focal_products"),
    "dnumber.discount.s": ("s", "total", "dnumber.discount"),
    "dnumber.normalize_incomplete.s": ("s", "total", "dnumber.normalize_incomplete"),
    "exclusivity.relative_matrix.calls": ("count", "calls", "exclusivity.relative_matrix"),
    "exclusivity.relative_matrix.self_s": ("s", "own", "exclusivity.relative_matrix"),
    "exclusivity.pairs": ("count", "counts", "exclusivity.pairs"),
    "fuzzy.non_exclusive_degree.calls": ("count", "calls", "fuzzy.non_exclusive_degree"),
    "fuzzy.non_exclusive_degree.s": ("s", "total", "fuzzy.non_exclusive_degree"),
    "fuzzy.membership.calls": ("count", "counts", "fuzzy.membership"),
}


def traced_run(runner: Runner, plan: workloads.Plan, trace_path: Path) -> dict:
    spent, items, _ = runner.round(plan.ops)
    untraced = items / spent
    tracer = tracing.Tracer()
    missing = tracer.install()
    if missing:
        print(f"not traced, no longer in the package: {', '.join(missing)}", file=sys.stderr)
    bytes_before = runner.output_bytes
    try:
        spent, items, _ = runner.round(plan.ops)
    finally:
        tracer.uninstall()
    traced = items / spent
    tracer.counts["cli.output_bytes"] = runner.output_bytes - bytes_before
    calls, total, own, edges = tracer.metrics()
    sources = {"calls": calls, "total": total, "own": own, "counts": tracer.counts}
    metrics = {
        name: (sources[source].get(key, 0), unit)
        for name, (unit, source, key) in LAYER_METRICS.items()
    }
    metrics["trace.untraced_items_per_s"] = (untraced, "items/s")
    metrics["trace.traced_items_per_s"] = (traced, "items/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced - traced) / untraced, "%")
    trace_path.write_text(
        json.dumps(
            {
                "metrics": {k: v[0] for k, v in metrics.items()},
                "expected": {
                    "intrusion.assess_risk.calls": sum(op.rows for op in plan.ops),
                    "exclusivity.pairs": sum(op.pairs for op in plan.ops),
                    "cli.main.calls": len(plan.ops),
                },
                "edges": [
                    {"caller": caller, "callee": callee, "calls": n, "s": s}
                    for (caller, callee), (n, s) in sorted(edges.items())
                ],
                "not_traced": missing,
            },
            indent=1,
        )
    )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dnfusion" / "cli.py").is_file():
        print(f"no dnfusion sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        plan = workloads.generate(args.workload, args.seed, workdir)
        setup_s = None if args.trace else measure_setup(plan)
        sys.path.insert(0, str(SRC))
        import dnfusion
        from dnfusion import cli

        if SRC.resolve() not in Path(dnfusion.__file__).resolve().parents:
            print(f"dnfusion imported from {dnfusion.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = Runner(cli)
        for op in plan.ops[:WARMUP_CALLS]:
            runner.call(op)
        runner.attempted = runner.failed = 0
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        if args.trace:
            metrics = traced_run(runner, plan, RESULTS / f"{stem}-trace.json")
        else:
            metrics = timed_run(runner, plan, args.seconds)
            calls = metrics.pop("calls")
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    if not args.trace:
        (RESULTS / f"{stem}.json").write_text(json.dumps({**result, "calls": calls}) + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
