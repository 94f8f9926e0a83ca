"""Spans around dnfusion's public functions, installed from outside the package.

Each wrapped function records one span: name, parent span, start and end.
The spans live in flat arrays in memory until the run ends, when
:meth:`Tracer.metrics` derives call counts, inclusive and self times (a
span's duration minus its wrapped children's) and the caller-to-callee edge
table. A wrapper is installed on every loaded ``dnfusion`` module that binds
the function, since ``from .x import y`` gives each importer its own name to
look up; methods are replaced on their class.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name); "Class.method" attributes patch the class
SPANS = (
    ("dnfusion.cli", "main", "cli.main"),
    ("dnfusion.cli", "build_parser", "cli.build_parser"),
    ("dnfusion.cli", "cmd_epsilon", "cli.cmd"),
    ("dnfusion.cli", "cmd_fuse", "cli.cmd"),
    ("dnfusion.cli", "cmd_assess", "cli.cmd"),
    ("dnfusion.cli", "cmd_batch", "cli.cmd"),
    ("dnfusion.formats", "load_scenarios", "formats.load_scenarios"),
    ("dnfusion.formats", "load_model", "formats.load_model"),
    ("dnfusion.formats", "load_granulation", "formats.load_granulation"),
    ("dnfusion.formats", "load_dnumbers", "formats.load_dnumbers"),
    ("dnfusion.intrusion", "assess_risk", "intrusion.assess_risk"),
    ("dnfusion.intrusion", "evidence_to_dnumber", "intrusion.evidence_to_dnumber"),
    ("dnfusion.intrusion", "EvidenceBody.build", "intrusion.EvidenceBody.build"),
    ("dnfusion.intrusion", "default_model", "intrusion.default_model"),
    ("dnfusion.dnumber", "DNumber.__init__", "dnumber.DNumber.init"),
    ("dnfusion.dnumber", "DNumber.combine", "dnumber.combine"),
    ("dnfusion.dnumber", "DNumber.discount", "dnumber.discount"),
    ("dnfusion.dnumber", "DNumber.normalize_incomplete", "dnumber.normalize_incomplete"),
    ("dnfusion.dnumber", "combine_all", "dnumber.combine_all"),
    ("dnfusion.exclusivity", "relative_matrix", "exclusivity.relative_matrix"),
    ("dnfusion.exclusivity", "exclusive_coefficient", "exclusivity.exclusive_coefficient"),
    ("dnfusion.fuzzy", "non_exclusive_degree", "fuzzy.non_exclusive_degree"),
)
# Counted, not timed: a span per membership read would cost more than the read.
COUNTED = (("dnfusion.fuzzy", "TrapezoidalFuzzyNumber.membership", "fuzzy.membership"),)


def _file_bytes(args) -> int:
    return os.path.getsize(args[0])


def _granule_pairs(args) -> int:
    n = len(args[0])
    return n * (n - 1) // 2


def _focal_products(args) -> int:
    return len(args[0].masses) * len(args[1].masses)


# quantities counted from a wrapped call's operands
OPERAND_COUNTS = {
    "formats.load_scenarios": ("formats.input_bytes", _file_bytes),
    "formats.load_model": ("formats.input_bytes", _file_bytes),
    "formats.load_granulation": ("formats.input_bytes", _file_bytes),
    "formats.load_dnumbers": ("formats.input_bytes", _file_bytes),
    "exclusivity.relative_matrix": ("exclusivity.pairs", _granule_pairs),
    "dnumber.combine": ("dnumber.focal_products", _focal_products),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # ---- wrappers --------------------------------------------------------

    def span(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        counted = OPERAND_COUNTS.get(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counted is not None:
                counts[counted[0]] += counted[1](args)
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                starts[index] = start
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # ---- installation ----------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every target; returns the targets that no longer exist."""
        missing = []
        for module_name, attr, name in SPANS:
            if not self._patch(module_name, attr, lambda fn, n=name: self.span(n, fn)):
                missing.append(f"{module_name}.{attr}")
        for module_name, attr, name in COUNTED:
            if not self._patch(module_name, attr, lambda fn, n=name: self.counter(n, fn)):
                missing.append(f"{module_name}.{attr}")
        return missing

    def _patch(self, module_name: str, attr: str, make) -> bool:
        module = sys.modules.get(module_name)
        if module is None:
            return False
        if "." in attr:
            class_name, method = attr.split(".")
            cls = getattr(module, class_name, None)
            raw = getattr(cls, "__dict__", {}).get(method)
            if raw is None:
                return False
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((cls, method, raw))
            setattr(cls, method, new)
            return True
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = make(original)
        for owner in list(sys.modules.values()):
            name = getattr(owner, "__name__", "")
            if (name == "dnfusion" or name.startswith("dnfusion.")) and getattr(
                owner, attr, None
            ) is original:
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return True

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---- results ---------------------------------------------------------

    def metrics(self):
        """Per-name calls, inclusive and self seconds, and caller edges."""
        n = len(self.span_name)
        child = [0.0] * n
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter[str] = Counter()
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        edges: defaultdict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = ends[i] - starts[i]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child[i]
            p = parents[i]
            edge = edges[(self.names[self.span_name[p]] if p >= 0 else "-", name)]
            edge[0] += 1
            edge[1] += duration
        return calls, total, own, edges
