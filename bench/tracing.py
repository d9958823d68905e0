"""Spans around calls into kronkit's modules, recorded from outside ``src/``.

A traced binding is the name a caller looks up at call time, such as
``kronkit.product_analysis.enumerate_min_cuts``; rebinding it to a wrapper
times every call made through that name without editing the package.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from time import perf_counter

# (module, attribute) pairs, each the name some caller resolves at call time.
# Generator functions such as batch_verify are left out: a wrapper would time
# only the creation of the generator.
BINDINGS = (
    ("corpus", "all_graphs"), ("corpus", "connected_graphs"),
    ("corpus", "graphs_up_to"),
    ("graphs", "encode_graph6"), ("cli", "parse_graph6"),
    ("product_analysis", "parse_graph6"), ("product_analysis", "encode_graph6"),
    ("product_analysis", "kronecker"),
    ("product_analysis", "vertex_connectivity"),
    ("connectivity", "vertex_connectivity"),
    ("product_analysis", "enumerate_min_cuts"),
    ("product_analysis", "verify_super_connectivity"),
    ("product_analysis", "verify_connectivity_formula"),
    ("product_analysis", "check_gstar_connected"),
    ("product_analysis", "check_residue_components"),
    ("product_analysis", "build_gstar"),
    ("cli", "emit_report"), ("cli", "report_record"), ("cli", "skip_record"),
    ("cli", "summary_record"), ("cli", "trial_record"),
)


def _count_cuts(counts: Counter, args, result) -> None:
    counts["enumerate_min_cuts.cuts_out"] += len(result)
    if result:
        # The scan visits C(N, kappa) subsets; computed, not counted inside.
        counts["enumerate_min_cuts.subsets_required"] += math.comb(
            args[0].order, len(result[0].vertices))


COUNT_HOOKS = {"connectivity.enumerate_min_cuts": _count_cuts}


class Tracer:
    """Collects spans and per-name totals while installed."""

    def __init__(self, package):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.item: int | None = None
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()

    def take(self) -> Totals:
        """Totals since the last take; spans already recorded are kept."""
        taken = Totals(self.totals, self.counts)
        self.totals, self.counts = {}, Counter()
        return taken

    def install(self) -> None:
        for module_name, attr in BINDINGS:
            module = getattr(self.package, module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
        hook = COUNT_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                hook(self.counts, args, result)
            return result
        return traced

    def enter(self, name: str) -> None:
        parent = self._stack[-1][1] if self._stack else None
        self._stack.append([name, self._next_id, parent, perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = perf_counter()
        name, span_id, parent, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        total = self.totals.setdefault(name, [0, 0.0, 0.0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        self.spans.append((span_id, parent, name, self.item, start, end))

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, item, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "item": item, "start": start, "end": end}) + "\n")


class Totals:
    """Per-span-name calls, inclusive seconds and self seconds, plus counts."""

    def __init__(self, totals: dict[str, list], counts: Counter):
        self.totals = totals
        self.counts = counts

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def self_s_prefix(self, prefix: str) -> float:
        return sum(t[2] for name, t in self.totals.items() if name.startswith(prefix))
