"""Timed passes over a workload's items, their checks, and the metrics.

A pass calls the workload's entry point once per item, in a fixed order,
and renders every record through ``cli.emit_report`` to a JSONL file.  A run
makes whole passes until at least the requested seconds have been measured,
so the parent and a change always time the same mix of items.  Checks run
between passes, outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibration
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = workloads.ROOT / ".bench_build" / "bench"
DIGESTS = BENCH_DIR / "digests.json"
MAX_FAILURES = 20  # failure messages kept per run


@dataclass
class Run:
    """Item and pass seconds, scaled by calibration unless named raw."""

    items_per_pass: int
    item_s: list[list[float]] = field(default_factory=list)  # by pass
    raw_item_s: list[list[float]] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    raw_pass_s: list[float] = field(default_factory=list)
    reference_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    stats: Counter = field(default_factory=Counter)

    @property
    def passes(self) -> int:
        return len(self.pass_s)


@dataclass
class Pass:
    """Raw item seconds and reference slices, placed on the item-time clock."""

    item_s: list[float] = field(default_factory=list)
    item_at: list[float] = field(default_factory=list)
    slice_at: list[float] = field(default_factory=list)
    slice_s: list[float] = field(default_factory=list)
    records: list[list[dict]] = field(default_factory=list)
    errors: dict[int, str] = field(default_factory=dict)


def recorded_digest(workload) -> str | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(workload.name, {}).get(str(workload.variant))


def run_pass(workload, out_path: Path, tracer=None) -> Pass:
    """One timed pass, with reference slices between items."""
    p = Pass()

    def reference(at: float) -> None:
        if tracer is not None:
            tracer.enter("bench.reference")
        p.slice_at.append(at)
        p.slice_s.append(calibration.reference_slice_s(workload.reference))
        if tracer is not None:
            tracer.exit()

    def records():
        clock = since = 0.0
        reference(clock)
        for i, item in enumerate(workload.items):
            start = perf_counter()
            if tracer is not None:
                tracer.item = i
                tracer.enter("bench.item")
            try:
                recs = workload.run_item(item)
            except Exception as exc:  # a raising item fails; the pass goes on
                p.errors[i] = f"raised {exc!r}"
                recs = []
            if tracer is not None:
                tracer.exit()
            p.records.append(recs)
            yield from recs
            elapsed = perf_counter() - start
            p.item_s.append(elapsed)
            p.item_at.append(clock + elapsed / 2)
            clock += elapsed
            since += elapsed
            if since >= calibration.SLICE_EVERY_S:
                reference(clock)
                since = 0.0
        if tracer is not None:
            tracer.item = None
        reference(clock)
        yield from workload.trailer()

    workloads.cli.emit_report(records(), "jsonl", str(out_path))
    return p


def measure(workload, seconds: float, expected_digest: str | None,
            tracer=None) -> Run:
    """Whole passes until ``seconds`` of item time are measured; every pass
    is checked.

    Each pass's JSONL sha256 is compared with ``expected_digest`` unless it
    is None, which only recording a digest may pass.
    """
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}.jsonl"
    run = Run(items_per_pass=len(workload.items))
    cross_failures = None
    while not run.pass_s or sum(run.raw_pass_s) < seconds:
        if tracer is not None:
            tracer.install()
        try:
            p = run_pass(workload, out_path, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        scale = calibration.factors(p.item_at, p.slice_at, p.slice_s)
        scaled = [t / f for t, f in zip(p.item_s, scale)]
        run.item_s.append(scaled)
        run.raw_item_s.append(p.item_s)
        run.pass_s.append(sum(scaled))
        run.raw_pass_s.append(sum(p.item_s))
        run.reference_ms.append(1e3 * statistics.median(p.slice_s))
        failures = dict(p.errors)
        for i, (item, recs) in enumerate(zip(workload.items, p.records)):
            if i not in failures:
                problem = workload.check_item(item, recs, run.stats)
                if problem:
                    failures[i] = problem
        if cross_failures is None:
            cross_failures = workload.cross_check(p.records)
        for i, problem in cross_failures.items():
            failures.setdefault(i, f"cross-check: {problem}")
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        run.digests.append(digest)
        # These fail every item of the pass.
        messages = list(workload.setup_problems)
        if expected_digest is not None and digest != expected_digest:
            messages.append(f"JSONL sha256 {digest} is not the recorded "
                            f"{expected_digest}")
        run.attempted += run.items_per_pass
        run.failed += run.items_per_pass if messages else len(failures)
        for i, problem in sorted(failures.items()):
            item = workload.items[i]
            messages.append(f"item {i} {workloads.graphs.encode_graph6(item.graph)} "
                            f"x K{item.n}: {problem}")
        run.failures += messages[:MAX_FAILURES - len(run.failures)]
    return run


TAIL_BEYOND = 10  # samples beyond the tail percentile


def per_item_ms(passes: list[list[float]]) -> list[float]:
    """Each item's median time over the passes, in ms, so that a stall
    during one pass does not become the item's time."""
    return [1e3 * statistics.median(times) for times in zip(*passes)]


def tail_ms(item_ms: list[float]) -> float:
    """The item time with exactly TAIL_BEYOND items beyond it."""
    return sorted(item_ms)[-TAIL_BEYOND - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(run: Run, setup_s: list[float]) -> dict[str, tuple[float, str]]:
    """Item times are calibrated; their raw wall-clock twins come beside them."""
    m = run.items_per_pass
    item_ms, raw_item_ms = per_item_ms(run.item_s), per_item_ms(run.raw_item_s)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (m / statistics.median(run.pass_s), "1/s"),
        "item_ms.p50": (statistics.median(item_ms), "ms"),
        "item_ms.tail": (tail_ms(item_ms), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "failed_frac": (run.failed / run.attempted, "fraction"),
        "item_ms.tail.percentile": (100 * (m - TAIL_BEYOND) / m, "percentile"),
        "item_ms.tail.samples": (m, "count"),
        "item_ms.passes": (run.passes, "count"),
        "raw.items_per_s": (m / statistics.median(run.raw_pass_s), "1/s"),
        "raw.item_ms.p50": (statistics.median(raw_item_ms), "ms"),
        "raw.item_ms.tail": (tail_ms(raw_item_ms), "ms"),
        "calibration.reference_ms": (statistics.median(run.reference_ms), "ms"),
    }


def per_layer(run: Run, setup, passes, corpus_size: int,
              untraced_pass_s: list[float]) -> dict[str, tuple[float, str]]:
    """Layer metrics from traced totals; per-pass values divide by passes.

    Self times are raw wall-clock seconds; the overhead compares calibrated
    pass times.
    """
    p = run.passes
    wall = sum(run.raw_pass_s)

    def per_graph_us(name):
        calls = setup.calls(name) + passes.calls(name)
        return 1e6 * (setup.self_s(name) + passes.self_s(name)) / calls if calls else 0.0

    build_s = setup.self_s_prefix("corpus.")
    enum = "connectivity.enumerate_min_cuts"
    cuts = passes.counts["enumerate_min_cuts.cuts_out"]
    draws = run.stats["draws"]
    metrics = {
        "corpus.build_s": (build_s, "s"),
        "corpus.graphs_per_s": (corpus_size / build_s if build_s else 0.0, "1/s"),
        "graphs.graph6_parse_us": (per_graph_us("graphs.parse_graph6"), "us"),
        "graphs.graph6_encode_us": (per_graph_us("graphs.encode_graph6"), "us"),
        "products.kronecker.calls": (passes.calls("products.kronecker") / p, "count"),
        "products.kronecker.self_s": (passes.self_s("products.kronecker") / p, "s"),
        "connectivity.vertex_connectivity.calls_per_item": (
            passes.calls("connectivity.vertex_connectivity") / run.attempted, "count"),
        "connectivity.vertex_connectivity.self_s": (
            passes.self_s("connectivity.vertex_connectivity") / p, "s"),
        f"{enum}.self_s": (passes.self_s(enum) / p, "s"),
        f"{enum}.share": (passes.self_s(enum) / wall, "fraction"),
        f"{enum}.cuts_out": (cuts / p, "count"),
        f"{enum}.subsets_required": (
            passes.counts["enumerate_min_cuts.subsets_required"] / p, "count"),
        f"{enum}.ms_per_cut": (1e3 * passes.inclusive_s(enum) / cuts if cuts else 0.0,
                               "ms"),
        "connectivity.budget_skips": (run.stats["budget_skips"] / p, "count"),
        "product_analysis.sampler.acceptance": (
            run.stats["accepted"] / draws if draws else 0.0, "fraction"),
        "product_analysis.sampler.draws": (draws / p, "count"),
        "cli.emit.self_s": (passes.self_s("cli.emit_report") / p, "s"),
        "bench.item.self_s": (passes.self_s("bench.item") / p, "s"),
        "trace.overhead": (statistics.median(run.pass_s)
                           / statistics.median(untraced_pass_s) - 1, "fraction"),
    }
    for fn in ("verify_super_connectivity", "verify_connectivity_formula",
               "check_gstar_connected", "check_residue_components", "build_gstar"):
        name = f"product_analysis.{fn}"
        metrics[f"{name}.self_s"] = (passes.self_s(name) / p, "s")
    return metrics
