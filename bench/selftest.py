"""Self-test of the benchmark on tiny runs of every workload.

    python3 bench/selftest.py

Checks that a clean run has no failed item, that a wrong digest and a
corrupted record each raise ``failed_frac`` above zero (the record through
its own check, not only through the digest), that a networkx disagreement
counts as a failed item, and that every metric BENCHMARK.json names comes
out with its unit in both modes.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import sys

import harness
import tracing
import workloads

TINY_ITEMS = 24

# Metrics the per-layer table asks for, beyond those BENCHMARK.json lists.
LAYER_REPORT = (
    "connectivity.enumerate_min_cuts.self_s", "connectivity.enumerate_min_cuts.ms_per_cut",
    "product_analysis.verify_super_connectivity.self_s",
    "product_analysis.verify_connectivity_formula.self_s",
    "product_analysis.check_gstar_connected.self_s",
    "product_analysis.check_residue_components.self_s",
    "product_analysis.build_gstar.self_s",
)
CORRUPTIONS = {
    "super-sweep": ("theorem11_holds", False),
    "formula-sweep": ("product_kappa", -1),
    "residue-trials": ("gstar_connected", False),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAILED {message}", file=sys.stderr)
        sys.exit(1)


def tiny(name: str):
    workload = workloads.WORKLOADS[name](0, harness.OUT_DIR)
    workload.setup()
    workload.items = workload.items[:TINY_ITEMS]
    return workload


def corrupt_one(workload, index: int, field: str, value) -> None:
    """Make the record(s) of one item carry a wrong value."""
    clean = workload.run_item

    def run_item(item):
        records = clean(item)
        if item is workload.items[index]:
            for rec in records:
                rec[field] = value
        return records
    workload.run_item = run_item


def check_metrics(metrics: dict, entries, extra=()) -> None:
    for entry in entries:
        expect(entry["name"] in metrics, f"metric {entry['name']} missing")
        expect(metrics[entry["name"]][1] == entry["unit"],
               f"metric {entry['name']} has unit {metrics[entry['name']][1]}")
    for name in extra:
        expect(name in metrics, f"metric {name} missing")


def main() -> int:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in workloads.WORKLOADS:
        workload = tiny(name)
        clean = harness.measure(workload, 0, None)
        expect(clean.failed == 0, f"{name}: clean tiny run failed: {clean.failures}")
        digest = clean.digests[0]
        again = harness.measure(workload, 0.05, digest)
        expect(again.failed == 0, f"{name}: rerun differs: {again.failures}")
        metrics = harness.end_to_end(again, [0.1, 0.2, 0.3])
        check_metrics(metrics, spec["end_to_end"], ("failed_frac",))
        expect(metrics["failed_frac"][0] == 0, f"{name}: failed_frac of a clean run")

        wrong = harness.measure(workload, 0, "0" * 64)
        expect(harness.end_to_end(wrong, [0.1])["failed_frac"][0] > 0,
               f"{name}: a wrong digest left failed_frac at 0")

        field, value = CORRUPTIONS[name]
        corrupt_one(workload, 1, field, value)
        bad = harness.measure(workload, 0, digest)
        expect(bad.failed > 0, f"{name}: a corrupted record left failed_frac at 0")
        expect(any(m.startswith("item 1 ") for m in bad.failures),
               f"{name}: the corrupted item was not caught by its own check")

        workload = tiny(name)
        tracer = tracing.Tracer(workloads.kronkit)
        setup_totals = tracer.take()  # set-up ran untraced: empty
        untraced = harness.measure(workload, 0, digest)
        traced = harness.measure(workload, 0, digest, tracer)
        expect(traced.failed == 0, f"{name}: traced run failed: {traced.failures}")
        layers = harness.per_layer(traced, setup_totals, tracer.take(),
                                   workload.corpus_size, untraced.pass_s)
        check_metrics(layers, spec["per_layer"], LAYER_REPORT)
        print(f"selftest: {name} ok")

    workload = tiny("super-sweep")
    clean = harness.measure(workload, 0, None)
    index = next(i for i, it in enumerate(workload.items)
                 if it.graph.order == 2 and it.n == 3)  # K2 x K3, the 6-cycle
    corrupt_one(workload, index, "non_isolating_cut",
                {"cut": [0, 1], "isolates": False, "neighborhood_of": None})
    bad = harness.measure(workload, 0, clean.digests[0])
    expect(any("cross-check" in m for m in bad.failures),
           "super-sweep: a wrong non_isolating_cut passed the networkx re-check")
    print("selftest: cross-check ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
