"""Compare two sets of benchmark runs, for example a parent and a change.

    python3 bench/compare.py PARENT.log CHANGE.log

Each file holds the standard output of any number of ``bench/run.py`` runs;
their ``record`` lines are read.  Runs pair up by workload, trace mode and
seed.  For every workload and metric the table gives each side's median and
quartiles and a verdict:

* ``improved``   the change wins at least nine tenths of the pairs (runs
                 of the same workload and seed), ties counting for neither,
                 and the medians differ by more than the parent's quartile
                 spread;
* ``worse``      the change's median is worse than the parent's by more than
                 the bound in BENCHMARK.json (per-layer metrics, which have
                 no bound, use the improved rule mirrored);
* ``unresolved`` the runs spread wider than the bound, unless every run of
                 the change reads better than every run of the parent, or
                 there are fewer than two runs a side;
* ``unchanged``  otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict:
    """{(workload, trace): {seed: [metrics, ...]}} from run output."""
    runs: dict = defaultdict(lambda: defaultdict(list))
    for line in Path(path).read_text().splitlines():
        if line.startswith("record "):
            rec = json.loads(line[len("record "):])
            runs[(rec["workload"], rec["trace"])][rec["seed"]].append(rec["metrics"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float | None) -> str:
    if len(parent) < 2 or len(change) < 2:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gain = sign * (cm - pm)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > p3 - p1:
            return "worse"
        return "unresolved"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if pm and max(p3 - p1, c3 - c1) / abs(pm) > bound and not all_better:
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "unchanged"


def cell(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_path: str, change_path: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_of = {0: spec["end_to_end"], 1: spec["per_layer"]}
    parent, change = load(parent_path), load(change_path)
    lines = [f"{'workload':15} {'metric':48} {'parent median [q1, q3]':>32} "
             f"{'change median [q1, q3]':>32} {'wins':>6}  verdict"]
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        for entry in metrics_of[trace]:
            name, sign = entry["name"], 1 if entry["better"] == "higher" else -1

            def values(side, seed):
                return [m[name]["value"] for m in side[key][seed] if name in m]
            pairs = [pair for seed in sorted(set(parent[key]) & set(change[key]))
                     for pair in zip(values(parent, seed), values(change, seed))]
            p = [v for seed in parent[key] for v in values(parent, seed)]
            c = [v for seed in change[key] for v in values(change, seed)]
            if not p or not c:
                continue
            wins = sum(sign * (b - a) > 0 for a, b in pairs)
            lines.append(f"{workload:15} {name:48} {cell(p):>32} {cell(c):>32} "
                         f"{wins:>3}/{len(pairs):<2}  "
                         f"{verdict(p, c, pairs, entry['better'], entry.get('bound'))}")
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    print("\n".join(compare(sys.argv[1], sys.argv[2])))
