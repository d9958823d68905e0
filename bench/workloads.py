"""The benchmark's workloads: their inputs, the timed call per item, and checks.

An item is one call into a workload's entry point for one ``(factor, n)``
pair.  A workload builds its item list in ``setup`` (timed as set-up),
renders each item's records in ``run_item`` (timed per item), and judges
them afterwards in ``check_item`` and ``cross_check`` (never timed).

The workload seed selects one of ``VARIANTS`` input variants; a variant only
chooses the sampled factors and the sampler seed, so every variant has a
JSONL digest recorded in ``digests.json``.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import kronkit  # noqa: E402  (imported from the checkout, never an installed copy)

if Path(kronkit.__file__).resolve().parent.parent != SRC.resolve():
    raise ImportError(f"kronkit must come from {SRC}, found {kronkit.__file__}")

from kronkit import cli, connectivity, corpus, graphs, products  # noqa: E402
from kronkit import product_analysis as pa  # noqa: E402

VARIANTS = 16

# Published numbers of graphs (OEIS A000088) and of connected graphs
# (OEIS A001349) on 1..8 vertices, one per isomorphism class.
PUBLISHED_ALL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
PUBLISHED_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


@dataclass(frozen=True)
class Item:
    graph: graphs.Graph
    n: int


def pick(candidates, k: int, variant: int) -> list:
    """``k`` candidates chosen by the variant, kept in corpus order.

    Ranks by a digest of (variant, graph6), so the choice depends on nothing
    but the variant and the candidates, on any Python or numpy version.
    """
    def rank(g):
        key = f"{variant}:{graphs.encode_graph6(g)}".encode()
        return hashlib.sha256(key).digest()
    chosen = set(sorted(candidates, key=rank)[:k])
    return [g for g in candidates if g in chosen]


def kd_equal(g) -> bool:
    """The ``kd-equal`` filter of ``kronkit batch``: connected, kappa == delta."""
    return graphs.is_connected(g) and connectivity.vertex_connectivity(g) == g.min_degree


def count_problems(by_order: dict, published: dict) -> list[str]:
    return [f"order {o}: {len(gs)} graphs, published {published[o]}"
            for o, gs in by_order.items() if len(gs) != published[o]]


def ingest(path: Path, corpus_graphs) -> tuple[list, list[str]]:
    """Write graphs as graph6 and read them back through ``cli.ingest_corpus``."""
    path.write_text("".join(graphs.encode_graph6(g) + "\n" for g in corpus_graphs),
                    encoding="ascii")
    items = list(cli.ingest_corpus([str(path)]))
    problems = [f"{it.location}: {it.error}" for it in items if it.error]
    read = [it.graph for it in items if it.graph is not None]
    if read != list(corpus_graphs):
        problems.append("graph6 round trip changed the corpus")
    return read, problems


def nx_graph(g6: str):
    import networkx as nx  # only the checks use it, so it stays out of set-up
    return nx.from_graph6_bytes(g6.encode("ascii"))


def nx_product(g6: str, n: int):
    """``G x K_n`` built by networkx, relabelled to kronkit's ``u * n + v``."""
    import networkx as nx
    p = nx.tensor_product(nx_graph(g6), nx.complete_graph(n))
    return nx.relabel_nodes(p, {(u, v): u * n + v for u, v in p.nodes})


class Workload:
    name = ""
    reference = "bitmask"  # calibration kernel most like the workload's work

    def __init__(self, variant: int, workdir: Path):
        self.variant = variant
        self.workdir = workdir
        self.items: list[Item] = []
        self.corpus_size = 0
        self.setup_problems: list[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_item(self, item: Item) -> list[dict]:
        raise NotImplementedError

    def trailer(self) -> list[dict]:
        """Records written after the last item of a pass."""
        return []

    def check_item(self, item: Item, records: list[dict], stats: Counter) -> str | None:
        raise NotImplementedError

    def cross_check(self, item_records: list[list[dict]]) -> dict[int, str]:
        """Independent networkx checks, by item index; run once per run."""
        return {}


def _instance_problem(item: Item, record: dict) -> str | None:
    want = {"graph6": graphs.encode_graph6(item.graph), "n": item.n}
    if record.get("instance") != want:
        return f"record instance {record.get('instance')} is not {want}"
    return None


class SuperSweep(Workload):
    name = "super-sweep"
    FILTERS = ("connected", "kd-equal")
    # Order-7 factors sampled per minimum degree: the scan size C(21, 2*delta)
    # is set by delta, so stratifying keeps a pass's cost nearly the same for
    # every variant.  K7 (delta 6, C(21,12) subsets) is the only factor of its
    # stratum; delta 4 and 5 are left out because their scan times differ by
    # up to 40% between factors, which would make the cost depend on the seed.
    # Twelve delta-2 factors put the median item inside a dense band of item
    # times rather than at the edge of a gap, where noise would move it.
    ORDER7_BY_DELTA = {1: 8, 2: 12, 3: 2, 6: 1}

    def setup(self) -> None:
        by_order = {o: corpus.all_graphs(o) for o in range(1, 8)}
        self.corpus_size = sum(len(gs) for gs in by_order.values())
        self.setup_problems = count_problems(by_order, PUBLISHED_ALL)
        kd = {o: [g for g in gs if kd_equal(g)] for o, gs in by_order.items()}
        sample = []
        for delta, k in self.ORDER7_BY_DELTA.items():
            sample += pick([g for g in kd[7] if g.min_degree == delta], k, self.variant)
        pass_n3 = [g for o in range(1, 7) for g in kd[o]] + sample
        pass_n4 = [g for o in range(1, 6) for g in kd[o]]
        self.items = [Item(g, 3) for g in pass_n3] + [Item(g, 4) for g in pass_n4]
        self._summaries: list = []

    def run_item(self, item: Item) -> list[dict]:
        records = []
        for rec in pa.batch_verify([item.graph], [item.n], filters=self.FILTERS):
            if isinstance(rec, pa.BatchSummary):
                self._summaries.append(rec)
            elif isinstance(rec, pa.SkipRecord):
                records.append(cli.skip_record(rec))
            else:
                records.append(cli.report_record(rec))
        return records

    def trailer(self) -> list[dict]:
        parts, self._summaries = self._summaries, []
        total = pa.BatchSummary(*(sum(getattr(s, f) for s in parts)
                                  for f in ("instances", "holds", "violations", "skips")))
        return [cli.summary_record(total)]

    def check_item(self, item, records, stats):
        if len(records) != 1:
            return f"{len(records)} records, expected 1"
        rec = records[0]
        if "skip" in rec:
            stats["budget_skips"] += 1
            return f"skipped: {rec['detail']}"
        problem = _instance_problem(item, rec)
        if problem:
            return problem
        if not rec["theorem11_holds"] or rec["product_kappa"] != rec["formula_rhs"]:
            return "product connectivity differs from the formula"
        # The only super-connectivity failures are K_{d,d} x K_3 (see the
        # README's note on criterion 5); every other factor must hold.
        g = item.graph
        kdd = (g.min_degree >= 1 and g.order == 2 * g.min_degree
               and g.edge_count == g.min_degree ** 2
               and _nx_bipartite(graphs.encode_graph6(g)))
        expect_violation = item.n == 3 and kdd
        if ("severity" in rec) != expect_violation:
            return f"severity {rec.get('severity')} but K_dd x K_3 is {expect_violation}"
        if (rec["non_isolating_cut"] is not None) != expect_violation:
            return "non_isolating_cut disagrees with the verdict"
        return None

    def cross_check(self, item_records):
        import networkx as nx
        failures = {}
        for i, records in enumerate(item_records):
            for rec in records:
                cut = rec.get("non_isolating_cut")
                if cut is None:
                    continue
                p = nx_product(rec["instance"]["graph6"], rec["instance"]["n"])
                p.remove_nodes_from(cut["cut"])
                if len(cut["cut"]) != rec["product_kappa"]:
                    failures[i] = "non_isolating_cut is not of minimum size"
                elif nx.is_connected(p):
                    failures[i] = "non_isolating_cut does not disconnect the product"
                elif any(d == 0 for _, d in p.degree()):
                    failures[i] = "non_isolating_cut isolates a vertex"
        return failures


@functools.cache
def _nx_bipartite(g6: str) -> bool:
    import networkx as nx
    return nx.is_bipartite(nx_graph(g6))


class FormulaSweep(Workload):
    name = "formula-sweep"
    N_VALUES = (3, 4, 5)
    # Every order-7 graph at n=4 and 5 would take 20 s a pass, one pass a
    # run, and the tail item time of a single pass is at the mercy of one
    # stall.  So n=4 and 5 take every tenth order-7 graph in corpus order, a
    # fixed subset, and a pass takes about 5 s.
    ORDER7_STRIDE = 10
    ORDER8_SAMPLE = 200
    NX_SAMPLE = 32

    def setup(self) -> None:
        built = corpus.graphs_up_to(8)
        self.corpus_size = len(built)
        read, self.setup_problems = ingest(self.workdir / "formula-corpus.g6", built)
        by_order: dict[int, list] = {o: [] for o in range(1, 9)}
        for g in read:
            by_order[g.order].append(g)
        self.setup_problems += count_problems(by_order, PUBLISHED_CONNECTED)
        strided = set(by_order[7][::self.ORDER7_STRIDE])
        self.items = [Item(g, n) for o in range(1, 8) for g in by_order[o]
                      for n in self.N_VALUES if n == 3 or o < 7 or g in strided]
        self.items += [Item(g, 3) for g in pick(by_order[8], self.ORDER8_SAMPLE,
                                                self.variant)]

    def run_item(self, item: Item) -> list[dict]:
        return [cli.report_record(pa.verify_connectivity_formula(item.graph, item.n))]

    def check_item(self, item, records, stats):
        if len(records) != 1:
            return f"{len(records)} records, expected 1"
        rec = records[0]
        problem = _instance_problem(item, rec)
        if problem:
            return problem
        if rec["theorem11_holds"] is not True or "severity" in rec:
            return "theorem11_holds is not true"
        if rec["product_kappa"] != rec["formula_rhs"]:
            return "product_kappa differs from formula_rhs"
        return None

    def cross_check(self, item_records):
        import networkx as nx
        candidates = [i for i, it in enumerate(self.items) if it.graph.order >= 2]
        ranked = sorted(candidates, key=lambda i: hashlib.sha256(
            f"{self.variant}:nx:{i}".encode()).digest())[:self.NX_SAMPLE]
        failures = {}
        for i in ranked:
            rec = item_records[i][0]
            g6, n = rec["instance"]["graph6"], rec["instance"]["n"]
            if nx.node_connectivity(nx_graph(g6)) != rec["kappa_G"]:
                failures[i] = "kappa_G disagrees with networkx"
            elif nx.node_connectivity(nx_product(g6, n)) != rec["product_kappa"]:
                failures[i] = "product_kappa disagrees with networkx"
        return failures


class ResidueTrials(Workload):
    name = "residue-trials"
    N_VALUES = (3, 4)
    TRIALS = 20
    reference = "sampler"

    def setup(self) -> None:
        by_order = {o: corpus.all_graphs(o) for o in range(1, 7)}
        self.corpus_size = sum(len(gs) for gs in by_order.values())
        self.setup_problems = count_problems(by_order, PUBLISHED_ALL)
        factors = [g for o in range(2, 7) for g in by_order[o] if kd_equal(g)]
        read, problems = ingest(self.workdir / "residue-corpus.g6", factors)
        self.setup_problems += problems
        self.items = [Item(g, n) for g in read for n in self.N_VALUES]
        self.sampler_seed = 1000 + self.variant

    def run_item(self, item: Item) -> list[dict]:
        g, n = item.graph, item.n
        trials = pa.check_gstar_connected(g, n, self.TRIALS, self.sampler_seed)
        if not products.is_bipartite(g)[0]:
            trials += pa.check_residue_components(g, n, self.TRIALS, self.sampler_seed)
        return [cli.trial_record(t) for t in trials]

    def check_item(self, item, records, stats):
        bipartite = _nx_bipartite(graphs.encode_graph6(item.graph))
        want = self.TRIALS * (1 if bipartite else 2)
        if len(records) != want:
            return f"{len(records)} trial records, expected {want}"
        # check_gstar_connected's records come first, then the residue ones.
        for k, rec in enumerate(records):
            problem = _instance_problem(item, rec)
            if problem:
                return problem
            if rec["error"] is not None:
                return f"sampling error: {rec['error']}"
            stats["draws"] += rec["rejections"] + 1
            stats["accepted"] += 1
            if k < self.TRIALS and rec["gstar_connected"] is not True:
                return f"auxiliary graph not connected, removed {rec['removed']}"
            if k >= self.TRIALS and rec["split_residues"] != []:
                return f"split residues {rec['split_residues']}"
        return None


WORKLOADS = {w.name: w for w in (SuperSweep, FormulaSweep, ResidueTrials)}
