"""Fiber residues, the auxiliary residue graph, and corpus-scale checkers.

For a factor graph ``g`` and complete second factor on ``n >= 3`` vertices,
a removal candidate ``S`` is measured against three conditions: its size is
``(n-1) * delta(g)``, every fiber keeps at least one survivor, and no
surviving vertex is isolated.  The auxiliary graph puts one vertex per fiber
residue and joins two residues when at least one product edge survives
between them.

The verification entry points compute the product-connectivity formula
``min(n*kappa, (n-1)*delta)`` and the super-connectivity verdict by
exhaustive minimum-cut enumeration, emitting structured records rather than
asserting, so long corpus runs always finish with evidence in hand.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .connectivity import (
    DEFAULT_SUBSET_BUDGET,
    CutSet,
    cut_record,
    enumerate_min_cuts,
    vertex_connectivity,
)
from .errors import BudgetExceededError, PreconditionError, SamplingExhaustedError
from .graphs import (
    Graph,
    components,
    encode_graph6,
    has_isolated,
    is_connected,
    make_complete,
    mask_of,
    parse_graph6,
)
from .products import ProductGraph, is_bipartite, kronecker

DEFAULT_MAX_REJECTIONS = 100_000


# -- residue systems ----------------------------------------------------------

@dataclass(frozen=True)
class ResidueConditions:
    size_ok: bool
    residues_nonempty: bool
    no_isolated: bool

    def all_met(self) -> bool:
        return self.size_ok and self.residues_nonempty and self.no_isolated


@dataclass(frozen=True)
class ResidueSystem:
    """A removal candidate together with the per-fiber survivors."""

    product: ProductGraph
    removed: tuple[int, ...]
    residues: tuple[tuple[int, ...], ...]
    conditions: ResidueConditions


@dataclass(frozen=True)
class GStarGraph:
    """Auxiliary graph on nonempty fiber residues.

    Vertex ``i`` stands for the residue of fiber ``i``; an edge carries one
    surviving product edge as witness.  ``singleton_classes`` lists the
    residues of size one.
    """

    graph: Graph
    edge_witnesses: dict[tuple[int, int], tuple[int, int]]
    singleton_classes: frozenset[int]


def build_residue_system(g: Graph, n: int, removed: Iterable[int]) -> ResidueSystem:
    """Evaluate a removal candidate against the three removal conditions.

    Failed conditions come back as flags, never as errors.
    """
    if n < 3:
        raise ValueError(f"second factor needs n >= 3, got {n}")
    if not is_connected(g) or g.order == 0:
        raise PreconditionError("residue systems need a connected factor graph")
    product = kronecker(g, make_complete(n))
    return _residue_system(g, product, removed)


def _residue_system(g: Graph, product: ProductGraph,
                    removed: Iterable[int]) -> ResidueSystem:
    mn = product.graph.order
    removed_sorted = tuple(sorted(set(removed)))
    if removed_sorted and not (0 <= removed_sorted[0] and removed_sorted[-1] < mn):
        raise ValueError(f"removed ids must lie in 0..{mn - 1}")
    removed_mask = mask_of(removed_sorted)
    n = product.factor2_order
    residues = [tuple(v for v in range(u * n, (u + 1) * n) if not removed_mask >> v & 1)
                for u in range(product.factor1_order)]
    alive = product.graph.full_mask() ^ removed_mask
    conditions = ResidueConditions(
        size_ok=len(removed_sorted) == (n - 1) * g.min_degree,
        residues_nonempty=all(residues),
        no_isolated=not has_isolated(product.graph.adj, alive),
    )
    return ResidueSystem(product, removed_sorted, tuple(residues), conditions)


def build_gstar(rs: ResidueSystem) -> GStarGraph:
    """Auxiliary graph of a residue system; every residue must be nonempty."""
    if not rs.conditions.residues_nonempty:
        empty = next(i for i, r in enumerate(rs.residues) if not r)
        raise PreconditionError(f"residue of fiber {empty} is empty")
    m = rs.product.factor1_order
    padj = rs.product.graph.adj
    masks = [mask_of(res) for res in rs.residues]
    adj = [0] * m
    witnesses: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(m):
        for j in range(i + 1, m):
            for a in rs.residues[i]:
                hit = padj[a] & masks[j]
                if hit:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                    witnesses[(i, j)] = (a, (hit & -hit).bit_length() - 1)
                    break
    singles = frozenset(i for i, r in enumerate(rs.residues) if len(r) == 1)
    return GStarGraph(Graph(m, tuple(adj)), witnesses, singles)


# -- sampled structural checks -------------------------------------------------

@dataclass(frozen=True)
class TrialRecord:
    """One sampled removal candidate and what was checked on it."""

    graph6: str
    n: int
    trial: int
    removed: tuple[int, ...]
    rejections: int
    isolation_rejections: int
    gstar_connected: bool | None
    split_residues: tuple[int, ...] | None
    error: str | None = None


def _sample_valid_removal(g: Graph, product: ProductGraph, rng,
                          max_rejections: int,
                          size: int | None = None) -> tuple[tuple[int, ...], int, int]:
    """Uniform removal candidate meeting the removal conditions, by rejection.

    ``size`` defaults to ``(n-1) * delta``; smaller sizes run through the
    same machinery (the residue and isolation conditions are unchanged).
    Returns (removed, rejections, isolation-only rejections).
    """
    n = product.factor2_order
    if size is None:
        size = (n - 1) * g.min_degree
    mn = product.graph.order
    full = product.graph.full_mask()
    fiber_masks = [product.fiber_mask(u) for u in range(product.factor1_order)]
    padj = product.graph.adj
    rejections = 0
    isolation_rejections = 0
    while rejections <= max_rejections:
        # Python ints: a numpy int64 shift past bit 63 wraps instead of growing.
        picked = rng.choice(mn, size=size, replace=False).tolist()
        removed_mask = mask_of(picked)
        if any(fm & ~removed_mask == 0 for fm in fiber_masks):
            rejections += 1
            continue
        if has_isolated(padj, full ^ removed_mask):
            rejections += 1
            isolation_rejections += 1
            continue
        return tuple(sorted(picked)), rejections, isolation_rejections
    raise SamplingExhaustedError(
        f"no valid removal candidate after {max_rejections} rejections")


def _require_checker_preconditions(g: Graph, n: int, nonbipartite: bool) -> None:
    if n < 3:
        raise ValueError(f"second factor needs n >= 3, got {n}")
    if not is_connected(g) or g.order == 0:
        raise PreconditionError("checker needs a connected factor graph")
    kappa = vertex_connectivity(g)
    if kappa != g.min_degree or kappa == 0:
        raise PreconditionError(
            "checker needs kappa equal to the minimum degree and positive")
    if nonbipartite and is_bipartite(g)[0]:
        raise PreconditionError("checker needs a non-bipartite factor graph")


def _sample_trials(g: Graph, n: int, trials: int, seed: int, max_rejections: int,
                   removal_size: int | None, check) -> list[TrialRecord]:
    """One record per trial: a seeded valid removal and ``check``'s verdict on it.

    ``check`` maps the removal's residue system to the record's
    ``(gstar_connected, split_residues)`` pair.
    """
    product = kronecker(g, make_complete(n))
    g6 = encode_graph6(g)
    records = []
    for t in range(trials):
        rng = np.random.default_rng([seed % 2**64, t])
        try:
            removed, rej, iso_rej = _sample_valid_removal(g, product, rng,
                                                          max_rejections,
                                                          removal_size)
        except SamplingExhaustedError as exc:
            records.append(TrialRecord(g6, n, t, (), max_rejections, 0,
                                       None, None, error=str(exc)))
            continue
        gstar_connected, split = check(_residue_system(g, product, removed))
        records.append(TrialRecord(g6, n, t, removed, rej, iso_rej,
                                   gstar_connected=gstar_connected,
                                   split_residues=split))
    return records


def _gstar_check(rs: ResidueSystem) -> tuple[bool, None]:
    return is_connected(build_gstar(rs).graph), None


def _split_check(rs: ResidueSystem) -> tuple[None, tuple[int, ...]]:
    pg = rs.product.graph
    comps = components(pg.adj, pg.full_mask() ^ mask_of(rs.removed))
    split = []
    for i, res in enumerate(rs.residues):
        res_mask = mask_of(res)
        if not any(res_mask & ~comp == 0 for comp in comps):
            split.append(i)
    return None, tuple(split)


def check_gstar_connected(g: Graph, n: int, trials: int, seed: int,
                          max_rejections: int = DEFAULT_MAX_REJECTIONS,
                          removal_size: int | None = None) -> list[TrialRecord]:
    """Sample valid removals and test the auxiliary graph for connectedness.

    Any disconnected auxiliary graph is an implementation bug, so records
    carry the full removal set for reproduction.  ``removal_size`` defaults
    to ``(n-1) * delta``; the claim covers smaller sizes too and the same
    machinery handles both regimes.
    """
    _require_checker_preconditions(g, n, nonbipartite=False)
    return _sample_trials(g, n, trials, seed, max_rejections, removal_size,
                          _gstar_check)


def check_residue_components(g: Graph, n: int, trials: int, seed: int,
                             max_rejections: int = DEFAULT_MAX_REJECTIONS,
                             removal_size: int | None = None) -> list[TrialRecord]:
    """Sample valid removals and test that no residue straddles components.

    Requires a connected non-bipartite factor with connectivity equal to its
    minimum degree; each record lists the residues (if any) that meet more
    than one component of the surviving product.
    """
    _require_checker_preconditions(g, n, nonbipartite=True)
    return _sample_trials(g, n, trials, seed, max_rejections, removal_size,
                          _split_check)


# -- verification reports -------------------------------------------------------

@dataclass(frozen=True)
class ReportInstance:
    graph6: str
    n: int


@dataclass(frozen=True)
class VerificationReport:
    """Per-instance verification outcome.

    ``super_kappa_verdict``, ``min_cut_count``, and ``non_isolating_cut`` are
    None when only the connectivity formula was checked.  ``severity`` is set
    to ``"contradicts-paper"`` exactly when a computed check failed.
    """

    instance: ReportInstance
    kappa_G: int
    delta_G: int
    product_kappa: int
    formula_rhs: int
    theorem11_holds: bool
    super_kappa_verdict: bool | None
    min_cut_count: int | None
    non_isolating_cut: CutSet | None
    runtime_ms: int
    severity: str | None = None


@dataclass(frozen=True)
class SkipRecord:
    instance: ReportInstance
    reason: str
    detail: str


@dataclass(frozen=True)
class BatchSummary:
    instances: int
    holds: int
    violations: int
    skips: int


def _formula_rhs(n: int, kappa_g: int, delta_g: int) -> int:
    return min(n * kappa_g, (n - 1) * delta_g)


def _check_instance(g: Graph, n: int) -> None:
    if n < 3:
        raise ValueError(f"second factor needs n >= 3, got {n}")
    if g.order == 0:
        raise ValueError("factor graph must be nonempty")


def _report(g: Graph, n: int, kappa_g: int, budget: int | None,
            verdict: bool) -> VerificationReport:
    """The report of one instance, given the factor's connectivity.

    Without ``verdict`` only the formula is checked, by flow on the product,
    and the work proxy ``(order * n) ** 3`` is charged against the budget.
    With it every minimum cut of the product is enumerated; a disconnected
    product has none and gets a False verdict without a counterexample.
    """
    if not verdict:
        limit = DEFAULT_SUBSET_BUDGET if budget is None else budget
        if (g.order * n) ** 3 > limit:
            raise BudgetExceededError(
                f"product order {g.order * n} exceeds the flow budget",
                required=(g.order * n) ** 3)
    start = time.perf_counter()
    delta_g = g.min_degree
    pg = kronecker(g, make_complete(n)).graph
    super_kappa = min_cut_count = counterexample = None
    if not verdict:
        product_kappa = vertex_connectivity(pg)
    elif not is_connected(pg):
        product_kappa, super_kappa, min_cut_count = 0, False, 0
    else:
        cuts = enumerate_min_cuts(pg, budget=budget)
        product_kappa = len(cuts[0].vertices) if cuts else pg.order - 1
        super_kappa = all(c.isolates for c in cuts)
        min_cut_count = len(cuts)
        counterexample = next((c for c in cuts if not c.isolates), None)
    rhs = _formula_rhs(n, kappa_g, delta_g)
    holds = product_kappa == rhs
    return VerificationReport(
        instance=ReportInstance(encode_graph6(g), n),
        kappa_G=kappa_g,
        delta_G=delta_g,
        product_kappa=product_kappa,
        formula_rhs=rhs,
        theorem11_holds=holds,
        super_kappa_verdict=super_kappa,
        min_cut_count=min_cut_count,
        non_isolating_cut=counterexample,
        runtime_ms=int((time.perf_counter() - start) * 1000),
        severity=None if holds and counterexample is None else "contradicts-paper",
    )


def verify_connectivity_formula(g: Graph, n: int,
                                budget: int | None = None) -> VerificationReport:
    """Check the product-connectivity formula by computing both sides.

    The product side runs the flow-based connectivity on the constructed
    product; the formula side combines the factor invariants.  The work proxy
    ``(order * n) ** 3`` is charged against the budget.
    """
    _check_instance(g, n)
    return _report(g, n, vertex_connectivity(g), budget, verdict=False)


def verify_super_connectivity(g: Graph, n: int,
                              budget: int | None = None) -> VerificationReport:
    """Full verdict for a factor with connectivity equal to minimum degree.

    Enumerates every minimum separating set of the product and requires each
    one to isolate a vertex.  A surviving non-isolating minimum cut is
    attached as a validated counterexample and flagged at maximum severity.
    Disconnected products (possible only for a disconnected or one-vertex
    factor) report a False verdict with no counterexample: there are no
    minimum cuts of a connected graph to speak about.
    """
    _check_instance(g, n)
    kappa_g = vertex_connectivity(g)
    if kappa_g != g.min_degree:
        raise PreconditionError(
            f"super-connectivity verdict needs kappa == delta, "
            f"got {kappa_g} != {g.min_degree}")
    return _report(g, n, kappa_g, budget, verdict=True)


# -- batch verification ----------------------------------------------------------

KNOWN_FILTERS = ("connected", "kd-equal", "bipartite", "nonbipartite")


def _passes_filters(g: Graph, kappa_g: int | None, filters: Sequence[str]) -> bool:
    for name in filters:
        if name == "connected":
            if not is_connected(g) or g.order == 0:
                return False
        elif name == "kd-equal":
            if kappa_g != g.min_degree:
                return False
        elif name == "bipartite":
            if not is_bipartite(g)[0]:
                return False
        elif name == "nonbipartite":
            if is_bipartite(g)[0]:
                return False
        else:
            raise ValueError(f"unknown filter {name!r}; known: {KNOWN_FILTERS}")
    return True


def _verify_instance(g: Graph, n: int, kappa_g: int | None, budget: int | None):
    instance = ReportInstance(encode_graph6(g), n)
    if kappa_g is None:
        return SkipRecord(instance, "empty-factor", "factor graph must be nonempty")
    try:
        return _report(g, n, kappa_g, budget,
                       verdict=is_connected(g) and kappa_g == g.min_degree)
    except BudgetExceededError as exc:
        return SkipRecord(instance, "size-limit", str(exc))


def _batch_worker(item: tuple[str, int, int | None, int | None]):
    g6, n, kappa_g, budget = item
    return _verify_instance(parse_graph6(g6), n, kappa_g, budget)


def batch_verify(corpus: Iterable[Graph], n_values: Sequence[int],
                 filters: Sequence[str] = (), budget: int | None = None,
                 workers: int = 1) -> Iterator[VerificationReport | SkipRecord | BatchSummary]:
    """Verify every (graph, n) pair passing the filters, then yield a summary.

    Records come out in corpus order regardless of ``workers``; per-instance
    budget errors and empty factors become in-stream skip records and never
    abort the batch.  Each factor's connectivity is computed once.
    """
    for n in n_values:
        if n < 3:
            raise ValueError(f"second factor needs n >= 3, got {n}")
    items = []
    for g in corpus:
        kappa_g = vertex_connectivity(g) if g.order else None
        if not _passes_filters(g, kappa_g, filters):
            continue
        for n in n_values:
            items.append((encode_graph6(g), n, kappa_g, budget))
    holds = violations = skips = 0
    if workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for record in pool.map(_batch_worker, items, chunksize=8):
                holds, violations, skips = _tally(record, holds, violations, skips)
                yield record
    else:
        for item in items:
            record = _batch_worker(item)
            holds, violations, skips = _tally(record, holds, violations, skips)
            yield record
    yield BatchSummary(instances=len(items), holds=holds,
                       violations=violations, skips=skips)


def _tally(record, holds: int, violations: int, skips: int) -> tuple[int, int, int]:
    if isinstance(record, SkipRecord):
        return holds, violations, skips + 1
    if record.severity is not None:
        return holds, violations + 1, skips
    return holds + 1, violations, skips


# -- JSON-lines records -----------------------------------------------------------

def report_record(report: VerificationReport, with_timing: bool = False) -> dict:
    """JSON-ready record with the fixed field set.

    ``runtime_ms`` is normalized to 0 unless real timing is requested, so
    that identical runs emit byte-identical lines.
    """
    record = {
        "instance": {"graph6": report.instance.graph6, "n": report.instance.n},
        "kappa_G": report.kappa_G,
        "delta_G": report.delta_G,
        "product_kappa": report.product_kappa,
        "formula_rhs": report.formula_rhs,
        "theorem11_holds": report.theorem11_holds,
        "super_kappa_verdict": report.super_kappa_verdict,
        "min_cut_count": report.min_cut_count,
        "non_isolating_cut": (None if report.non_isolating_cut is None
                              else cut_record(report.non_isolating_cut)),
        "runtime_ms": report.runtime_ms if with_timing else 0,
    }
    if report.severity is not None:
        record["severity"] = report.severity
    return record


def skip_record(skip: SkipRecord) -> dict:
    return {
        "instance": {"graph6": skip.instance.graph6, "n": skip.instance.n},
        "skip": skip.reason,
        "detail": skip.detail,
    }


def summary_record(summary: BatchSummary) -> dict:
    return {
        "instances": summary.instances,
        "holds": summary.holds,
        "violations": summary.violations,
        "skips": summary.skips,
    }


def trial_record(trial: TrialRecord) -> dict:
    return {
        "instance": {"graph6": trial.graph6, "n": trial.n},
        "trial": trial.trial,
        "removed": list(trial.removed),
        "rejections": trial.rejections,
        "isolation_rejections": trial.isolation_rejections,
        "gstar_connected": trial.gstar_connected,
        "split_residues": (None if trial.split_residues is None
                           else list(trial.split_residues)),
        "error": trial.error,
    }
