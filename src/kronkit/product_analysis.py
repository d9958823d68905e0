"""Fiber residues, the auxiliary residue graph, and corpus-scale checkers.

For a factor graph ``g`` and complete second factor on ``n >= 3`` vertices,
a removal candidate ``S`` is measured against three conditions: its size is
``(n-1) * delta(g)``, every fiber keeps at least one survivor, and no
surviving vertex is isolated.  The survivors are carried as one label mask
per fiber, which is all that the auxiliary graph and the split check read.
The auxiliary graph puts one vertex per fiber residue and joins two
residues when at least one product edge survives between them.

The verification entry points compute the product-connectivity formula
``min(n*kappa, (n-1)*delta)`` and the super-connectivity verdict by
exhaustive minimum-cut enumeration, emitting structured records rather than
asserting, so long corpus runs always finish with evidence in hand.
"""

from __future__ import annotations

import ctypes
import functools
import time
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import _native
from .connectivity import (
    CutSet,
    cut_record,
    enumerate_min_cuts,
    vertex_connectivity,
)
from .errors import BudgetExceededError, PreconditionError
from .graphs import (
    Graph,
    encode_graph6,
    iter_bits,
    make_complete,
    parse_graph6,
)
from .products import is_bipartite, kronecker

MAX_REJECTIONS = 100_000


# -- the residue graph ---------------------------------------------------------

def build_gstar(factor: Graph, labels: Sequence[int]) -> Graph:
    """Auxiliary graph of the residues of ``factor x K_n``; every residue
    must be nonempty.

    ``labels[u]`` is the label mask of fiber ``u``'s survivors: bit ``a`` is
    set when ``u * n + a`` survives, so the residue of fiber ``u`` is empty
    exactly when ``labels[u]`` is 0.  Vertex ``i`` stands for the residue of
    fiber ``i``.  In ``g x K_n``, ``(i, a) ~ (j, b)`` exactly when ``i ~ j``
    in ``g`` and ``a != b``, so the residues of adjacent fibers ``i`` and
    ``j`` are joined unless both are the same single label: ``labels[i] ==
    labels[j]`` with one bit set.
    """
    if 0 in labels:
        raise PreconditionError(f"residue of fiber {labels.index(0)} is empty")
    # The fibers left with each single label.
    alone = {}
    for i, x in enumerate(labels):
        if x & (x - 1) == 0:
            alone[x] = alone.get(x, 0) | 1 << i
    return Graph(len(labels), tuple(a & ~alone.get(x, 0)
                                    for a, x in zip(factor.adj, labels)))


# -- sampled structural checks -------------------------------------------------

class TrialRecord(NamedTuple):
    """One sampled removal candidate and what was checked on it.

    A named tuple, so that the thousands a run emits are each built in one
    allocation; like any tuple it is immutable and hashable.  A record of
    :func:`check_gstar_connected` leaves ``split_residues`` None, one of
    :func:`check_residue_components` leaves ``gstar_connected`` None, and
    both verdicts are None on a trial that ran out of draws, whose
    ``error`` says so.
    """

    graph6: str
    n: int
    trial: int
    removed: tuple[int, ...]
    rejections: int
    isolation_rejections: int
    gstar_connected: bool | None
    split_residues: tuple[int, ...] | None
    error: str | None = None


def _check_n(n: int) -> None:
    """Raise ``ValueError`` unless ``n``, the order of the ``K_n`` factor, is
    at least 3 and fits the kernel's C int."""
    if n < 3:
        raise ValueError(f"second factor needs n >= 3, got {n}")
    if n > _native.INT_MAX:
        raise ValueError(f"second factor needs n <= {_native.INT_MAX}, got {n}")


@functools.lru_cache(maxsize=1)
def _draw_trials(g: Graph, n: int, trials: int,
                 seed: int) -> tuple[str, tuple[tuple, ...]]:
    """The graph6 of ``g``, and one ``(removed ids, rejections, isolation
    rejections, G* connected, split fibers)`` per trial of ``g x K_n``: a
    uniform ``(n-1) * delta``-subset meeting the residue and isolation
    conditions, by rejection, with its verdicts.  A trial that ran out of
    draws has more than ``MAX_REJECTIONS`` rejections, no ids and both
    verdicts None.

    Trial ``t`` draws from the PCG64 stream that the kernel seeds with
    ``[seed % 2**64, t]``, so both checkers see the same removals for the
    same arguments; the cache keeps the most recent draw only, which a
    checker run right after another on the same arguments reuses.  Call
    with positional arguments: the cache keys on them as given.  The kernel
    decides the verdicts on the fibers' label masks, which stay in its
    buffer, without building the product.

    The checkers' shared preconditions are checked here, so a reused draw
    does not compute the factor's connectivity again, nor does a factor
    drawn at several ``n`` in a row (:func:`_check_factor`).  The cache
    keeps no exception, so a hit means that these arguments passed.
    """
    _check_n(n)
    _check_factor(g)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    order, size = g.order, (n - 1) * g.min_degree
    if max(trials, order * n) > _native.INT_MAX:
        raise ValueError(f"the residue kernel draws at most {_native.INT_MAX} trials of "
                         f"{_native.INT_MAX} ids, got {trials} of {order * n}")
    graph6, lw, fw = encode_graph6(g), -(-n // 64), -(-order // 64)
    adj = _native.words(g.adj, fw)
    removed, labels, counts, connected, split = (
        (ctypes.c_uint64 * words)() for words in (
            trials * size, trials * order * lw, 2 * trials, trials, trials * fw))
    lib = _native.library()
    if code := (lib.residue_sample(order, adj, n, size, seed % 2**64, trials,
                                   MAX_REJECTIONS, removed, labels, counts)
                or lib.residue_verdicts(order, adj, n, labels, trials, connected, split)):
        error = MemoryError if code == _native.NO_MEMORY else ValueError
        raise error(f"the residue kernel could not draw order {order}, n {n}")
    removed, counts, connected = removed[:], counts[:], connected[:]
    split = _native.masks(split, fw)
    draws = []
    for t in range(trials):
        rejections, isolation_rejections = counts[2 * t:2 * t + 2]
        if rejections <= MAX_REJECTIONS:
            draws.append((tuple(removed[t * size:(t + 1) * size]),
                          rejections, isolation_rejections, connected[t] == 1,
                          tuple(iter_bits(split[t])) if split[t] else ()))
        else:
            draws.append(((), rejections, isolation_rejections, None, None))
    return graph6, tuple(draws)


@functools.lru_cache(maxsize=1)
def _check_factor(g: Graph) -> None:
    """Raise unless ``g`` is connected with kappa equal to delta and positive."""
    kappa = vertex_connectivity(g) if g.order else None
    if not _connected(g, kappa):
        raise PreconditionError("checker needs a connected factor graph")
    if kappa != g.min_degree or kappa == 0:
        raise PreconditionError(
            "checker needs kappa equal to the minimum degree and positive")


def _trial_records(graph6: str, n: int, trials: tuple[tuple, ...],
                   gstar: bool) -> list[TrialRecord]:
    """One record per drawn trial of the factor ``graph6`` at ``n``: its
    removal and one of its verdicts, ``gstar_connected`` when ``gstar`` is
    true, else ``split_residues``."""
    return [TrialRecord(graph6, n, t, removed, rej, iso_rej,
                        connected if gstar else None, None if gstar else split,
                        f"no valid removal candidate after {rej} rejections"
                        if rej > MAX_REJECTIONS else None)
            for t, (removed, rej, iso_rej, connected, split) in enumerate(trials)]


def check_gstar_connected(g: Graph, n: int, trials: int,
                          seed: int) -> list[TrialRecord]:
    """Sample valid removals and test the auxiliary graph for connectedness.

    Any disconnected auxiliary graph is an implementation bug, so records
    carry the full removal set for reproduction.
    """
    graph6, draws = _draw_trials(g, n, trials, seed)
    return _trial_records(graph6, n, draws, gstar=True)


def check_residue_components(g: Graph, n: int, trials: int,
                             seed: int) -> list[TrialRecord]:
    """Sample valid removals and test that no residue straddles components.

    Requires a connected non-bipartite factor with connectivity equal to its
    minimum degree; each record lists the residues (if any) that meet more
    than one component of the surviving product.  The bipartite check runs
    after the draw, so the draw's input checks report first.
    """
    graph6, draws = _draw_trials(g, n, trials, seed)
    if is_bipartite(g)[0]:
        raise PreconditionError("checker needs a non-bipartite factor graph")
    return _trial_records(graph6, n, draws, gstar=False)


# -- verification reports -------------------------------------------------------

class VerificationReport(NamedTuple):
    """Per-instance verification outcome.

    ``super_kappa_verdict``, ``min_cut_count``, and ``non_isolating_cut`` are
    None when only the connectivity formula was checked.  ``severity`` is set
    to ``"contradicts-paper"`` exactly when a computed check failed.  A named
    tuple, so that each of a batch's records is built in one allocation.
    """

    graph6: str
    n: int
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


class SkipRecord(NamedTuple):
    """A skipped instance; ``budget`` is set on ``size-limit`` skips."""

    graph6: str
    n: int
    reason: str
    detail: str
    budget: int | None = None


@dataclass(frozen=True)
class BatchSummary:
    instances: int
    holds: int
    violations: int
    skips: int


def _check_instance(g: Graph, n: int) -> None:
    _check_n(n)
    if g.order == 0:
        raise ValueError("factor graph must be nonempty")


def _report(g: Graph, g6: str, n: int, kappa_g: int, budget: int | None,
            verdict: bool) -> VerificationReport:
    """The report of one instance, given the factor's graph6 ``g6`` and
    connectivity.

    Without ``verdict`` only the formula is checked, by flow on the product.
    With it every minimum cut of the product is enumerated; a disconnected
    product has none and gets a False verdict without a counterexample.
    Whether the product is connected is read off ``kappa_g``, the factor's
    connectivity, without a search: for ``n >= 3``, ``g x K_n`` is
    connected exactly when ``g`` is connected with at least two vertices
    (Weichsel 1962, "The Kronecker product of graphs": the product of two
    connected graphs with an edge each is connected exactly when one of
    them is not bipartite, and ``K_n`` is not), that is exactly when
    ``kappa_g > 0``.
    Either route charges the product's residual searches against
    ``budget`` (None for no limit), and either runs on the ``n`` labels of
    the ``K_n`` factor: the flows and separators run on one pair per orbit
    of the relabellings that fix the pair family's source vertex, whose
    label is 0.  The verdict route hands the kernel the factor, and the
    kernel builds the product itself (``enumerate_min_cuts(g, times=n)``).
    The formula route still builds the product in Python with
    :func:`kronecker` and passes its layout as ``labels=n``: the
    benchmark's tracer times the product layer through this module's
    ``kronecker``, and keeps that name until its bindings move.  Both
    refuse, with :class:`ValueError`, a product whose order does not fit
    the kernel's C int, before anything is built.
    """
    start = time.perf_counter()
    if g.order * n > _native.INT_MAX:
        raise ValueError(f"the flow kernel takes at most {_native.INT_MAX} vertices, "
                         f"got order {g.order * n}")
    delta_g = g.min_degree
    super_kappa = min_cut_count = counterexample = None
    if not verdict:
        product_kappa = vertex_connectivity(kronecker(g, make_complete(n)),
                                            budget=budget, labels=n)
    elif kappa_g == 0:
        product_kappa, super_kappa, min_cut_count = 0, False, 0
    else:
        cuts = enumerate_min_cuts(g, budget=budget, times=n)
        product_kappa = len(cuts[0].vertices)
        min_cut_count = len(cuts)
        counterexample = next((c for c in cuts if not c.isolates), None)
        super_kappa = counterexample is None
    rhs = min(n * kappa_g, (n - 1) * delta_g)
    holds = product_kappa == rhs
    return VerificationReport(
        graph6=g6, n=n,
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


def verify_connectivity_formula(g: Graph, n: int) -> VerificationReport:
    """Check the product-connectivity formula by computing both sides.

    The product side runs the flow-based connectivity on the constructed
    product, with no limit on its residual searches; the formula side
    combines the factor invariants.
    """
    _check_instance(g, n)
    return _report(g, encode_graph6(g), n, vertex_connectivity(g), None,
                   verdict=False)


def predicted_counterexample(g: Graph, n: int) -> bool:
    """Whether ``g x K_n`` is predicted to break the paper's
    super-connectivity claim: exactly when ``n == 3`` and ``g`` is
    ``K_{d,d}``, that is a nonempty bipartite graph of order ``2 * delta``.

    A column of ``K_{d,d} x K_3`` has ``2d`` vertices, as many as kappa =
    ``min(3d, 2d)``, and leaves two copies of ``K_{d,d}``, so no vertex is
    isolated; for ``n >= 4`` removing a column leaves the connected ``G x
    K_{n-1}``.  Every violation that ``batch`` has reported on the corpora
    so far is one of these.
    """
    return n == 3 and g.order == 2 * g.min_degree > 0 and is_bipartite(g)[0]


def verify_super_connectivity(g: Graph, n: int) -> VerificationReport:
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
    return _report(g, encode_graph6(g), n, kappa_g, None, verdict=True)


# -- batch verification ----------------------------------------------------------

def _connected(g: Graph, kappa_g: int | None) -> bool:
    """Whether ``g`` is connected, read off its connectivity ``kappa_g``
    (None for the empty graph): a graph with at least two vertices is
    connected exactly when its connectivity is positive, and the
    one-vertex graph is connected with connectivity 0."""
    return kappa_g is not None and (kappa_g > 0 or g.order == 1)


# Corpus filters: each name's predicate on a factor and its connectivity,
# which is None for the empty factor.
FILTERS = {
    "connected": _connected,
    "kd-equal": lambda g, kappa_g: kappa_g == g.min_degree,
    "bipartite": lambda g, kappa_g: is_bipartite(g)[0],
    "nonbipartite": lambda g, kappa_g: not is_bipartite(g)[0],
}
KNOWN_FILTERS = tuple(FILTERS)


def check_filters(filters: Sequence[str]) -> None:
    """Raise ``ValueError`` naming the first filter outside ``FILTERS``."""
    for name in filters:
        if name not in FILTERS:
            raise ValueError(f"unknown filter {name!r}; known: {KNOWN_FILTERS}")


def _verify_instance(g: Graph, g6: str, n: int, kappa_g: int | None,
                     budget: int | None):
    if kappa_g is None:
        return SkipRecord(g6, n, "empty-factor", "factor graph must be nonempty")
    try:
        return _report(g, g6, n, kappa_g, budget,
                       verdict=_connected(g, kappa_g) and kappa_g == g.min_degree)
    except BudgetExceededError as exc:
        return SkipRecord(g6, n, "size-limit", str(exc), exc.budget)


def _item_records(item: Graph | str | dict, n_values: Sequence[int],
                  filters: Sequence[str], budget: int | None) -> list:
    """The records of one corpus item: a dict as it is, and a factor, given
    as a ``Graph`` or as its graph6, at each of ``n_values``, none when it
    fails one of ``filters``; the factor's connectivity is computed once,
    for the filters and every instance alike."""
    if isinstance(item, dict):
        return [item]
    if isinstance(item, str):  # a pool task's factor
        g, g6 = parse_graph6(item), item
    else:
        g, g6 = item, encode_graph6(item)
    kappa_g = vertex_connectivity(g) if g.order else None
    if not all(FILTERS[name](g, kappa_g) for name in filters):
        return []
    return [_verify_instance(g, g6, n, kappa_g, budget) for n in n_values]


def _task_records(task: Sequence[str | dict], *args) -> list:
    """The :func:`_item_records` of a pool task's items, in order."""
    return [record for item in task for record in _item_records(item, *args)]


# The most corpus items in one pool task.  Tasks grow from one item to this,
# doubling, so that a short corpus still spreads over the workers; a full
# task of order-9 factors takes about 7 ms at one n (2-core Xeon VM).
_TASK_ITEMS = 32


def _pooled_records(corpus: Iterable[Graph | dict], workers: int,
                    args: tuple) -> Iterator:
    """:func:`_task_records` of the corpus, in order, with ``args`` being
    ``(n_values, filters, budget)``.

    About ``2 * workers`` tasks are in flight at once: the corpus is read a
    task at a time, each time a finished task's records have been yielded.
    A first window of fewer than two tasks, at most one item, runs here
    without a pool, and the pool has no more processes than ``workers`` or
    the tasks of its first window.  An exception that the corpus raises is
    raised after the records of the items before it.
    """
    # Only a pooled run loads the pool, with multiprocessing behind it.
    from concurrent.futures import ProcessPoolExecutor

    items = iter(corpus)
    failure = None
    size = 1

    def next_task() -> list[str | dict]:
        nonlocal failure, size
        task = []
        if failure is None:
            try:
                for item in items:
                    task.append(item if isinstance(item, dict) else encode_graph6(item))
                    if len(task) == size:
                        break
            except Exception as exc:  # raised in its place in the stream
                failure = exc
        size = min(2 * size, _TASK_ITEMS)
        return task

    window = []
    while len(window) < 2 * workers and (task := next_task()):
        window.append(task)
    if len(window) < 2:
        for task in window:
            yield from _task_records(task, *args)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(window))) as pool:
            pending = deque(pool.submit(_task_records, task, *args) for task in window)
            while pending:
                # A finished task's records go out before the corpus is read
                # on, which may take long, as the next order's layer does.
                yield from pending.popleft().result()
                if task := next_task():
                    pending.append(pool.submit(_task_records, task, *args))
    if failure is not None:
        raise failure


def batch_verify(corpus: Iterable[Graph | dict], n_values: Sequence[int],
                 filters: Sequence[str] = (), budget: int | None = None,
                 workers: int = 1) -> Iterator[VerificationReport | SkipRecord | BatchSummary]:
    """Verify every (graph, n) pair passing the filters, then yield a summary.

    The corpus is read lazily, one factor at a time, and records stream out
    in corpus order whatever ``workers`` is.  One function,
    :func:`_item_records`, turns each item into its records at any
    ``workers``, computing a factor's connectivity once, for the filters and
    its instances alike; with ``workers`` above 1, pool processes run it on
    tasks of consecutive factors of which about ``2 * workers`` are in flight.
    Per-instance budget errors and empty factors become in-stream skip
    records and never abort the batch.  ``budget`` caps each product's
    residual searches (None for no limit).  A repeated ``n`` counts once,
    where it first appears.  A dict in the corpus, such as the CLI's record
    of a malformed input line, is yielded as it is, in its place, and counts
    toward no total of the summary.
    """
    n_values = list(dict.fromkeys(n_values))
    for n in n_values:
        _check_n(n)
    check_filters(filters)
    args = (n_values, tuple(filters), budget)
    records = (_pooled_records(corpus, workers, args) if workers > 1
               else (record for item in corpus for record in _item_records(item, *args)))
    holds = violations = skips = 0
    for record in records:
        if isinstance(record, VerificationReport):
            if record.severity is None:
                holds += 1
            else:
                violations += 1
        elif isinstance(record, SkipRecord):
            skips += 1
        yield record
    yield BatchSummary(instances=holds + violations + skips, holds=holds,
                       violations=violations, skips=skips)


# -- JSON-lines records -----------------------------------------------------------

def report_record(report: VerificationReport, with_timing: bool = False) -> dict:
    """JSON-ready record with the fixed field set.

    ``runtime_ms`` is normalized to 0 unless real timing is requested, so
    that identical runs emit byte-identical lines.
    """
    record = {
        "instance": {"graph6": report.graph6, "n": report.n},
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
    record = {
        "instance": {"graph6": skip.graph6, "n": skip.n},
        "skip": skip.reason,
        "detail": skip.detail,
    }
    if skip.budget is not None:
        record["budget"] = skip.budget
    return record


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
