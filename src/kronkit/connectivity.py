"""Vertex connectivity, exhaustive minimum-cut enumeration, and the
super-connectivity decision.

Two independent routes are kept deliberately separate:

* :func:`vertex_connectivity` counts internally disjoint paths with a
  unit-capacity max-flow on the split digraph, minimized over the classical
  pair family around a minimum-degree vertex.
* :func:`brute_force_connectivity` scans vertex subsets in increasing size
  with a union-find separation test; it is the definition-level oracle.

Removing all but one vertex counts as separating (the remainder is the
trivial one-vertex graph), so complete graphs get connectivity ``n - 1`` and
their minimum cuts isolate the lone survivor.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

from .errors import BudgetExceededError, PreconditionError, UnsupportedSizeError
from .graphs import (
    Graph,
    delete_vertex,
    has_isolated,
    is_connected,
    iter_bits,
    mask_of,
    reachable_mask,
)
from .products import ProductGraph

DEFAULT_SUBSET_BUDGET = 50_000_000
BRUTE_FORCE_MAX_ORDER = 20


@dataclass(frozen=True)
class CutSet:
    """A vertex set with its separation classification.

    ``isolates`` means some surviving vertex has no surviving neighbor;
    ``is_neighborhood`` means the set equals ``N(witness)`` exactly.
    ``contains_fiber`` is the smallest index of a product fiber wholly inside
    the set, when a product context was supplied.
    """

    vertices: tuple[int, ...]
    separates: bool
    isolates: bool
    is_neighborhood: bool
    witness: int | None
    contains_fiber: int | None = None


@dataclass(frozen=True)
class ConnectivityResult:
    kappa: int
    delta: int
    maximally_connected: bool
    min_cuts: tuple[CutSet, ...]
    super_kappa: bool


def cut_record(cut: CutSet) -> dict:
    """JSON-ready record with the fixed cut-list schema."""
    return {
        "cut": list(cut.vertices),
        "isolates": cut.isolates,
        "neighborhood_of": cut.witness,
    }


# -- flow route ---------------------------------------------------------------

class _SplitFlow:
    """Unit-capacity vertex-split network for internally disjoint path counts.

    Vertex ``v`` becomes ``in = 2v`` and ``out = 2v + 1`` joined by a
    capacity-1 arc; each edge contributes ``out -> in`` arcs both ways.
    """

    __slots__ = ("size", "arc_to", "arc_cap", "head")

    def __init__(self, g: Graph):
        n = g.order
        self.size = 2 * n
        arc_to: list[int] = []
        arc_cap: list[int] = []
        head: list[list[int]] = [[] for _ in range(2 * n)]

        def add(a: int, b: int) -> None:
            head[a].append(len(arc_to))
            arc_to.append(b)
            arc_cap.append(1)
            head[b].append(len(arc_to))
            arc_to.append(a)
            arc_cap.append(0)

        for v in range(n):
            add(2 * v, 2 * v + 1)
        for u, v in g.edges():
            add(2 * u + 1, 2 * v)
            add(2 * v + 1, 2 * u)
        self.arc_to = arc_to
        self.arc_cap = arc_cap
        self.head = head

    def max_disjoint_paths(self, s: int, t: int, cutoff: int) -> int:
        """Internally disjoint s-t paths, counting at most ``cutoff``."""
        cap = self.arc_cap.copy()
        head, to = self.head, self.arc_to
        src, dst = 2 * s + 1, 2 * t
        flow = 0
        while flow < cutoff:
            prev_arc = [-1] * self.size
            prev_arc[src] = -2
            queue = deque([src])
            found = False
            while queue:
                x = queue.popleft()
                if x == dst:
                    found = True
                    break
                for a in head[x]:
                    y = to[a]
                    if cap[a] and prev_arc[y] == -1:
                        prev_arc[y] = a
                        queue.append(y)
            if not found:
                break
            x = dst
            while x != src:
                a = prev_arc[x]
                cap[a] -= 1
                cap[a ^ 1] += 1
                x = to[a ^ 1]
            flow += 1
        return flow


def vertex_connectivity(g: Graph) -> int:
    """Connectivity of ``g`` via disjoint-path counts.

    0 for disconnected graphs and the one-vertex graph, ``n - 1`` for
    complete graphs.  Otherwise the minimum runs over all non-neighbors of a
    fixed minimum-degree vertex ``s`` and over all non-adjacent pairs of
    neighbors of ``s``; one of these pairs crosses every minimum cut.
    """
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    if g.order == 1:
        return 0
    if not is_connected(g):
        return 0
    n = g.order
    if all(m.bit_count() == n - 1 for m in g.adj):
        return n - 1
    s = min(range(n), key=lambda v: (g.degree(v), v))
    flow = _SplitFlow(g)
    best = n - 1
    s_mask = g.adj[s]
    for t in range(n):
        if t != s and not s_mask >> t & 1:
            best = min(best, flow.max_disjoint_paths(s, t, best))
    nbrs = list(iter_bits(s_mask))
    for i, x in enumerate(nbrs):
        for y in nbrs[i + 1:]:
            if not g.has_edge(x, y):
                best = min(best, flow.max_disjoint_paths(x, y, best))
    return best


# -- brute-force oracle -------------------------------------------------------

def _union_find_separates(order: int, edge_list: list[tuple[int, int]],
                          removed: frozenset[int] | set[int]) -> bool:
    """Definition-level separation test: survivors form >1 component or K_1."""
    alive = [v for v in range(order) if v not in removed]
    if len(alive) <= 1:
        return len(alive) == 1
    parent = list(range(order))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = len(alive)
    for u, v in edge_list:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components > 1


def brute_force_connectivity(g: Graph) -> int:
    """Smallest separating-set size by exhaustive subset scan.

    Scans sizes 0, 1, 2, ... and returns at the first separating subset, so
    it never relies on the flow machinery.  Guarded to order <= 20.
    """
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    if g.order > BRUTE_FORCE_MAX_ORDER:
        raise UnsupportedSizeError(
            f"brute-force scan is guarded to order <= {BRUTE_FORCE_MAX_ORDER}, "
            f"got {g.order}")
    if g.order == 1:
        return 0
    edge_list = list(g.edges())
    for size in range(g.order):
        for combo in itertools.combinations(range(g.order), size):
            if _union_find_separates(g.order, edge_list, frozenset(combo)):
                return size
    return g.order - 1  # unreachable: size n-1 always leaves K_1


# -- cut classification and enumeration ---------------------------------------

def _classify_mask(g: Graph, removed: int, vertices: tuple[int, ...],
                   product: ProductGraph | None = None) -> CutSet:
    full = g.full_mask()
    alive = full & ~removed
    if alive == 0:
        separates = False
    elif alive & (alive - 1) == 0:
        separates = True  # lone survivor: the trivial one-vertex graph
    else:
        start = (alive & -alive).bit_length() - 1
        separates = reachable_mask(g.adj, alive, start) != alive
    isolates = has_isolated(g.adj, alive)
    witness = None
    if removed:
        for x in range(g.order):
            if g.adj[x] == removed:
                witness = x
                break
    contains_fiber = None
    if product is not None:
        for u in range(product.factor1_order):
            if product.fiber_mask(u) & ~removed == 0:
                contains_fiber = u
                break
    return CutSet(vertices, separates, isolates, witness is not None, witness,
                  contains_fiber)


def classify_cut(g: Graph, s, product: ProductGraph | None = None) -> CutSet:
    """Classify an arbitrary vertex set of ``g``.

    Non-separating sets come back with ``separates=False`` rather than an
    error.  Pass the product the graph was built from to get fiber
    containment as well.
    """
    vertices = tuple(sorted(set(s)))
    if vertices and not (0 <= vertices[0] and vertices[-1] < g.order):
        raise ValueError(f"cut contains ids outside 0..{g.order - 1}")
    return _classify_mask(g, mask_of(vertices), vertices, product)


def enumerate_min_cuts(g: Graph, budget: int | None = None,
                       product: ProductGraph | None = None) -> list[CutSet]:
    """Every separating set of size exactly kappa(g), lexicographically.

    The scan visits all ``C(order, kappa)`` subsets; when that count exceeds
    the budget (default ``DEFAULT_SUBSET_BUDGET``) a
    :class:`BudgetExceededError` reports the required count instead.
    """
    if g.order < 2:
        raise PreconditionError("min-cut enumeration needs order >= 2")
    if not is_connected(g):
        raise PreconditionError("min-cut enumeration needs a connected graph")
    kappa = vertex_connectivity(g)
    limit = DEFAULT_SUBSET_BUDGET if budget is None else budget
    required = math.comb(g.order, kappa)
    if required > limit:
        raise BudgetExceededError(
            f"enumerating C({g.order},{kappa}) = {required} subsets exceeds "
            f"budget {limit}", required=required)
    adj = g.adj
    full = g.full_mask()
    cuts = []
    for combo in itertools.combinations(range(g.order), kappa):
        removed = mask_of(combo)
        alive = full ^ removed
        if alive & (alive - 1):
            start = (alive & -alive).bit_length() - 1
            if reachable_mask(adj, alive, start) == alive:
                continue
        cuts.append(_classify_mask(g, removed, combo, product))
    return cuts


def is_super_kappa(g: Graph, budget: int | None = None) -> bool:
    """True when every minimum separating set isolates a vertex.

    Disconnected graphs report False (their connectivity is 0 and the
    property is about minimum separating sets of connected graphs).
    """
    if g.order == 0:
        raise ValueError("super-connectivity is undefined for the empty graph")
    if not is_connected(g):
        return False
    return all(c.isolates for c in enumerate_min_cuts(g, budget))


def connectivity_result(g: Graph, budget: int | None = None) -> ConnectivityResult:
    """Bundle kappa, delta, the full min-cut list, and the verdict."""
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    delta = g.min_degree
    if g.order == 1 or not is_connected(g):
        return ConnectivityResult(0, delta, delta == 0, (), False)
    cuts = tuple(enumerate_min_cuts(g, budget))
    kappa = len(cuts[0].vertices) if cuts else g.order - 1
    return ConnectivityResult(
        kappa=kappa,
        delta=delta,
        maximally_connected=kappa == delta,
        min_cuts=cuts,
        super_kappa=all(c.isolates for c in cuts),
    )


def kappa_of_deletion_check(g: Graph) -> bool:
    """Single-vertex deletions lower connectivity by at most one.

    Always true for simple graphs; a False here signals an implementation
    bug, so the checker exists as a cross-validation hook.
    """
    if g.order < 2:
        raise PreconditionError("deletion check needs order >= 2")
    kappa = vertex_connectivity(g)
    for v in range(g.order):
        if vertex_connectivity(delete_vertex(g, v)) < kappa - 1:
            return False
    return True
