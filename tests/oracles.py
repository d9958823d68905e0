"""Definition-level oracles and test-input builders for the kronkit tests.

Each production route in ``src/kronkit`` is checked here against a slow
route that follows the definition:

* :func:`brute_force_connectivity` scans vertex subsets in increasing size
  with a union-find separation test, and :func:`brute_force_min_cuts` scans
  every subset of size kappa; the flows and :func:`enumerate_min_cuts` are
  compared with them.
* :class:`_SplitFlow` is the split-flow network of ``_splitflow.c`` in
  Python, over one integer mask per node: the kernel's flows, residual
  networks, separators, cut lists and charged searches are compared with
  it, at every graph size.
* :func:`classify_cut` classifies an arbitrary vertex set by searching its
  survivors, and reports whether it separates.
* :func:`naive_components` lists the components induced on a vertex set,
  by a search over id sets; :func:`components`, a search over bitmasks by
  ``reachable_mask``, is compared with it, and serves the residue verdicts
  of products too wide for the id-set search.
* :func:`build_residue_system` evaluates a removal against the three removal
  conditions, which the residue sampler reads per fiber instead, and gives
  the per-fiber label masks that :func:`build_gstar` takes.
* :func:`kronecker_by_loops` builds a product edge by edge, and
  :func:`weichsel_connected` decides its connectedness from its factors;
  :func:`are_isomorphic` tests isomorphism exactly.
* :func:`search_corpus` builds the corpora without the kernel's canonical
  key, by a refinement fingerprint and an isomorphism search.

The builders (:func:`graph_from_edges`, :func:`two_cycles`,
:func:`delete_vertex`, :func:`mask_of`) and :func:`validate` make and check test inputs.

Removing all but one vertex counts as separating (the remainder is the
trivial one-vertex graph), as in :mod:`kronkit.connectivity`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from kronkit.connectivity import (
    CutSet,
    _disconnected,
    _even_pairs,
    _over_budget,
    vertex_connectivity,
)
from kronkit.corpus import _child
from kronkit.errors import PreconditionError, UnsupportedSizeError
from kronkit.graphs import (
    Graph,
    is_connected,
    iter_bits,
    make_complete,
    reachable_mask,
)
from kronkit.products import is_bipartite, kronecker

BRUTE_FORCE_MAX_ORDER = 20


# -- graphs -------------------------------------------------------------------

def edges(g: Graph) -> Iterator[tuple[int, int]]:
    """Yield edges as ``(u, v)`` with ``u < v`` in lexicographic order."""
    for u in range(g.order):
        for v in iter_bits(g.adj[u] >> (u + 1) << (u + 1)):
            yield (u, v)


def graph_from_edges(order: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a validated Graph from an edge list."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    adj = [0] * order
    for u, v in edges:
        if not (0 <= u < order and 0 <= v < order):
            raise ValueError(f"edge ({u},{v}) out of range for order {order}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u} is not allowed")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(order, tuple(adj))


def two_cycles(k: int) -> Graph:
    """Two disjoint copies of ``C_k``, on ids ``0..k-1`` and ``k..2k-1``."""
    return graph_from_edges(2 * k, [(c * k + i, c * k + (i + 1) % k)
                                    for c in (0, 1) for i in range(k)])


def mask_of(ids: Iterable[int]) -> int:
    """Bitmask with the bit of every vertex id in ``ids`` set."""
    mask = 0
    for v in ids:
        mask |= 1 << v
    return mask


def validate(g: Graph) -> None:
    """Raise ValueError if ``g`` breaks a structural invariant."""
    if g.order < 0:
        raise ValueError("negative order")
    if len(g.adj) != g.order:
        raise ValueError(f"adjacency has {len(g.adj)} rows for order {g.order}")
    full = g.full_mask()
    for v, mask in enumerate(g.adj):
        if mask & ~full:
            raise ValueError(f"vertex {v} has neighbors >= order")
        if mask >> v & 1:
            raise ValueError(f"self-loop at vertex {v}")
        for u in iter_bits(mask):
            if not g.adj[u] >> v & 1:
                raise ValueError(f"asymmetric edge ({v},{u})")


def delete_vertex(g: Graph, v: int) -> Graph:
    """Remove vertex ``v``; ids above ``v`` shift down by one.

    The relabeling map is deterministic: old vertex ``u`` becomes ``u`` when
    ``u < v`` and ``u - 1`` when ``u > v``.
    """
    if not 0 <= v < g.order:
        raise ValueError(f"vertex {v} out of range for order {g.order}")
    low_mask = (1 << v) - 1
    adj = []
    for u in range(g.order):
        if u == v:
            continue
        m = g.adj[u]
        adj.append((m & low_mask) | (m >> (v + 1) << v))
    return Graph(g.order - 1, tuple(adj))


def has_isolated(adj: Sequence[int], alive: int) -> bool:
    """True when some vertex of ``alive`` has no neighbor inside ``alive``."""
    m = alive
    while m:
        low = m & -m
        if adj[low.bit_length() - 1] & alive == 0:
            return True
        m ^= low
    return False


def components(adj: Sequence[int], alive: int) -> list[int]:
    """Vertex masks of the components induced on ``alive``, by smallest member."""
    comps = []
    rest = alive
    while rest:
        comp = reachable_mask(adj, rest, (rest & -rest).bit_length() - 1)
        comps.append(comp)
        rest &= ~comp
    return comps


def naive_components(g: Graph, alive: set[int]) -> list[frozenset[int]]:
    """The id sets of the components induced on ``alive``, by smallest id."""
    comps = []
    rest = set(alive)
    while rest:
        seen = {min(rest)}
        queue = [min(rest)]
        while queue:
            x = queue.pop()
            for y in iter_bits(g.adj[x]):
                if y in rest and y not in seen:
                    seen.add(y)
                    queue.append(y)
        comps.append(frozenset(seen))
        rest -= seen
    return sorted(comps, key=min)


def refined_colors(g: Graph) -> tuple[int, ...]:
    """Stable vertex colors from iterated neighborhood refinement.

    Colors are isomorphism-invariant: vertices in isomorphic positions get
    the same color.  Seeded with (degree, incident triangle count), then
    hash-chained over sorted neighbor colors until the partition stops
    splitting.  Hash collisions can only coarsen the partition, which the
    exact isomorphism search tolerates.
    """
    n = g.order
    if n == 0:
        return ()
    adj = g.adj
    nbrs = [list(iter_bits(m)) for m in adj]
    colors = []
    for v in range(n):
        mask = adj[v]
        tri = 0
        for u in nbrs[v]:
            tri += (adj[u] & mask).bit_count()
        colors.append(hash((len(nbrs[v]), tri)))
    classes = len(set(colors))
    while classes < n:
        colors = [hash((colors[v], tuple(sorted([colors[u] for u in nbrs[v]]))))
                  for v in range(n)]
        new_classes = len(set(colors))
        if new_classes == classes:
            break
        classes = new_classes
    return tuple(colors)


def _iso_search(g1: Graph, c1: tuple[int, ...],
                g2: Graph, c2: tuple[int, ...]) -> bool:
    """Backtracking isomorphism search guided by precomputed colors."""
    n = g1.order
    if n == 0:
        return True
    adj1, adj2 = g1.adj, g2.adj
    targets: dict[int, list[int]] = defaultdict(list)
    for w in range(n):
        targets[c2[w]].append(w)
    order_v = sorted(range(n), key=lambda v: (len(targets[c1[v]]), v))
    mapping = [-1] * n
    used = [False] * n

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order_v[i]
        av = adj1[v]
        for w in targets[c1[v]]:
            if used[w]:
                continue
            aw = adj2[w]
            ok = True
            for u in order_v[:i]:
                if (av >> u & 1) != (aw >> mapping[u] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if place(i + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return place(0)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test by color-guided backtracking."""
    if g1.order != g2.order or g1.edge_count != g2.edge_count:
        return False
    c1, c2 = refined_colors(g1), refined_colors(g2)
    if sorted(c1) != sorted(c2):
        return False
    return _iso_search(g1, c1, g2, c2)


def _extend_by_search(parents: tuple[Graph, ...], order: int,
                      first_subset: int) -> tuple[Graph, ...]:
    """The children of ``parents`` whose new vertex is adjacent to a
    subset from ``first_subset`` on, one per class in order of first
    appearance, as :func:`kronkit.corpus._extend_layer` keeps them."""
    reps: list[Graph] = []
    buckets: dict[tuple, list[tuple[Graph, tuple[int, ...]]]] = {}
    for parent in parents:
        for subset in range(first_subset, 1 << (order - 1)):
            g = _child(parent, order, subset)
            colors = refined_colors(g)
            fingerprint = (g.order, g.edge_count, tuple(sorted(colors)))
            bucket = buckets.setdefault(fingerprint, [])
            if not any(_iso_search(g, colors, seen, seen_colors)
                       for seen, seen_colors in bucket):
                bucket.append((g, colors))
                reps.append(g)
    return tuple(reps)


def search_corpus(max_order: int, connected: bool) -> list[tuple[Graph, ...]]:
    """Orders 1..max_order of ``connected_graphs`` when ``connected``, else
    of ``all_graphs``, built layer by layer by :func:`_extend_by_search`."""
    layers = [(Graph(1, (0,)),)]
    for order in range(2, max_order + 1):
        layers.append(_extend_by_search(layers[-1], order, 1 if connected else 0))
    return layers


def kronecker_by_loops(g1: Graph, g2: Graph) -> Graph:
    """The Kronecker product built edge by edge: row ``(u, v)`` sets bit
    ``w * |g2| + x`` for each neighbour ``w`` of ``u`` and ``x`` of ``v``.
    The oracle for :func:`kronecker`, which builds each row with one
    multiplication."""
    n2 = g2.order
    adj = []
    for u in range(g1.order):
        for v in range(n2):
            mask = 0
            for w in iter_bits(g1.adj[u]):
                for x in iter_bits(g2.adj[v]):
                    mask |= 1 << (w * n2 + x)
            adj.append(mask)
    return Graph(g1.order * n2, tuple(adj))


def weichsel_connected(g1: Graph, g2: Graph) -> bool:
    """Connectedness of the product of two connected factors.

    The product of connected factors is connected exactly when at least one
    factor is non-bipartite.  Callers must pass connected factors with at
    least one edge each; anything else raises :class:`PreconditionError`.
    """
    for name, g in (("first", g1), ("second", g2)):
        if not is_connected(g):
            raise PreconditionError(f"{name} factor is disconnected")
        if g.edge_count == 0:
            raise PreconditionError(f"{name} factor has no edges")
    return not is_bipartite(g1)[0] or not is_bipartite(g2)[0]


# -- connectivity and minimum cuts --------------------------------------------

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
    edge_list = list(edges(g))
    for size in range(g.order):
        for combo in itertools.combinations(range(g.order), size):
            if _union_find_separates(g.order, edge_list, frozenset(combo)):
                return size
    return g.order - 1  # unreachable: size n-1 always leaves K_1


def brute_force_min_cuts(g: Graph) -> list[CutSet]:
    """Every separating set of size kappa(g), by scanning all subsets of that size.

    The test oracle for :func:`enumerate_min_cuts`: the same preconditions
    and lexicographic order, no budget, guarded to order <= 20.
    """
    if g.order < 2:
        raise PreconditionError("min-cut enumeration needs order >= 2")
    if not is_connected(g):
        raise PreconditionError("min-cut enumeration needs a connected graph")
    if g.order > BRUTE_FORCE_MAX_ORDER:
        raise UnsupportedSizeError(
            f"brute-force scan is guarded to order <= {BRUTE_FORCE_MAX_ORDER}, "
            f"got {g.order}")
    full = g.full_mask()
    cuts = []
    for combo in itertools.combinations(range(g.order), vertex_connectivity(g)):
        removed = mask_of(combo)
        alive = full ^ removed
        if alive & (alive - 1):
            start = (alive & -alive).bit_length() - 1
            if reachable_mask(g.adj, alive, start) == alive:
                continue
        cuts.append(_classify_mask(g, removed, combo)[0])
    return cuts


def _classify_mask(g: Graph, removed: int,
                   vertices: tuple[int, ...]) -> tuple[CutSet, bool]:
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
    return CutSet(vertices, isolates, witness), separates


def classify_cut(g: Graph, s) -> tuple[CutSet, bool]:
    """Classify an arbitrary vertex set of ``g``, and say whether it separates.

    Non-separating sets come back with ``False`` rather than an error.
    """
    vertices = tuple(sorted(set(s)))
    if vertices and not (0 <= vertices[0] and vertices[-1] < g.order):
        raise ValueError(f"cut contains ids outside 0..{g.order - 1}")
    return _classify_mask(g, mask_of(vertices), vertices)


class _SplitFlow:
    """Vertex-split network of a graph, for disjoint paths and minimum cuts.

    Vertex ``v`` becomes ``in = v`` and ``out = order + v`` joined by a
    capacity-1 arc; each edge contributes ``out -> in`` arcs both ways with
    unlimited capacity, so every minimum cut consists of vertex arcs.  A
    residual network is a list of out-neighbour masks, one per node.  Edge
    arcs stay open in every residual network: vertex capacities keep the
    flow on each arc at 0 or 1, so one bit records the reverse arc.

    A flow between non-adjacent ``s`` and ``t`` starts from the paths
    through their common neighbours, which :meth:`max_flow` reads off one
    mask instead of searching for them.

    The network is also the one place that charges work: each residual
    search, that is each breadth-first search for an augmenting path and
    each reachability search over a residual network, costs one unit of
    ``budget``, and the first search past it raises
    :class:`BudgetExceededError`.  Seeding the common-neighbour paths
    searches nothing and is not charged.  ``budget=None`` means no limit.
    """

    __slots__ = ("order", "base_out", "base_in", "budget", "spent")

    def __init__(self, g: Graph, budget: int | None = None):
        n = g.order
        self.order = n
        self.base_out = [1 << (n + v) for v in range(n)] + list(g.adj)
        self.base_in = [m << n for m in g.adj] + [1 << v for v in range(n)]
        self.budget = budget
        self.spent = 0

    def _charge(self) -> None:
        """Count one residual search; raise once the budget is exceeded."""
        self.spent += 1
        if self.budget is not None and self.spent > self.budget:
            raise _over_budget(self.budget)

    def _reach(self, masks: list[int], within: int, start: int) -> int:
        self._charge()
        return reachable_mask(masks, within, start)

    def max_flow(self, s: int, t: int, cutoff: int) -> tuple[int, list[int]]:
        """Internally disjoint s-t paths, counting at most ``cutoff``.

        Returns the count and the residual network it leaves.  ``s`` and
        ``t`` must be non-adjacent, as every pair of Even's family is.  The
        flow starts from the paths ``s - m - t`` through the common
        neighbours ``m``, taken in increasing order up to ``cutoff``: they
        share no inner vertex, so one mask operation gives them all, and
        seeding them is not charged.  Each further path costs one
        breadth-first search, which keeps one node mask per layer and
        traces the path back through the lowest node of each earlier layer
        that has a residual arc to the current one.
        """
        n = self.order
        out = self.base_out.copy()
        src, dst = n + s, t
        flow = 0
        common = self.base_out[src] & self.base_out[n + t]
        while common and flow < cutoff:
            low = common & -common
            m = low.bit_length() - 1
            out[t] |= 1 << (n + m)
            out[n + m] |= low
            out[m] = 1 << src  # its vertex arc is used; s_out -> m can be undone
            common ^= low
            flow += 1
        while flow < cutoff:
            self._charge()
            seen = frontier = 1 << src
            layers = []
            while frontier and not seen >> dst & 1:
                layers.append(frontier)
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= out[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & ~seen
                seen |= frontier
            if not seen >> dst & 1:
                break
            y = dst
            for layer in reversed(layers):
                x = (layer & -layer).bit_length() - 1
                while not out[x] >> y & 1:
                    layer &= layer - 1
                    x = (layer & -layer).bit_length() - 1
                if abs(x - y) == n:  # a vertex arc, used or given back
                    out[x] ^= 1 << y
                    out[y] |= 1 << x
                elif x >= n:  # an edge arc: stays open, can now be undone
                    out[y] |= 1 << x
                else:  # undoes the flow on edge arc y -> x
                    out[x] ^= 1 << y
                y = x
            flow += 1
        return flow, out

    def min_separators(self, s: int, t: int, out: list[int]) -> set[int]:
        """Vertex masks of the minimum s-t separators, given a maximum flow.

        ``out`` is the flow's residual network.  The minimum cuts are the
        node sets closed under residual arcs that hold the source ``s_out``
        and not the sink ``t_in`` (Picard and Queyranne 1980), so they lie
        between the source's reach and the complement of the sink's
        co-reach.  A minimum cut takes one saturated vertex arc from each
        flow path, and the closure fixes every other node of the paths: a
        path vertex before the cut lies inside, one after it outside.  So
        the cuts correspond one to one to the placements of the flow nodes
        (the in- and out-nodes of the vertices the flow passes through) that
        extend to a closed set, and the search branches only on those: the
        lowest undecided flow node either joins with everything it reaches
        or stays out with everything that reaches it.  Neither branch can
        fail, and once no flow node is undecided the inside set is closed,
        so each leaf is a distinct cut and the search visits fewer than two
        states per cut.  A vertex off the flow is never cut: its open
        vertex arc takes its out-node inside along with its in-node.  Empty
        when the source reaches the sink, that is when the flow was cut off
        below its maximum.
        """
        n = self.order
        nodes = (1 << 2 * n) - 1
        inside = self._reach(out, nodes, n + s) | (1 << s)
        if inside >> t & 1:
            return set()
        flow_nodes = 0
        for v in range(n):
            if not out[v] >> (n + v) & 1:
                flow_nodes |= (1 << v) | (1 << (n + v))
        # Only the flow nodes and the sink differ from the base network.
        inn = self.base_in.copy()
        for x in iter_bits(flow_nodes | (1 << t)):
            for y in iter_bits(out[x] ^ self.base_out[x]):
                inn[y] ^= 1 << x
        outside = self._reach(inn, nodes, t) | (1 << (n + t))
        found = set()
        stack = [(inside, outside)]
        while stack:
            inside, outside = stack.pop()
            free = flow_nodes & ~(inside | outside)
            if not free:
                found.add(inside & ~(inside >> n) & ((1 << n) - 1))
                continue
            u = (free & -free).bit_length() - 1
            stack.append((inside | self._reach(out, nodes & ~inside, u), outside))
            stack.append((inside, outside | self._reach(inn, nodes & ~outside, u)))
        return found

    def min_cuts(self, g: Graph, labels: int) -> list[CutSet]:
        """Every minimum cut of ``g``, this network's graph, in
        lexicographic order of its vertex ids.  Raises
        :class:`PreconditionError` for a disconnected ``g``, before any
        charged search.

        Each pair of :func:`_even_pairs` has its flow cut off at the least
        flow found so far, and the separators are read for the pairs whose
        flow equals the final least one, which is kappa.  A flow stopped at
        the cutoff may hide a larger local connectivity;
        :meth:`min_separators` finds no cut for such a pair.  A complete
        graph has no pairs, and its cuts are the ``order`` sets that leave
        one vertex.

        The cuts are then closed under the swaps of labels ``a`` and ``a +
        1`` for ``1 <= a <= labels - 2``, which generate the relabellings
        that fix the family's source: such a relabelling maps the minimum
        cuts of a pair onto those of its image.  A cut's witness is the
        lowest vertex whose neighbourhood equals it, or None.  Closing and
        classifying move bits and search nothing.
        """
        if not is_connected(g):
            raise _disconnected()
        kappa, attaining = self.order - 1, []
        for s, t in _even_pairs(g, labels):
            value, out = self.max_flow(s, t, kappa)
            if value < kappa:
                kappa, attaining = value, []
            attaining.append((s, t, out))
        if attaining:
            masks = set()
            for s, t, out in attaining:
                masks |= self.min_separators(s, t, out)
        else:
            full = g.full_mask()
            masks = {full ^ (1 << v) for v in range(g.order)}
        column = sum(1 << v for v in range(0, g.order, labels))
        swaps = [(column << a, column << (a + 1)) for a in range(1, labels - 1)]
        unclosed = list(masks)
        while unclosed:
            mask = unclosed.pop()
            for low, high in swaps:
                image = (mask & ~(low | high)) | (mask & low) << 1 | (mask & high) >> 1
                if image not in masks:
                    masks.add(image)
                    unclosed.append(image)
        lowest = {}
        for v, nbrs in enumerate(g.adj):
            lowest.setdefault(nbrs, v)
        return [CutSet(vertices, mask in lowest, lowest.get(mask))
                for vertices, mask in sorted((tuple(iter_bits(m)), m) for m in masks)]


# -- residue systems ----------------------------------------------------------

@dataclass(frozen=True)
class ResidueSystem:
    """A removal from ``factor x K_n`` together with the per-fiber survivors.

    ``product`` is ``factor x K_n``, with ids ``u * n + a``.  ``labels[u]``
    is the label mask of fiber ``u``'s survivors: bit ``a`` is set when
    ``u * n + a`` survives, so the residue of fiber ``u`` is empty exactly
    when ``labels[u]`` is 0.
    """

    factor: Graph
    product: Graph
    removed: tuple[int, ...]
    labels: tuple[int, ...]


@dataclass(frozen=True)
class ResidueConditions:
    size_ok: bool
    residues_nonempty: bool
    no_isolated: bool


def build_residue_system(g: Graph, n: int, removed: Iterable[int]
                         ) -> tuple[ResidueSystem, ResidueConditions]:
    """Evaluate a removal candidate against the three removal conditions.

    Failed conditions come back as flags, never as errors.
    """
    if n < 3:
        raise ValueError(f"second factor needs n >= 3, got {n}")
    if not is_connected(g) or g.order == 0:
        raise PreconditionError("residue systems need a connected factor graph")
    product = kronecker(g, make_complete(n))
    mn = product.order
    removed_sorted = tuple(sorted(set(removed)))
    if removed_sorted and not (0 <= removed_sorted[0] and removed_sorted[-1] < mn):
        raise ValueError(f"removed ids must lie in 0..{mn - 1}")
    alive = product.full_mask() ^ mask_of(removed_sorted)
    labels = tuple(alive >> s & (1 << n) - 1 for s in range(0, mn, n))
    conditions = ResidueConditions(
        size_ok=len(removed_sorted) == (n - 1) * g.min_degree,
        residues_nonempty=all(labels),
        no_isolated=not has_isolated(product.adj, alive),
    )
    return ResidueSystem(g, product, removed_sorted, labels), conditions
