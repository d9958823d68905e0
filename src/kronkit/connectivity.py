"""Vertex connectivity, minimum-cut enumeration, and the
super-connectivity decision.

The production routes share one vertex-split flow network per graph and
Even's pair family around a minimum-degree vertex:

* :func:`vertex_connectivity` minimizes the number of internally disjoint
  paths over the pairs.
* :func:`enumerate_min_cuts` reads every minimum separator of each pair
  whose flow equals kappa off the closed sets of its residual network.

Both charge each residual search of the network, the one unit of work,
against an optional budget.  Both take the number of labels of a product
``H x K_labels`` and then solve one pair per orbit of the relabellings that
fix the family's source.

The network runs in C (``_splitflow.c``, built on first use by
:mod:`kronkit._native`) for graphs of at most 64 vertices, and in Python
only for larger graphs, past the kernel's 128-bit node masks.  The two give
the same flows, cuts and searches, which the tests compare.  On
the C network one enumeration is one kernel call, which checks that the
graph is connected, walks the pairs, runs their flows, reads their
separators, closes the cuts under the label swaps, sorts them and writes
each cut's ids and witness, from which Python builds each :class:`CutSet`
once; the Python network returns the same list.
:func:`vertex_connectivity` still makes one kernel call per pair.

Removing all but one vertex counts as separating (the remainder is the
trivial one-vertex graph), so complete graphs get connectivity ``n - 1`` and
their minimum cuts isolate the lone survivor.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from typing import NamedTuple

from . import _native
from .errors import BudgetExceededError, PreconditionError
from .graphs import Graph, is_connected, iter_bits, reachable_mask


class CutSet(NamedTuple):
    """A minimum separating set with its classification.

    ``isolates`` means some surviving vertex has no surviving neighbor;
    ``witness`` is the lowest vertex whose neighborhood the set equals
    exactly, or None when there is none.  A named tuple, so that each cut
    is built in one allocation; like any tuple it is immutable and hashable.
    """

    vertices: tuple[int, ...]
    isolates: bool
    witness: int | None


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

# The native kernel's node masks hold 128 bits: two nodes per vertex.
_NATIVE_MAX_ORDER = 64
# Cut masks the native network's result buffer holds before it must grow.
_NATIVE_CUTS = 64
_INT64_MAX = (1 << 63) - 1
# The kernel's return codes for a failed allocation and a disconnected graph.
_NO_MEMORY = -2
_DISCONNECTED = -3


def _disconnected() -> PreconditionError:
    return PreconditionError("min-cut enumeration needs a connected graph")


def _over_budget(budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"needs more than {budget} residual searches",
                               budget=budget)


def _split_flow(g: Graph, budget: int | None):
    """The split-flow network of ``g``: the C kernel for graphs of at most
    ``_NATIVE_MAX_ORDER`` vertices, otherwise the Python one.  Both give the
    same flows, residual networks, separators and charged searches."""
    if g.order <= _NATIVE_MAX_ORDER:
        return _NativeSplitFlow(g, budget, _native.library())
    return _SplitFlow(g, budget)


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


class _NativeSplitFlow:
    """:class:`_SplitFlow` run by the C kernel ``_splitflow.c``, for graphs
    of at most 64 vertices.

    The network is one word array: a header holding the order, the budget
    and the searches spent, the adjacency, and the base masks that the
    kernel builds from it (the layout is documented in the C file).  A
    residual network is a word array of two words per node, which
    :meth:`min_separators` takes back; :meth:`min_cuts` keeps its residual
    networks inside C.  The kernel charges every search as
    :class:`_SplitFlow` does and stops at the first one past the budget;
    this class then raises :class:`BudgetExceededError`.
    """

    __slots__ = ("budget", "_lib", "_net", "_residual", "_cuts")

    def __init__(self, g: Graph, budget: int | None, lib: ctypes.CDLL):
        n = g.order
        # The kernel reads the budget as a signed 64-bit word.
        limit = _INT64_MAX if budget is None else min(max(budget, -1), _INT64_MAX)
        self.budget = budget
        self._lib = lib
        # Slice assignment fills the array faster than the constructor's
        # arguments do.
        self._net = net = (ctypes.c_uint64 * (3 + 9 * n))()
        net[0] = n
        net[1] = limit % (1 << 64)
        net[3:3 + n] = g.adj
        lib.splitflow_init(net)
        self._residual = ctypes.c_uint64 * (4 * n)
        self._cuts = (ctypes.c_uint64 * _NATIVE_CUTS)()

    @property
    def spent(self) -> int:
        return self._net[2]

    def max_flow(self, s: int, t: int, cutoff: int) -> tuple[int, ctypes.Array]:
        """See :meth:`_SplitFlow.max_flow`."""
        out = self._residual()
        flow = self._lib.splitflow_max_flow(self._net, s, t, cutoff, out)
        if flow < 0:
            raise _over_budget(self.budget)
        return flow, out

    def min_separators(self, s: int, t: int, out: ctypes.Array) -> set[int]:
        """See :meth:`_SplitFlow.min_separators`."""
        spent = self._net[2]
        while True:
            found = self._lib.splitflow_min_separators(
                self._net, s, t, out, self._cuts, len(self._cuts))
            if not self._regrown(found, spent):
                return set(self._cuts[:found])

    def min_cuts(self, g: Graph, labels: int) -> list[CutSet]:
        """See :meth:`_SplitFlow.min_cuts`; one kernel call, which reads the
        graph from the network, checks that it is connected, and writes the
        sorted cut masks, each cut's ids and each cut's witness (-1 for
        none)."""
        n, spent = g.order, self._net[2]
        while True:
            capacity = len(self._cuts)
            ids = (ctypes.c_ubyte * (capacity * n))()
            witness = (ctypes.c_byte * capacity)()
            found = self._lib.splitflow_min_cuts(
                self._net, labels, self._cuts, capacity, ids, witness)
            if found == _DISCONNECTED:
                raise _disconnected()
            if not self._regrown(found, spent):
                break
        size = self._cuts[0].bit_count()  # every minimum cut has kappa ids
        raw = bytes(ids)
        return [CutSet(tuple(raw[i:i + size]), w >= 0, None if w < 0 else w)
                for i, w in zip(range(0, found * size, size), witness[:found])]

    def _regrown(self, found: int, spent: int) -> bool:
        """Whether a kernel search that returned ``found`` must run again.

        A count past the cut buffer grows the buffer to that count, and at
        least to twice its size, and restores ``spent``, the searches spent
        before the first call, so that they are charged once.  The count of
        a closure that filled the buffer holds only the images of the cuts
        it held, so the next call may need a larger buffer still; doubling
        bounds the calls by the logarithm of the cut count.  A negative
        return code raises."""
        if found == _NO_MEMORY:
            raise MemoryError("the native kernel could not allocate its "
                              "residual networks")
        if found < 0:
            raise _over_budget(self.budget)
        if found <= len(self._cuts):
            return False
        self._net[2] = spent
        self._cuts = (ctypes.c_uint64 * max(found, 2 * len(self._cuts)))()
        return True


def _even_pairs(g: Graph, labels: int) -> list[tuple[int, int]]:
    """Even's pair family around a fixed minimum-degree vertex ``s``, one
    pair per orbit of the relabellings that fix ``s``.

    The pairs are ``s`` with each non-neighbour, then each non-adjacent pair
    of neighbours of ``s``.  Every minimum cut of a non-complete graph
    separates one of them: a cut that misses ``s`` separates it from a
    non-neighbour, and one that holds ``s`` separates two of its neighbours,
    because each vertex of a minimum cut has a neighbour in every remaining
    component.  A complete graph has no pairs.

    ``g`` is ``H x K_labels`` with ids ``u * labels + a``; ``labels=1`` is
    any plain graph.  Every permutation of the labels is an automorphism,
    and ``s`` has label 0, since all ids of a fiber ``u`` share a degree,
    so the relabellings of ``1..labels-1`` map the family onto itself (pairs
    normalised as ``(s, t)`` or ``(min, max)``).  The first pair of each
    orbit in family order is the one whose first label is at most 1 and
    whose second exceeds the first by at most 1: ``(s, t)`` with ``t`` of
    label 0 or 1, or two neighbours of label 1, or of labels 1 and 2.
    """
    order = g.order
    degrees = g.degrees()
    s = degrees.index(min(degrees))
    s_mask = g.adj[s]
    family = [(s, t) for t in range(order) if t != s and not s_mask >> t & 1]
    nbrs = list(iter_bits(s_mask))
    for i, x in enumerate(nbrs):
        family.extend((x, y) for y in nbrs[i + 1:] if not g.has_edge(x, y))
    return [(x, y) for x, y in family
            if x % labels <= 1 and y % labels <= x % labels + 1]


def vertex_connectivity(g: Graph, budget: int | None = None,
                        labels: int = 1) -> int:
    """Connectivity of ``g`` via disjoint-path counts.

    0 for disconnected graphs and the one-vertex graph, ``n - 1`` for
    complete graphs.  Otherwise the minimum of the local connectivities over
    Even's pair family, one of which crosses every minimum cut.  The flows'
    searches are charged against ``budget`` (see :class:`_SplitFlow`).

    ``g`` is ``H x K_labels`` with ids ``u * labels + a``, and ``labels=1``
    is any plain graph.  A pair and its relabellings have the same local
    connectivity, so one flow per orbit suffices (see :func:`_even_pairs`).
    """
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    if g.order == 1:
        return 0
    if not is_connected(g):
        return 0
    pairs = _even_pairs(g, labels)
    net = _split_flow(g, budget)
    best = g.order - 1
    for s, t in pairs:
        best = min(best, net.max_flow(s, t, best)[0])
    return best


# -- enumeration --------------------------------------------------------------

def enumerate_min_cuts(g: Graph, budget: int | None = None,
                       labels: int = 1) -> list[CutSet]:
    """Every separating set of size exactly kappa(g), lexicographically.

    One vertex-split network serves every pair of Even's family; for each
    pair whose maximum flow equals kappa, the minimum separators are read
    off the closed sets of the residual network.  Past the flows, each pair
    costs fewer than two reachability searches per cut it separates, so the
    work grows with the pairs and the cuts found rather than with
    ``C(order, kappa)`` or with the components a cut leaves.  The union
    over the pairs is every minimum cut.  A complete graph has the ``order`` sets of
    size ``order - 1``, each leaving one vertex.

    ``g`` is ``H x K_labels`` with ids ``u * labels + a``, and ``labels=1``
    is any plain graph.  The flows and separators run on one pair per orbit
    of the relabellings that fix ``s`` (see :func:`_even_pairs`), and the
    cut masks are closed under the swaps of labels ``a`` and ``a + 1`` for
    ``a >= 1``, which generate those relabellings: a relabelling that fixes
    ``s`` maps the minimum cuts of a pair onto those of its image.

    A minimum cut ``S`` isolates ``v`` only if ``N(v) = S``, since ``N(v)``
    lies in ``S`` and ``|N(v)| >= delta >= kappa = |S|``; so the lowest
    such ``v`` is the cut's witness, and the cut isolates exactly when it
    has one.  Both networks return the finished list of :class:`CutSet`,
    closed, sorted and classified (:meth:`_SplitFlow.min_cuts`); on the C
    network it takes one kernel call.  Closing, sorting and classifying
    search nothing.  Each network also checks that ``g`` is connected
    before its first search and raises :class:`PreconditionError` if not:
    the C kernel by one search of the adjacency masks, the Python network
    by :func:`~kronkit.graphs.is_connected`; neither search is charged.
    So this function checks only the order itself.

    Every search of the flows and of the separator reading is charged
    against ``budget``, one unit each; the first search past it raises
    :class:`BudgetExceededError`.  ``None`` means no limit.
    """
    if g.order < 2:
        raise PreconditionError("min-cut enumeration needs order >= 2")
    return _split_flow(g, budget).min_cuts(g, labels)


def connectivity_result(g: Graph, budget: int | None = None) -> ConnectivityResult:
    """Bundle kappa, delta, the full min-cut list, and the verdict."""
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    delta = g.min_degree
    if g.order == 1 or not is_connected(g):
        return ConnectivityResult(0, delta, delta == 0, (), False)
    cuts = tuple(enumerate_min_cuts(g, budget))
    kappa = len(cuts[0].vertices)
    return ConnectivityResult(
        kappa=kappa,
        delta=delta,
        maximally_connected=kappa == delta,
        min_cuts=cuts,
        super_kappa=all(c.isolates for c in cuts),
    )

