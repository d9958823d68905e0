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
:mod:`kronkit._native`) at every order, with vertex masks of ``ceil(n /
64)`` words and node masks of ``ceil(2n / 64)`` words; every graph of at
most 64 vertices takes a copy of the kernel compiled for two-word node
masks.  The tests compare it with a Python network kept as their oracle,
which gives the same flows, cuts and searches.  One enumeration is one
kernel call, which checks that the graph is connected, walks the pairs,
runs their flows, reads their separators, closes the cuts under the label
swaps, sorts them and writes each cut's ids and witness, from which Python
builds each :class:`CutSet` once.  :func:`vertex_connectivity` still makes
one kernel call per pair.

Removing all but one vertex counts as separating (the remainder is the
trivial one-vertex graph), so complete graphs get connectivity ``n - 1`` and
their minimum cuts isolate the lone survivor.
"""

from __future__ import annotations

import ctypes
import struct
from dataclasses import dataclass
from typing import NamedTuple

from . import _native
from .errors import BudgetExceededError, PreconditionError
from .graphs import Graph, is_connected, iter_bits


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

# Cut masks the network's result buffer holds before it must grow.
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


class _NativeSplitFlow:
    """Vertex-split network of a graph, for disjoint paths and minimum cuts,
    run by the C kernel ``_splitflow.c``.

    Vertex ``v`` becomes ``in = v`` and ``out = order + v`` joined by a
    capacity-1 arc; each edge contributes ``out -> in`` arcs both ways with
    unlimited capacity, so every minimum cut consists of vertex arcs.  The
    network is one word array: a header holding the order, the budget and
    the searches spent, the adjacency, and the base masks that the kernel
    builds from it (the layout is documented in the C file).  A vertex mask
    takes ``ceil(order / 64)`` words and a node mask ``ceil(2 order / 64)``
    words, or two up to 64 vertices.  A residual network is a word array of
    one node mask per node, which :meth:`min_separators` takes back;
    :meth:`min_cuts` keeps its residual networks inside C.

    The network is also the one place that charges work: each residual
    search, that is each breadth-first search for an augmenting path and
    each reachability search over a residual network, costs one unit of
    ``budget``, and the kernel stops at the first search past it, upon which
    this class raises :class:`BudgetExceededError`.  Seeding the
    common-neighbour paths searches nothing and is not charged.
    ``budget=None`` means no limit.  The tests keep a Python network with
    the same flows, residual networks, separators and searches as their
    oracle.
    """

    __slots__ = ("budget", "_lib", "_net", "_vertex_words", "_residual")

    def __init__(self, g: Graph, budget: int | None = None):
        n = g.order
        vw = -(-n // 64)
        nw = 2 if n <= 64 else -(-n // 32)  # the kernel's node_words
        # The kernel reads the budget as a signed 64-bit word.
        limit = _INT64_MAX if budget is None else min(max(budget, -1), _INT64_MAX)
        self.budget = budget
        self._lib = lib = _native.library()
        # Slice assignment fills the array faster than the constructor's
        # arguments do.
        self._net = net = (ctypes.c_uint64 * (3 + n * vw + 4 * n * nw))()
        net[0] = n
        net[1] = limit % (1 << 64)
        net[3:3 + n * vw] = g.adj if vw == 1 else _native.words(g.adj, vw)
        lib.splitflow_init(net)
        self._vertex_words = vw
        self._residual = ctypes.c_uint64 * (2 * n * nw)

    @property
    def spent(self) -> int:
        return self._net[2]

    def max_flow(self, s: int, t: int, cutoff: int) -> tuple[int, ctypes.Array]:
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
        out = self._residual()
        flow = self._lib.splitflow_max_flow(self._net, s, t, cutoff, out)
        if flow < 0:
            self._raise(flow)
        return flow, out

    def min_separators(self, s: int, t: int, out: ctypes.Array) -> set[int]:
        """Vertex masks of the minimum s-t separators, given a maximum flow
        and its residual network ``out``.

        The minimum cuts are the node sets closed under residual arcs that
        hold the source ``s_out`` and not the sink ``t_in`` (Picard and
        Queyranne 1980).  The search branches only on the flow nodes, the
        in- and out-nodes of the vertices the flow passes through: the
        lowest undecided one either joins with everything it reaches or
        stays out with everything that reaches it.  Neither branch can fail,
        so each leaf is a distinct cut and the search visits fewer than two
        states per cut.  Empty when the source reaches the sink, that is
        when the flow was cut off below its maximum.
        """
        spent, capacity = self._net[2], _NATIVE_CUTS
        while capacity:
            cuts = (ctypes.c_uint64 * (capacity * self._vertex_words))()
            found = self._lib.splitflow_min_separators(
                self._net, s, t, out, cuts, capacity)
            capacity = self._regrown(found, capacity, spent)
        return set(_native.masks(cuts, self._vertex_words)[:found])

    def min_cuts(self, g: Graph, labels: int) -> list[CutSet]:
        """Every minimum cut of ``g``, this network's graph, in
        lexicographic order of its vertex ids, in one kernel call.  Raises
        :class:`PreconditionError` for a disconnected ``g``, before any
        charged search.

        Each pair of :func:`_even_pairs` has its flow cut off at the least
        flow found so far, and the separators are read for the pairs whose
        flow equals the final least one, which is kappa.  A complete graph
        has no pairs, and its cuts are the ``order`` sets that leave one
        vertex.  The cuts are then closed under the swaps of labels ``a``
        and ``a + 1`` for ``1 <= a <= labels - 2``, which generate the
        relabellings that fix the family's source.  The kernel writes the
        sorted cut masks, each cut's ids and each cut's witness, the lowest
        vertex whose neighbourhood equals it (-1 for none).
        """
        n, vw, spent, capacity = g.order, self._vertex_words, self._net[2], _NATIVE_CUTS
        while capacity:
            cuts = (ctypes.c_uint64 * (capacity * vw))()
            ids = (ctypes.c_int * (capacity * n))()
            witness = (ctypes.c_int * capacity)()
            found = self._lib.splitflow_min_cuts(
                self._net, labels, cuts, capacity, ids, witness)
            capacity = self._regrown(found, capacity, spent)
        # Every minimum cut has kappa ids; one word holds a cut up to 64
        # vertices, read apart because summing the words costs more.
        size = (cuts[0].bit_count() if vw == 1
                else sum(map(int.bit_count, cuts[:vw])))
        vertices = struct.iter_unpack(  # one tuple of ids per cut
            f"{size}i", memoryview(ids).cast("B")[:found * size * ctypes.sizeof(ctypes.c_int)])
        return [CutSet(cut, w >= 0, None if w < 0 else w)
                for cut, w in zip(vertices, witness[:found])]

    def _raise(self, code: int) -> None:
        """Raise for ``code``, a kernel return code that reports an error."""
        if code == _NO_MEMORY:
            raise MemoryError("the native kernel could not allocate its "
                              "residual networks")
        if code == _DISCONNECTED:
            raise _disconnected()
        if code < 0:
            raise _over_budget(self.budget)

    def _regrown(self, found: int, capacity: int, spent: int) -> int:
        """The capacity, in cuts, of the buffer with which a kernel search
        that returned ``found`` into a buffer of ``capacity`` cuts must run
        again, or 0 when it is done.

        A count past the buffer asks for a buffer of that count, and at
        least of twice the size, and restores ``spent``, the searches spent
        before the first call, so that they are charged once.  The count of
        a closure that filled the buffer holds only the images of the cuts
        it held, so the next call may need a larger buffer still; doubling
        bounds the calls by the logarithm of the cut count.  A negative
        return code raises."""
        if found < 0:
            self._raise(found)
        if found <= capacity:
            return 0
        self._net[2] = spent
        return max(found, 2 * capacity)


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
    searches are charged against ``budget`` (see :class:`_NativeSplitFlow`).

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
    net = _NativeSplitFlow(g, budget)
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
    has one.  The network returns the finished list of :class:`CutSet`,
    closed, sorted and classified (:meth:`_NativeSplitFlow.min_cuts`), in
    one kernel call.  Closing, sorting and classifying search nothing.  The
    kernel also checks that ``g`` is connected before its first search, by
    one search of the adjacency masks that is not charged, and the network
    raises :class:`PreconditionError` if not.  So this function checks only
    the order itself.

    Every search of the flows and of the separator reading is charged
    against ``budget``, one unit each; the first search past it raises
    :class:`BudgetExceededError`.  ``None`` means no limit.
    """
    if g.order < 2:
        raise PreconditionError("min-cut enumeration needs order >= 2")
    return _NativeSplitFlow(g, budget).min_cuts(g, labels)


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

