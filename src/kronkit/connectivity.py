"""Vertex connectivity, minimum-cut enumeration, and the
super-connectivity decision.

The production routes share one vertex-split flow network per graph and
Even's pair family around a minimum-degree vertex:

* :func:`vertex_connectivity` minimizes the number of internally disjoint
  paths over the pairs.
* :func:`enumerate_min_cuts` reads every minimum separator of each pair
  whose flow equals kappa off the closed sets of its residual network.

Both charge each residual search of the network, the one unit of work,
against an optional budget, and both solve one pair per orbit of the
relabellings of a product ``H x K_n`` that fix the family's source.
:func:`enumerate_min_cuts` takes the factor ``H`` and ``times=n``, and the
kernel builds the product in the network's own words, with ids ``u * n +
a``, so the labels are its own; :func:`vertex_connectivity` takes a built
product and its promise ``labels=n`` of that layout, since the formula route
still builds its product with :func:`kronkit.products.kronecker`, the
product layer that the benchmark times.

The network runs in C (``_splitflow.c``, built on first use by
:mod:`kronkit._native`) at every order, with vertex masks of ``ceil(n /
64)`` words and node masks of ``ceil(2n / 64)`` words; every graph of at
most 64 vertices takes a copy of the kernel compiled for two-word node
masks.  The tests compare it with a Python network kept as their oracle,
which gives the same flows, cuts and searches.  Past building the
network, one enumeration is one kernel call, which checks that the graph is
connected, walks the pairs, runs their flows, reads their separators, closes
the cuts under the label swaps, sorts them and writes each cut's ids and
witness, from which Python builds each :class:`CutSet` once.
:func:`vertex_connectivity` takes the pairs from the kernel, after the same
check, and makes one call per pair.

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
from .graphs import Graph


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

_INT64_MAX = (1 << 63) - 1
# The kernel's return code for a disconnected graph.
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
    words, or two up to 64 vertices.  With ``times``, the network is of
    ``g x K_times``, whose order and adjacency the kernel writes from
    ``g``'s (``splitflow_product``).  No residual network leaves the
    kernel: :meth:`max_flow` returns only the flow, and :meth:`min_cuts`
    reads the cuts off the residual networks inside C.

    The network is also the one place that charges work: each residual
    search, that is each breadth-first search for an augmenting path and
    each reachability search over a residual network, costs one unit of
    ``budget``, and the kernel stops at the first search past it, upon which
    this class raises :class:`BudgetExceededError`.  Seeding the
    common-neighbour paths searches nothing and is not charged.
    ``budget=None`` means no limit.  The tests keep a Python network with
    the same flows, cut lists and searches as their oracle.
    """

    __slots__ = ("budget", "_lib", "_net")

    def __init__(self, g: Graph, budget: int | None = None, times: int | None = None):
        n = g.order if times is None else g.order * times
        if n > _native.INT_MAX:  # the kernel reads the order as a C int
            raise ValueError(f"the flow kernel takes at most {_native.INT_MAX} vertices, "
                             f"got order {n}")
        vw = -(-n // 64)
        nw = 2 if n <= 64 else -(-n // 32)  # the kernel's node_words
        # The kernel reads the budget as a signed 64-bit word.
        limit = _INT64_MAX if budget is None else min(max(budget, -1), _INT64_MAX)
        self.budget = budget
        self._lib = lib = _native.library()
        self._net = net = (ctypes.c_uint64 * (3 + n * vw + 4 * n * nw))()
        net[1] = limit % (1 << 64)
        if times is None:
            net[0] = n
            # Slice assignment fills the array faster than the constructor's
            # arguments do.
            net[3:3 + n * vw] = g.adj if vw == 1 else _native.words(g.adj, vw)
            lib.splitflow_init(net)
        else:  # the kernel writes the order and the product's adjacency
            lib.splitflow_product(net, g.order, _native.words(g.adj, -(-g.order // 64)),
                                  times)

    @property
    def spent(self) -> int:
        return self._net[2]

    def max_flow(self, s: int, t: int, cutoff: int) -> int:
        """Internally disjoint s-t paths, counting at most ``cutoff``.

        Returns only the count: the kernel keeps the residual network in a
        buffer of its own and frees it.  ``s`` and ``t`` must be
        non-adjacent, as every pair of Even's family is.  The flow starts
        from the paths ``s - m - t`` through the common neighbours ``m``,
        taken in increasing order up to ``cutoff``: they share no inner
        vertex, so one mask operation gives them all, and seeding them is
        not charged.  Each further path costs one breadth-first search,
        which keeps one node mask per layer and traces the path back through
        the lowest node of each earlier layer that has a residual arc to the
        current one.
        """
        flow = self._lib.splitflow_max_flow(self._net, s, t, cutoff)
        if flow < 0:  # checked inline: vertex_connectivity runs many flows
            self._checked(flow)
        return flow

    def even_pairs(self, labels: int) -> list[tuple[int, int]]:
        """Even's pair family, in one kernel call that charges no search;
        :class:`PreconditionError` for a disconnected graph.  The pairs are a
        minimum-degree vertex ``s`` with each non-neighbour, then each
        non-adjacent pair of neighbours of ``s``, one of which every minimum
        cut separates, and only the first of each orbit of the relabellings
        that fix ``s`` (the tests' oracle ``_even_pairs`` says why).
        """
        block = ctypes.POINTER(ctypes.c_int)()
        count = self._checked(self._lib.splitflow_pairs(
            self._net, labels, ctypes.byref(block)))
        try:
            ints = block[:2 * count]
        finally:
            self._lib.splitflow_free(block)
        return list(zip(ints[:count], ints[count:]))

    def min_cuts(self, labels: int) -> list[CutSet]:
        """Every minimum cut of this network's graph, in lexicographic order
        of its vertex ids, in one kernel call; :class:`PreconditionError`
        for a disconnected graph, before any charged search.

        The kernel cuts the flow of each pair of :meth:`even_pairs` off at
        the least flow found so far, reads the separators of the pairs whose
        flow is the final least one, kappa, closes the cuts under the label
        swaps and sorts them; a complete graph has no pairs, and its cuts
        leave one vertex each.  It hands over one block: kappa, the ids of
        each cut, then each cut's witness, the lowest vertex whose
        neighbourhood equals it (-1 for none).
        """
        block = ctypes.POINTER(ctypes.c_int)()
        found = self._checked(self._lib.splitflow_min_cuts(
            self._net, labels, ctypes.byref(block)))
        try:
            size = block[0]
            ints = memoryview(ctypes.string_at(
                block, ctypes.sizeof(ctypes.c_int) * (1 + found * (size + 1)))).cast("i")
        finally:
            self._lib.splitflow_free(block)
        ids = 1 + found * size
        vertices = struct.iter_unpack(f"{size}i", ints[1:ids])  # a tuple per cut
        return [CutSet(cut, w >= 0, None if w < 0 else w)
                for cut, w in zip(vertices, ints[ids:])]

    def _checked(self, code: int) -> int:
        """``code``, a kernel return code, unless it reports an error, for
        which this raises."""
        if code == _native.NO_MEMORY:
            raise MemoryError("the native kernel could not allocate a buffer")
        if code == _DISCONNECTED:
            raise _disconnected()
        if code < 0:
            raise _over_budget(self.budget)
        return code


def vertex_connectivity(g: Graph, budget: int | None = None,
                        labels: int = 1) -> int:
    """Connectivity of ``g`` via disjoint-path counts.

    0 for disconnected graphs and the one-vertex graph, ``n - 1`` for
    complete graphs.  Otherwise the minimum of the local connectivities over
    Even's pair family, one of which crosses every minimum cut.  The flows'
    searches are charged against ``budget`` (see :class:`_NativeSplitFlow`).

    ``g`` is ``H x K_labels`` with ids ``u * labels + a``, and ``labels=1``
    is any plain graph.  A pair and its relabellings have the same local
    connectivity, so one flow per orbit suffices (see
    :meth:`_NativeSplitFlow.even_pairs`, which also checks connectedness).
    """
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    net = _NativeSplitFlow(g, budget)
    try:
        pairs = net.even_pairs(labels)
    except PreconditionError:  # disconnected
        return 0
    best = g.order - 1
    for s, t in pairs:
        best = min(best, net.max_flow(s, t, best))
    return best


# -- enumeration --------------------------------------------------------------

def enumerate_min_cuts(g: Graph, budget: int | None = None,
                       times: int | None = None) -> list[CutSet]:
    """Every separating set of size exactly kappa(g), or of kappa(g x
    K_times) when ``times`` is given, lexicographically.

    One vertex-split network serves every pair of Even's family; for each
    pair whose maximum flow equals kappa, the minimum separators are read
    off the closed sets of the residual network.  Past the flows, each pair
    costs fewer than two reachability searches per cut it separates, so the
    work grows with the pairs and the cuts found rather than with
    ``C(order, kappa)`` or with the components a cut leaves.  The union
    over the pairs is every minimum cut.  A complete graph has the ``order`` sets of
    size ``order - 1``, each leaving one vertex.

    With ``times``, ``g`` is the factor and the kernel builds the product
    ``g x K_times`` in the network itself, with ids ``u * times + a``, so
    the product never becomes a Python :class:`Graph`.  Its ids carry the
    labels ``a``, and the flows and separators run on one pair per orbit of
    the relabellings that fix ``s`` (:meth:`_NativeSplitFlow.even_pairs`),
    and the cut masks are closed under the swaps of labels ``a`` and ``a +
    1`` for ``a >= 1``, which generate those relabellings: a relabelling
    that fixes ``s`` maps the minimum cuts of a pair onto those of its image.
    ``times=None`` enumerates ``g`` itself, with no labels.  The product's
    order must fit a C int, else :class:`ValueError`.

    A minimum cut ``S`` isolates ``v`` only if ``N(v) = S``, since ``N(v)``
    lies in ``S`` and ``|N(v)| >= delta >= kappa = |S|``; so the lowest
    such ``v`` is the cut's witness, and the cut isolates exactly when it
    has one.  The network returns the finished list of :class:`CutSet`,
    closed, sorted and classified (:meth:`_NativeSplitFlow.min_cuts`), in
    one kernel call, which refuses a disconnected graph or product before
    its first search.  Closing, sorting and classifying search nothing.

    Every search of the flows and of the separator reading is charged
    against ``budget``, one unit each; the first search past it raises
    :class:`BudgetExceededError`.  ``None`` means no limit.
    """
    if times is not None and times < 1:
        raise ValueError(f"the complete factor needs times >= 1, got {times}")
    if g.order * (times or 1) < 2:
        raise PreconditionError("min-cut enumeration needs order >= 2")
    return _NativeSplitFlow(g, budget, times).min_cuts(times or 1)


def connectivity_result(g: Graph, budget: int | None = None) -> ConnectivityResult:
    """Bundle kappa, delta, the full min-cut list, and the verdict."""
    if g.order == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    delta = g.min_degree
    try:
        cuts = tuple(enumerate_min_cuts(g, budget))
    except PreconditionError:  # one vertex, or disconnected
        return ConnectivityResult(0, delta, delta == 0, (), False)
    kappa = len(cuts[0].vertices)
    return ConnectivityResult(
        kappa=kappa,
        delta=delta,
        maximally_connected=kappa == delta,
        min_cuts=cuts,
        super_kappa=all(c.isolates for c in cuts),
    )

