"""Exhaustive corpora of small graphs, one representative per isomorphism class.

Order-n graphs are generated by attaching a new vertex to every order-(n-1)
graph in all possible ways and dropping isomorphic duplicates.  The connected
corpus restricts to connected parents and nonempty attachment sets, which
still reaches every connected graph: every connected graph has a vertex whose
removal keeps it connected (any leaf of a spanning tree).

Duplicates are dropped by a canonical form that the C kernel
(``_canon.c``, loaded by :mod:`kronkit._native`) computes for graphs of at
most 16 vertices by individualisation-refinement.  The kernel also keeps the
layer's table of seen keys: one call canonicalises every child of a parent
and hands back only the children whose keys are new, so each class keeps its
first-found representative, and Python builds a :class:`Graph` for those
alone.  The output is exhaustive, duplicate-free, and in a deterministic
order.  :func:`iter_graphs` yields a layer of all graphs as the kernel finds
it, holding only the layer below and the keys, which is how ``batch
--all-graphs`` reads its top order.  There is no other route: an order past
16 raises :class:`UnsupportedSizeError`, and a kernel that cannot be built
raises from :func:`kronkit._native.library`.  The tests compare the corpora
with a fingerprint-and-search route kept among their oracles, and pin the
corpus sizes to the published counts of graphs on up to 8 vertices.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache
from typing import Iterator, Sequence

from . import _native
from .errors import UnsupportedSizeError
from .graphs import Graph

# The kernel packs a key into the C(16, 2) = 120 bits of two 64-bit words.
_CANON_MAX_ORDER = 16


def _new_children(parents: Sequence[Graph], order: int,
                  first_subset: int) -> Iterator[Graph]:
    """The children of ``parents`` whose new vertex is adjacent to a subset
    from ``first_subset`` on, one per class in order of first appearance,
    yielded a parent at a time as the kernel finds them; only the kernel's
    table of their keys is kept."""
    lib = _native.library()
    words = (ctypes.c_uint64 * (order - 1))()
    children = (ctypes.c_uint64 * (order << (order - 1)))()
    seen = lib.canon_seen_new()
    if not seen:
        raise MemoryError("cannot allocate the table of canonical keys")
    try:
        for parent in parents:
            words[:] = parent.adj
            found = lib.canon_new_children(seen, order, words, first_subset, children)
            if found == _native.NO_MEMORY:
                raise MemoryError("cannot grow the table of canonical keys")
            if found < 0:
                raise RuntimeError(f"canon_new_children rejected order {order}")
            masks = children[:found * order]
            for i in range(0, len(masks), order):
                yield Graph(order, tuple(masks[i:i + order]))
    finally:
        lib.canon_seen_free(seen)


def _layer(order: int, first_subset: int) -> Iterator[Graph]:
    """The corpus of ``order``, connected when ``first_subset`` is 1, as the
    kernel finds it from the cached corpus of ``order - 1``; an order out of
    range raises here, before any layer is built."""
    if order < first_subset:
        raise ValueError(f"order must be >= {first_subset}")
    if order > _CANON_MAX_ORDER:
        raise UnsupportedSizeError(
            f"corpora stop at order {_CANON_MAX_ORDER}, got {order}")
    if order == first_subset:
        return iter((Graph(order, (0,) * order),))
    corpus = connected_graphs if first_subset else all_graphs
    return _new_children(corpus(order - 1), order, first_subset)


# Building order k reads only order k - 1, so each corpus keeps its last
# layer: a run over the orders in turn builds each once, and an earlier
# layer is freed as soon as the next one is built.
@lru_cache(maxsize=1)
def all_graphs(order: int) -> tuple[Graph, ...]:
    """All graphs of the given order, one per isomorphism class."""
    return tuple(_layer(order, 0))


@lru_cache(maxsize=1)
def connected_graphs(order: int) -> tuple[Graph, ...]:
    """All connected graphs of the given order, one per isomorphism class."""
    return tuple(_layer(order, 1))


def iter_graphs(order: int) -> Iterator[Graph]:
    """The graphs of :func:`all_graphs` of ``order``, in the same order,
    yielded as the kernel finds them: only the layer below, which is cached,
    and the kernel's keys are held.  The order is checked at the call."""
    return _layer(order, 0)


def graphs_up_to(max_order: int) -> list[Graph]:
    """Connected corpus of orders 1..max_order in generation order."""
    return [g for order in range(1, max_order + 1) for g in connected_graphs(order)]
