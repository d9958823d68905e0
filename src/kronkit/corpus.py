"""Exhaustive corpora of small graphs, one representative per isomorphism class.

Order-n graphs are generated by attaching a new vertex to every order-(n-1)
graph in all possible ways and dropping isomorphic duplicates.  The connected
corpus restricts to connected parents and nonempty attachment sets, which
still reaches every connected graph: every connected graph has a vertex whose
removal keeps it connected (any leaf of a spanning tree).

Duplicates are dropped by a canonical form that the C kernel
(``_canon.c``, loaded by :mod:`kronkit._native`) computes for graphs of at
most 16 vertices by individualisation-refinement: one kernel call per parent
writes the key of every child, and a child is kept when its key is new, so
each class keeps its first-found representative.  The output is
exhaustive, duplicate-free, and in a deterministic order.  There is no
other route: an order past 16 raises :class:`UnsupportedSizeError`, and a
kernel that cannot be built raises from :func:`kronkit._native.library`.
The tests compare the corpora with a fingerprint-and-search route kept
among their oracles, and pin the corpus sizes to the published counts of
graphs on up to 8 vertices.
"""

from __future__ import annotations

import ctypes
from functools import lru_cache

from . import _native
from .errors import UnsupportedSizeError
from .graphs import Graph

# The kernel packs a key into the C(16, 2) = 120 bits of two 64-bit words.
_CANON_MAX_ORDER = 16


def _child(parent: Graph, order: int, subset: int) -> Graph:
    """The parent with a new last vertex adjacent to exactly ``subset``."""
    new_bit = 1 << (order - 1)
    adj = [m | new_bit if subset >> v & 1 else m for v, m in enumerate(parent.adj)]
    adj.append(subset)
    return Graph(order, tuple(adj))


def _extend_layer(parents: tuple[Graph, ...], order: int,
                  first_subset: int) -> tuple[Graph, ...]:
    """The children of ``parents`` whose new vertex is adjacent to a subset
    from ``first_subset`` on, one per class in order of first appearance."""
    lib = _native.library()
    count = (1 << (order - 1)) - first_subset
    words = (ctypes.c_uint64 * (order - 1))()
    keys = (ctypes.c_uint64 * (2 * count))()
    reps: list[Graph] = []
    seen: set[bytes] = set()
    for parent in parents:
        words[:] = parent.adj
        if lib.canon_children(order, words, first_subset, keys):
            raise RuntimeError(f"canon_children rejected order {order}")
        raw = bytes(keys)
        for i in range(count):
            key = raw[16 * i:16 * i + 16]
            if key not in seen:
                seen.add(key)
                reps.append(_child(parent, order, first_subset + i))
    return tuple(reps)


def _layer(order: int, first_subset: int) -> tuple[Graph, ...]:
    """The corpus of ``order``, connected when ``first_subset`` is 1; an order
    past the canonical key's raises before any layer is built."""
    if order < first_subset:
        raise ValueError(f"order must be >= {first_subset}")
    if order > _CANON_MAX_ORDER:
        raise UnsupportedSizeError(
            f"corpora stop at order {_CANON_MAX_ORDER}, got {order}")
    if order == first_subset:
        return (Graph(order, (0,) * order),)
    corpus = connected_graphs if first_subset else all_graphs
    return _extend_layer(corpus(order - 1), order, first_subset)


# Building order k reads only order k - 1, so each corpus keeps its last
# layer: a run over the orders in turn builds each once, and an earlier
# layer is freed as soon as the next one is built.
@lru_cache(maxsize=1)
def all_graphs(order: int) -> tuple[Graph, ...]:
    """All graphs of the given order, one per isomorphism class."""
    return _layer(order, 0)


@lru_cache(maxsize=1)
def connected_graphs(order: int) -> tuple[Graph, ...]:
    """All connected graphs of the given order, one per isomorphism class."""
    return _layer(order, 1)


def graphs_up_to(max_order: int) -> list[Graph]:
    """Connected corpus of orders 1..max_order in generation order."""
    return [g for order in range(1, max_order + 1) for g in connected_graphs(order)]
