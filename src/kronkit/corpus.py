"""Exhaustive corpora of small graphs, one representative per isomorphism class.

Order-n graphs are generated by attaching a new vertex to every order-(n-1)
graph in all possible ways and dropping isomorphic duplicates.  The connected
corpus restricts to connected parents and nonempty attachment sets, which
still reaches every connected graph: every connected graph has a vertex whose
removal keeps it connected (any leaf of a spanning tree).

Duplicates are dropped by a canonical form that the C kernel
(``_canon.c``, loaded by :mod:`kronkit._native`) computes for graphs of at
most 16 vertices by individualisation-refinement: one kernel call per parent
writes the key of every child, and a child is kept when its key is new.
Without the kernel, or above 16 vertices, candidates are bucketed by an
iterated-refinement fingerprint and confirmed with an exact isomorphism
search; the tests compare the two routes.  Both keep the first-found
representative of each class, so output is exhaustive, duplicate-free and
the same on either route, and its order is deterministic.  The test suite
pins the corpus sizes to the published counts of graphs on up to 8
vertices.
"""

from __future__ import annotations

import ctypes
from collections import defaultdict
from functools import lru_cache

from . import _native
from .graphs import Graph, iter_bits

# The kernel packs a key into the C(16, 2) = 120 bits of two 64-bit words.
_CANON_MAX_ORDER = 16


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


def _fingerprint(g: Graph, colors: tuple[int, ...]) -> tuple:
    return (g.order, g.edge_count, tuple(sorted(colors)))


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


def _child(parent: Graph, order: int, subset: int) -> Graph:
    """The parent with a new last vertex adjacent to exactly ``subset``."""
    new_bit = 1 << (order - 1)
    adj = [m | new_bit if subset >> v & 1 else m for v, m in enumerate(parent.adj)]
    adj.append(subset)
    return Graph(order, tuple(adj))


def _extend_by_key(lib: ctypes.CDLL, parents: tuple[Graph, ...], order: int,
                   first_subset: int) -> tuple[Graph, ...]:
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


def _extend_by_search(parents: tuple[Graph, ...], order: int,
                      first_subset: int) -> tuple[Graph, ...]:
    reps: list[Graph] = []
    buckets: dict[tuple, list[tuple[Graph, tuple[int, ...]]]] = {}
    for parent in parents:
        for subset in range(first_subset, 1 << (order - 1)):
            g = _child(parent, order, subset)
            colors = refined_colors(g)
            bucket = buckets.setdefault(_fingerprint(g, colors), [])
            if not any(_iso_search(g, colors, seen, seen_colors)
                       for seen, seen_colors in bucket):
                bucket.append((g, colors))
                reps.append(g)
    return tuple(reps)


def _extend_layer(parents: tuple[Graph, ...], order: int,
                  connected_only: bool) -> tuple[Graph, ...]:
    first_subset = 1 if connected_only else 0
    lib = _native.library() if order <= _CANON_MAX_ORDER else None
    if lib is None:
        return _extend_by_search(parents, order, first_subset)
    return _extend_by_key(lib, parents, order, first_subset)


@lru_cache(maxsize=None)
def all_graphs(order: int) -> tuple[Graph, ...]:
    """All graphs of the given order, one per isomorphism class."""
    if order < 0:
        raise ValueError("order must be >= 0")
    if order == 0:
        return (Graph(0, ()),)
    return _extend_layer(all_graphs(order - 1), order, connected_only=False)


@lru_cache(maxsize=None)
def connected_graphs(order: int) -> tuple[Graph, ...]:
    """All connected graphs of the given order, one per isomorphism class."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if order == 1:
        return (Graph(1, (0,)),)
    return _extend_layer(connected_graphs(order - 1), order, connected_only=True)


def graphs_up_to(max_order: int, connected: bool = True) -> list[Graph]:
    """Corpus of orders 1..max_order in generation order."""
    out: list[Graph] = []
    for n in range(1, max_order + 1):
        out.extend(connected_graphs(n) if connected else all_graphs(n))
    return out
