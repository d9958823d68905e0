"""Kronecker (tensor/direct) product construction and structural facts.

The product of ``g1`` and ``g2`` lives on the pair set ``V(g1) x V(g2)`` with
``(u1,v1) ~ (u2,v2)`` exactly when ``u1 ~ u2`` in ``g1`` and ``v1 ~ v2`` in
``g2``.  Product vertices are linearized as ``u * |V(g2)| + v``; this fixed
ordering makes cut sets and reports reproducible across runs.  The fiber of
``u``, the block of ids ``u * |V(g2)| + v``, is an independent set (``g2``
has no loops), and the fibers partition the product's vertices.
"""

from __future__ import annotations

from .graphs import Graph, iter_bits


def kronecker(g1: Graph, g2: Graph) -> Graph:
    """Kronecker product of two nonempty graphs under the fixed linearization.

    Row ``(u, v)`` is ``spread(adj1[u]) * adj2[v]``, where ``spread`` moves
    bit ``w`` to bit ``w * |g2|``: the product places one copy of ``adj2[v]``
    in the ``|g2|``-bit block of each neighbour ``w`` of ``u``, and the
    blocks never overlap, so no carry crosses from one fiber to the next.
    """
    if g1.order == 0 or g2.order == 0:
        raise ValueError("Kronecker product needs nonempty factors")
    n2 = g2.order
    spread = []
    for mask in g1.adj:
        row = 0
        while mask:
            low = mask & -mask
            row |= 1 << (low.bit_length() - 1) * n2
            mask ^= low
        spread.append(row)
    return Graph(g1.order * n2, tuple(row * col for row in spread for col in g2.adj))


def is_bipartite(g: Graph) -> tuple[bool, list[int] | None]:
    """Two-colorability test with an odd-closed-walk witness.

    Returns ``(True, None)`` when a 2-coloring exists, otherwise
    ``(False, walk)`` where ``walk`` is a closed walk of odd length given as a
    vertex list whose first and last entries coincide.
    """
    depth = [-1] * g.order
    parent = [-1] * g.order
    for root in range(g.order):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        while queue:
            nxt = []
            for x in queue:
                for y in iter_bits(g.adj[x]):
                    if depth[y] < 0:
                        depth[y] = depth[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif (depth[y] ^ depth[x]) & 1 == 0:
                        return False, _odd_walk(x, y, parent)
            queue = nxt
    return True, None


def _odd_walk(x: int, y: int, parent: list[int]) -> list[int]:
    """Closed odd walk through the offending edge x~y via the BFS tree root."""
    up_x = [x]
    while parent[up_x[-1]] >= 0:
        up_x.append(parent[up_x[-1]])
    up_y = [y]
    while parent[up_y[-1]] >= 0:
        up_y.append(parent[up_y[-1]])
    return up_x + up_y[::-1][1:] + [x]


def linearization_rows(order1: int, n: int) -> list[str]:
    """Sidecar mapping rows ``"linear_index factor1 factor2"``, one per vertex
    of a product whose factors have ``order1`` and ``n`` vertices."""
    return [f"{u * n + v} {u} {v}" for u in range(order1) for v in range(n)]

