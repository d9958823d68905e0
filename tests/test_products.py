"""Tests for Kronecker product construction and its structural identities."""

import itertools

import pytest

from kronkit.corpus import all_graphs
from kronkit.errors import PreconditionError
from kronkit.graphs import is_connected, make_complete, make_cycle, random_graph
from kronkit.products import is_bipartite, kronecker, linearization_rows

from oracles import (
    degrees,
    edges,
    graph_from_edges,
    kronecker_by_loops,
    validate,
    weichsel_connected,
)


def test_k2_times_k2_is_two_disjoint_edges():
    g = kronecker(make_complete(2), make_complete(2))
    assert g.order == 4
    assert g.edge_count == 2
    # hand expansion: (0,0)~(1,1) and (0,1)~(1,0), linearized 0~3 and 1~2
    assert set(edges(g)) == {(0, 3), (1, 2)}
    assert not is_connected(g)


def test_c3_times_k3_counts():
    p = kronecker(make_cycle(3), make_complete(3))
    assert p.order == 9
    assert p.edge_count == 18  # 2 * 3 * 3


def test_c3_times_k2_is_a_six_cycle():
    g = kronecker(make_cycle(3), make_complete(2))
    assert g.order == 6 and g.edge_count == 6
    assert degrees(g) == [2] * 6
    assert is_connected(g)


def test_kronecker_rejects_empty_factor():
    with pytest.raises(ValueError):
        kronecker(graph_from_edges(0, []), make_complete(2))


def test_product_vertex_linearization():
    c5, k3 = make_cycle(5), make_complete(3)
    p = kronecker(c5, k3)
    rows = [tuple(map(int, row.split())) for row in linearization_rows(5, 3)]
    assert [(u, v) for _, u, v in rows] == list(itertools.product(range(5), range(3)))
    for idx, u, v in rows:
        assert idx == u * 3 + v
    # id u*3+v is the pair (u, v): two ids are adjacent exactly when both
    # of their factor pairs are
    for (i, u1, v1), (j, u2, v2) in itertools.combinations(rows, 2):
        assert p.adj[i] >> j & 1 == (c5.adj[u1] >> u2 & k3.adj[v1] >> v2 & 1)
    assert linearization_rows(5, 3)[:4] == ["0 0 0", "1 0 1", "2 0 2", "3 1 0"]


def test_product_degree_examples():
    c5, k3, k4 = make_cycle(5), make_complete(3), make_complete(4)
    p = kronecker(c5, k3)
    for u in range(5):
        for v in range(3):
            assert degrees(p)[u * 3 + v] == degrees(c5)[u] * degrees(k3)[v] == 4
    assert degrees(kronecker(k4, k3))[0 * 3 + 0] == 6
    lonely = graph_from_edges(3, [(0, 1)])  # vertex 2 isolated
    assert degrees(kronecker(lonely, k3))[2 * 3 + 0] == 0


def _check_count_identities(g1, g2):
    g = kronecker(g1, g2)
    validate(g)
    assert g.order == g1.order * g2.order
    assert g.edge_count == 2 * g1.edge_count * g2.edge_count
    n2 = g2.order
    dg, d1, d2 = degrees(g), degrees(g1), degrees(g2)
    for u in range(g1.order):
        for v in range(n2):
            assert dg[u * n2 + v] == d1[u] * d2[v]


def test_count_identities_exhaustive_small():
    pool = [make_complete(n) for n in (1, 2, 3, 4)]
    pool += [make_cycle(n) for n in (3, 4, 5)]
    pool.append(graph_from_edges(3, [(0, 1)]))
    for g1, g2 in itertools.product(pool, repeat=2):
        _check_count_identities(g1, g2)


def test_count_identities_seeded_pairs_up_to_order_8():
    for seed in range(300):
        g1 = random_graph(1 + seed % 8, 0.15 + (seed % 5) * 0.17, seed)
        g2 = random_graph(1 + (seed // 3) % 8, 0.6, seed + 5000)
        _check_count_identities(g1, g2)


def test_commutativity_statistics():
    for seed in range(40):
        g1 = random_graph(2 + seed % 6, 0.5, seed)
        g2 = random_graph(2 + (seed + 3) % 6, 0.4, seed + 99)
        a = kronecker(g1, g2)
        b = kronecker(g2, g1)
        assert a.order == b.order
        assert a.edge_count == b.edge_count
        assert sorted(degrees(a)) == sorted(degrees(b))


# -- bipartiteness -------------------------------------------------------

def test_bipartite_even_cycle():
    assert is_bipartite(make_cycle(6)) == (True, None)
    assert is_bipartite(make_complete(2)) == (True, None)


def test_odd_cycle_witness_is_valid():
    for g in (make_cycle(5), make_cycle(7), make_complete(3), make_complete(4)):
        flag, walk = is_bipartite(g)
        assert not flag
        assert walk[0] == walk[-1]
        assert (len(walk) - 1) % 2 == 1
        for a, b in zip(walk, walk[1:]):
            assert g.adj[a] >> b & 1


def test_bipartite_handles_disconnected_input():
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    flag, walk = is_bipartite(two_triangles)
    assert not flag and walk[0] == walk[-1]
    squares = graph_from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                                   (4, 5), (5, 6), (6, 7), (4, 7)])
    assert is_bipartite(squares) == (True, None)


# -- the odd-cycle connectedness criterion --------------------------------

def test_weichsel_examples():
    assert weichsel_connected(make_complete(2), make_complete(2)) is False
    assert weichsel_connected(make_cycle(5), make_complete(2)) is True
    assert weichsel_connected(make_cycle(4), make_cycle(6)) is False


def test_weichsel_rejects_bad_factors():
    disconnected = graph_from_edges(4, [(0, 1)])
    with pytest.raises(PreconditionError):
        weichsel_connected(disconnected, make_complete(3))
    with pytest.raises(PreconditionError):
        weichsel_connected(make_complete(1), make_complete(3))


def _connected_pool(max_order):
    pool = []
    for n in range(2, max_order + 1):
        pool.append(make_complete(n))
        if n >= 3:
            pool.append(make_cycle(n))
    for seed in range(60):
        g = random_graph(2 + seed % (max_order - 1), 0.55, seed)
        if is_connected(g) and g.edge_count:
            pool.append(g)
    return pool


def test_weichsel_agrees_with_traversal():
    pool = _connected_pool(7)
    pairs = itertools.product(pool[:14], repeat=2)
    count = 0
    for g1, g2 in pairs:
        assert weichsel_connected(g1, g2) == is_connected(kronecker(g1, g2))
        count += 1
    assert count == 196


# -- fibers ---------------------------------------------------------------

def _fiber_members(u, n):
    """The fiber of ``u`` in ``g x K_n`` by definition: the ids ``u * n + v``."""
    return [u * n + v for v in range(n)]


def test_fibers_partition_and_independence():
    p = kronecker(make_cycle(5), make_complete(3))
    fs = [_fiber_members(u, 3) for u in range(5)]
    assert sorted(a for f in fs for a in f) == list(range(p.order))
    for f in fs:
        for a, b in itertools.combinations(f, 2):
            assert not p.adj[a] >> b & 1


def test_fibers_of_k2_times_k3():
    # K2 x K3 is the 6-cycle; each id meets the other fiber's other two labels
    p = kronecker(make_complete(2), make_complete(3))
    assert _fiber_members(0, 3) == [0, 1, 2]
    assert _fiber_members(1, 3) == [3, 4, 5]
    for a in _fiber_members(0, 3):
        assert [b for b in range(p.order) if p.adj[a] >> b & 1] == \
            [b for b in _fiber_members(1, 3) if b % 3 != a % 3]


def test_kronecker_equals_the_edge_by_edge_product():
    """One multiplication per row gives the edge-by-edge product: on every
    graph to order 6 times ``K_1`` to ``K_6``, on seeded random second
    factors that are not complete, and past 64 vertices on ``Q_5 x K_4``."""
    count = 0
    for g in (g for order in range(1, 7) for g in all_graphs(order)):
        for k in range(1, 7):
            assert kronecker(g, make_complete(k)) == kronecker_by_loops(
                g, make_complete(k)), (g, k)
            count += 1
    assert count == 6 * 208
    for seed in range(60):
        g1 = random_graph(2 + seed % 7, 0.5, seed)
        g2 = random_graph(2 + seed % 5, 0.4, seed + 1000)
        if g2 == make_complete(g2.order):
            continue
        assert kronecker(g1, g2) == kronecker_by_loops(g1, g2), seed
        count += 1
    assert count > 6 * 208 + 40
    q5 = graph_from_edges(32, [(v, v | 1 << i) for v in range(32)
                               for i in range(5) if not v >> i & 1])
    product = kronecker(q5, make_complete(4))
    assert product.order == 128 and product == kronecker_by_loops(q5, make_complete(4))
    validate(product)
