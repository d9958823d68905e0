"""Tests for vertex connectivity, min-cut enumeration, and classification."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronkit.connectivity import (
    brute_force_connectivity,
    classify_cut,
    connectivity_result,
    cut_record,
    enumerate_min_cuts,
    is_super_kappa,
    kappa_of_deletion_check,
    vertex_connectivity,
)
from kronkit.errors import BudgetExceededError, PreconditionError, UnsupportedSizeError
from kronkit.graphs import (
    graph_from_edges,
    is_connected,
    make_complete,
    make_cycle,
    random_graph,
)
from kronkit.products import kronecker


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return graph_from_edges(10, edges)


def nx_min_cuts(g, kappa):
    """Independent enumeration through networkx for cross-checks."""
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    found = []
    for combo in itertools.combinations(range(g.order), kappa):
        rest = h.copy()
        rest.remove_nodes_from(combo)
        if rest.number_of_nodes() == 1 or not nx.is_connected(rest):
            found.append(tuple(combo))
    return found


# -- connectivity values ---------------------------------------------------

def test_kappa_of_complete_graphs():
    for n in range(2, 7):
        assert vertex_connectivity(make_complete(n)) == n - 1
    assert vertex_connectivity(make_complete(1)) == 0


def test_kappa_of_disconnected_graph_is_zero():
    g = graph_from_edges(5, [(0, 1), (2, 3)])
    assert vertex_connectivity(g) == 0
    assert brute_force_connectivity(g) == 0


def test_kappa_of_petersen_graph():
    g = petersen()
    assert brute_force_connectivity(g) == 3
    assert vertex_connectivity(g) == 3


def test_kappa_rejects_empty_graph():
    with pytest.raises(ValueError):
        vertex_connectivity(graph_from_edges(0, []))
    with pytest.raises(ValueError):
        brute_force_connectivity(graph_from_edges(0, []))


def test_brute_force_examples():
    assert brute_force_connectivity(make_cycle(5)) == 2
    assert brute_force_connectivity(graph_from_edges(3, [(0, 1), (1, 2)])) == 1
    assert brute_force_connectivity(make_complete(3)) == 2


def test_brute_force_order_guard():
    with pytest.raises(UnsupportedSizeError):
        brute_force_connectivity(random_graph(21, 0.5, 0))


def test_oracle_equivalence_on_seeded_random_graphs():
    # module invariant: flow route equals subset-scan route, orders up to 14
    agreed = 0
    for seed in range(500):
        order = 2 + seed % 13
        p = 0.15 + (seed % 8) * 0.1
        g = random_graph(order, p, seed)
        assert vertex_connectivity(g) == brute_force_connectivity(g)
        agreed += 1
    assert agreed == 500


def test_kappa_at_most_delta_on_random_graphs():
    for seed in range(200):
        g = random_graph(2 + seed % 10, 0.4, seed + 1)
        assert vertex_connectivity(g) <= g.min_degree


# -- enumeration -----------------------------------------------------------

def test_min_cuts_of_c4():
    cuts = enumerate_min_cuts(make_cycle(4))
    assert [c.vertices for c in cuts] == [(0, 2), (1, 3)]
    assert all(c.isolates and c.separates for c in cuts)


def test_min_cuts_of_c6_include_non_isolating():
    cuts = enumerate_min_cuts(make_cycle(6))
    by_set = {c.vertices: c for c in cuts}
    assert (0, 3) in by_set
    assert not by_set[(0, 3)].isolates
    assert by_set[(1, 3)].isolates


def test_min_cuts_of_complete_graphs_isolate_survivor():
    for n in (3, 4, 5):
        cuts = enumerate_min_cuts(make_complete(n))
        assert len(cuts) == n
        assert all(len(c.vertices) == n - 1 for c in cuts)
        assert all(c.isolates and c.is_neighborhood for c in cuts)


def test_enumeration_is_lexicographic_and_budgeted():
    cuts = enumerate_min_cuts(make_cycle(7))
    assert [c.vertices for c in cuts] == sorted(c.vertices for c in cuts)
    with pytest.raises(BudgetExceededError) as err:
        enumerate_min_cuts(make_cycle(12), budget=10)
    assert err.value.required > 10
    with pytest.raises(PreconditionError):
        enumerate_min_cuts(graph_from_edges(4, [(0, 1)]))


def test_enumeration_complete_against_networkx_scan():
    pool = [make_cycle(n) for n in range(4, 9)]
    pool += [make_complete(n) for n in range(3, 7)]
    pool.append(petersen())
    for seed in range(80):
        g = random_graph(3 + seed % 6, 0.5, seed + 77)
        if is_connected(g) and g.order >= 2:
            pool.append(g)
    for g in pool:
        cuts = enumerate_min_cuts(g)
        kappa = vertex_connectivity(g)
        assert [c.vertices for c in cuts] == nx_min_cuts(g, kappa)


def test_enumeration_complete_exhaustively_up_to_order_7():
    from kronkit.corpus import connected_graphs

    for order in range(2, 8):
        for g in connected_graphs(order):
            cuts = enumerate_min_cuts(g)
            assert [c.vertices for c in cuts] == nx_min_cuts(
                g, vertex_connectivity(g))


# -- super-connectivity ------------------------------------------------------

def test_super_kappa_of_cycles():
    assert is_super_kappa(make_cycle(3))
    assert is_super_kappa(make_cycle(4))
    assert is_super_kappa(make_cycle(5))
    for n in (6, 7, 8, 9, 10):
        assert not is_super_kappa(make_cycle(n))


def test_super_kappa_of_disconnected_is_false():
    assert not is_super_kappa(graph_from_edges(4, [(0, 1), (2, 3)]))


def test_super_kappa_implies_maximally_connected():
    for seed in range(120):
        g = random_graph(3 + seed % 6, 0.5, seed)
        if not is_connected(g):
            continue
        res = connectivity_result(g)
        if res.super_kappa:
            assert res.maximally_connected
        assert res.kappa <= res.delta


def test_isolating_iff_neighborhood_on_min_cuts_when_kd_equal():
    for seed in range(150):
        g = random_graph(3 + seed % 6, 0.55, seed + 31)
        if not is_connected(g):
            continue
        res = connectivity_result(g)
        if res.kappa != res.delta:
            continue
        for c in res.min_cuts:
            assert c.isolates == c.is_neighborhood


# -- classification ----------------------------------------------------------

def test_classify_cut_on_c6():
    g = make_cycle(6)
    c = classify_cut(g, {1, 3})
    assert c.separates and c.isolates and c.is_neighborhood and c.witness == 2
    c = classify_cut(g, {0, 3})
    assert c.separates and not c.isolates and not c.is_neighborhood
    c = classify_cut(g, set())
    assert not c.separates and not c.isolates


def test_classify_cut_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_cut(make_cycle(4), {0, 9})


def test_classify_cut_whole_fiber_does_not_separate():
    p = kronecker(make_cycle(5), make_complete(3))
    c = classify_cut(p.graph, {0, 1, 2})  # fiber 0, the block 0..2
    assert not c.separates  # kappa of the product is 4
    assert c.vertices == (0, 1, 2) and not c.isolates


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=9))
@settings(max_examples=80)
def test_neighborhood_cuts_always_isolate(seed, order):
    g = random_graph(order, 0.5, seed)
    for x in range(order):
        nb = set(g.neighbors(x))
        c = classify_cut(g, nb)
        if c.is_neighborhood:
            assert c.isolates


def test_cut_record_schema():
    c = classify_cut(make_cycle(6), {1, 3})
    assert cut_record(c) == {"cut": [1, 3], "isolates": True, "neighborhood_of": 2}
    c = classify_cut(make_cycle(6), {0, 3})
    assert cut_record(c) == {"cut": [0, 3], "isolates": False, "neighborhood_of": None}


# -- deletion check ----------------------------------------------------------

def test_deletion_check_examples():
    assert kappa_of_deletion_check(make_complete(5))
    assert kappa_of_deletion_check(make_cycle(6))


def test_deletion_check_on_seeded_connected_graphs():
    count = 0
    for seed in range(1000):
        if count >= 300:
            break
        g = random_graph(2 + seed % 8, 0.45, seed)
        if not is_connected(g):
            continue
        assert kappa_of_deletion_check(g)
        count += 1
    assert count == 300
