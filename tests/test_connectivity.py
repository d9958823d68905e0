"""Tests for vertex connectivity, min-cut enumeration, and classification."""

import itertools
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kronkit
from kronkit.connectivity import (
    CutSet,
    _NativeSplitFlow,
    connectivity_result,
    cut_record,
    enumerate_min_cuts,
    vertex_connectivity,
)
from kronkit.errors import BudgetExceededError, PreconditionError, UnsupportedSizeError
from kronkit.graphs import is_connected, iter_bits, make_complete, make_cycle, random_graph
from kronkit.products import kronecker

from oracles import (
    _even_pairs,
    brute_force_connectivity,
    brute_force_min_cuts,
    classify_cut,
    delete_vertex,
    edges,
    graph_from_edges,
)


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
    h.add_edges_from(edges(g))
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
    g = make_cycle(4)
    cuts = enumerate_min_cuts(g)
    assert [c.vertices for c in cuts] == [(0, 2), (1, 3)]
    assert all(c.isolates and classify_cut(g, c.vertices) == (c, True) for c in cuts)


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
        assert all(c.isolates and c.witness is not None for c in cuts)


def test_enumeration_is_lexicographic_and_budgeted():
    cuts = enumerate_min_cuts(make_cycle(7))
    assert [c.vertices for c in cuts] == sorted(c.vertices for c in cuts)
    with pytest.raises(BudgetExceededError) as err:
        enumerate_min_cuts(make_cycle(12), budget=10)
    assert err.value.budget == 10
    with pytest.raises(PreconditionError):
        enumerate_min_cuts(graph_from_edges(4, [(0, 1)]))


def test_vertex_connectivity_charges_each_search_against_the_budget():
    # C12 has ten pairs, three of them with a common neighbour, whose path
    # is seeded without a search.  The first pair, (0, 2), searches once for
    # its second path and once more to find none; the seven pairs without a
    # common neighbour stop at the cutoff of 2 after two searches each, the
    # other two after one.
    g = make_cycle(12)
    assert vertex_connectivity(g, budget=18) == 2
    with pytest.raises(BudgetExceededError) as err:
        vertex_connectivity(g, budget=17)
    assert err.value.budget == 17


@pytest.fixture(params=["python", "native"])
def kernel(request):
    """The class of a split-flow network: the Python oracle, or the C
    kernel's."""
    from kronkit.connectivity import _NativeSplitFlow

    from oracles import _SplitFlow

    return _SplitFlow if request.param == "python" else _NativeSplitFlow


def _separates(nbrs, removed, s, t):
    """Plain breadth-first search over neighbour lists: is ``t``
    unreachable from ``s`` once ``removed`` is deleted?"""
    seen, frontier = set(removed) | {s}, [s]
    while frontier:
        frontier = [y for x in frontier for y in nbrs[x] if y not in seen]
        seen.update(frontier)
    return t not in seen


def _flow(net, s, t, cutoff) -> tuple:
    """The flow of ``net`` between ``s`` and ``t`` and its residual
    network, or None for the C kernel's network, which keeps it."""
    flow = net.max_flow(s, t, cutoff)
    return flow if isinstance(flow, tuple) else (flow, None)


def test_pair_flows_and_separators_against_networkx_and_subset_scan(kernel):
    """``max_flow`` of each kernel on single non-adjacent pairs of every
    connected graph to order 6 and of ``G x K_3`` for every connected ``G``
    to order 4: the flow equals networkx's local connectivity, and a flow
    cut off below its maximum stops at the cutoff.  On the oracle, whose
    residual network Python holds, ``min_separators`` gives exactly the
    minimum s-t separators found by scanning subsets, and none once the
    flow is cut off; the kernel reads the same separators only inside an
    enumeration, whose cut lists the tests compare with the oracle's."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.connectivity import (
        build_auxiliary_node_connectivity,
        local_node_connectivity,
    )
    from networkx.algorithms.flow import build_residual_network

    from kronkit.corpus import connected_graphs

    graphs = [g for order in range(2, 7) for g in connected_graphs(order)]
    graphs += [kronecker(g, make_complete(3))
               for order in range(1, 5) for g in connected_graphs(order)]
    pairs = cut_off = crowded = 0
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(edges(g))
        aux = build_auxiliary_node_connectivity(h)
        residual = build_residual_network(aux, "capacity")
        nbrs = [list(iter_bits(g.adj[v])) for v in range(g.order)]
        net = kernel(g)
        for s, t in itertools.permutations(range(g.order), 2):
            if g.adj[s] >> t & 1:
                continue
            value, out = _flow(net, s, t, g.order)
            assert value == local_node_connectivity(
                h, s, t, auxiliary=aux, residual=residual), (g, s, t)
            if out is not None:
                inner = [v for v in range(g.order) if v not in (s, t)]
                expected = {sum(1 << v for v in combo)
                            for combo in itertools.combinations(inner, value)
                            if _separates(nbrs, combo, s, t)}
                assert net.min_separators(s, t, out) == expected, (g, s, t)
            common = len(set(nbrs[s]) & set(nbrs[t]))
            for cutoff in range(value):
                short, out = _flow(net, s, t, cutoff)
                assert short == cutoff, (g, s, t, cutoff)
                if out is not None:
                    assert net.min_separators(s, t, out) == set(), (g, s, t, cutoff)
                cut_off += 1
                crowded += common > cutoff
            pairs += 1
    assert (pairs, cut_off, crowded) == (2242, 4680, 3146)


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


def test_enumeration_equals_subset_scan_on_every_connected_graph_to_order_7():
    # Runs without networkx, and compares the classifications too.  Every
    # connected graph of order 2 or more has a minimum cut, so kappa can
    # always be read off the first one.
    from kronkit.corpus import connected_graphs

    count = 0
    for order in range(2, 8):
        for g in connected_graphs(order):
            cuts = enumerate_min_cuts(g)
            assert cuts and cuts == brute_force_min_cuts(g), g
            count += 1
    assert count == 995


@pytest.mark.parametrize("n", [3, 4])
def test_enumeration_equals_subset_scan_on_products(n):
    from kronkit.corpus import connected_graphs

    for order in range(1, 6):
        for g in connected_graphs(order):
            pg = kronecker(g, make_complete(n))
            if is_connected(pg):
                cuts = enumerate_min_cuts(pg)
                assert cuts and cuts == brute_force_min_cuts(pg), (g, n)


@pytest.mark.parametrize("n, expected", [
    (None, [(0,)]),
    (3, [(0, 1), (0, 2), (1, 2)]),  # two of the three copies of the centre
])
def test_enumeration_stays_small_when_a_cut_leaves_many_components(n, expected):
    """The centre of K_{1,20} leaves 20 components, and each minimum cut of
    K_{1,20} x K_3 leaves 21.  The search branches only on the vertices the
    flow passes through, so it makes a few reachability searches per pair;
    branching on the vertices off the flow too would take billions.  A
    budget of 1000 residual searches, the flows' included, stops a search
    that is not output-sensitive; ``test_native`` requires the oracle to
    make the same searches."""
    star = graph_from_edges(21, [(0, leaf) for leaf in range(1, 21)])
    g = star if n is None else kronecker(star, make_complete(n))
    cuts = enumerate_min_cuts(g, budget=1000)
    assert [c.vertices for c in cuts] == expected
    assert all(c.isolates and c.witness is not None for c in cuts)


def test_subset_scan_oracle_guards():
    with pytest.raises(PreconditionError):
        brute_force_min_cuts(make_complete(1))
    with pytest.raises(PreconditionError):
        brute_force_min_cuts(graph_from_edges(4, [(0, 1)]))
    with pytest.raises(UnsupportedSizeError):
        brute_force_min_cuts(make_cycle(21))


@pytest.mark.parametrize("g6, n", [("Dhc", 3), ("Cr", 4)])  # C5 x K3, C4 x K4
def test_enumeration_equals_networkx_all_node_cuts(g6, n):
    nx = pytest.importorskip("networkx")
    from kronkit.graphs import parse_graph6

    pg = kronecker(parse_graph6(g6), make_complete(n))
    h = nx.Graph()
    h.add_nodes_from(range(pg.order))
    h.add_edges_from(edges(pg))
    expected = sorted(tuple(sorted(cut)) for cut in nx.all_node_cuts(h))
    assert [c.vertices for c in enumerate_min_cuts(pg)] == expected


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=5),
       st.permutations(range(5)),
       st.integers(min_value=3, max_value=5).flatmap(
           lambda n: st.permutations(range(n))))
@settings(max_examples=60, deadline=None)
def test_min_cuts_invariant_under_relabelling_the_factors(seed, order, rho, pi):
    """Permuting the K_n labels maps the minimum cuts of G x K_n onto
    themselves; relabelling G as well maps them onto those of the relabelled
    product, whose flows run on other pairs."""
    g = random_graph(order, 0.6, seed)
    assume(is_connected(g))
    n = len(pi)
    rho = [r for r in rho if r < order]

    def moved(cuts, vertex_map):
        return {tuple(sorted(vertex_map[u] * n + pi[i]
                             for u, i in (divmod(v, n) for v in c.vertices))): c.isolates
                for c in cuts}

    cuts = enumerate_min_cuts(kronecker(g, make_complete(n)))
    assert moved(cuts, range(order)) == {c.vertices: c.isolates for c in cuts}
    h = graph_from_edges(order, [(rho[u], rho[v]) for u, v in edges(g)])
    relabelled = enumerate_min_cuts(kronecker(h, make_complete(n)))
    assert moved(cuts, rho) == {c.vertices: c.isolates for c in relabelled}


# -- symmetry-reduced route ---------------------------------------------------

def _products(max_order, n_values):
    from kronkit.corpus import connected_graphs

    for order in range(1, max_order + 1):
        for g in connected_graphs(order):
            for n in n_values:
                yield g, n, kronecker(g, make_complete(n))


def test_label_symmetry_keeps_every_minimum_cut_of_kd_equal_products():
    count = 0
    for g, n, pg in _products(6, (3, 4, 5)):
        if vertex_connectivity(g) != g.min_degree or not is_connected(pg):
            continue
        assert enumerate_min_cuts(g, times=n) == enumerate_min_cuts(pg), g
        count += 1
    assert count > 100


def test_label_symmetry_keeps_product_connectivity():
    for g, n, pg in _products(6, (3, 4, 5)):
        assert vertex_connectivity(pg, labels=n) == vertex_connectivity(pg), g


def _orbit_representatives(pg, n):
    """The first pair of each orbit of Even's family under the label
    transpositions ``(a a+1)`` that fix the source, by breadth-first search
    over explicit permutations of the product's ids."""
    family = _even_pairs(pg, 1)
    s = family[0][0]
    perms = []
    for a in range(n - 1):
        perm = list(range(pg.order))
        for base in range(0, pg.order, n):
            perm[base + a], perm[base + a + 1] = base + a + 1, base + a
        if perm[s] == s:
            perms.append(perm)
    seen, representatives = set(), []
    for pair in family:
        if pair in seen:
            continue
        representatives.append(pair)
        seen.add(pair)
        orbit = [pair]
        while orbit:
            x, y = orbit.pop()
            for perm in perms:
                a, b = perm[x], perm[y]
                image = (a, b) if a == s or a < b else (b, a)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return representatives


def test_label_pairs_are_the_first_of_each_orbit(connected_upto_6):
    """The kernel's pair family is the oracle's, in the same order, with
    and without labels, and with labels it keeps the first pair of each
    orbit."""
    count = 0
    for g in connected_upto_6:
        for n in (3, 4, 5):
            pg = kronecker(g, make_complete(n))
            if not is_connected(pg):
                continue
            net = _NativeSplitFlow(pg)
            assert net.even_pairs(1) == _even_pairs(pg, 1), (g, n)
            assert net.even_pairs(n) == _even_pairs(pg, n) \
                == _orbit_representatives(pg, n), (g, n)
            assert net.spent == 0
            count += 1
    assert count == 426


def test_label_symmetry_spends_fewer_searches_on_k44_times_k4():
    # K_{4,4} x K_4 has 85 pairs in Even's family and 27 orbits under the
    # relabellings that fix label 0; the plain route needs 587 searches.
    from kronkit.graphs import parse_graph6

    k44 = parse_graph6("G?~vf_")
    pg = kronecker(k44, make_complete(4))
    cuts = enumerate_min_cuts(k44, budget=195, times=4)
    assert cuts == enumerate_min_cuts(pg) and len(cuts) == 8
    with pytest.raises(BudgetExceededError):
        enumerate_min_cuts(k44, budget=194, times=4)
    with pytest.raises(BudgetExceededError):
        enumerate_min_cuts(pg, budget=195)


def test_kernel_product_needs_a_complete_factor_with_a_vertex():
    for times in (0, -3):
        with pytest.raises(ValueError, match=f"needs times >= 1, got {times}$"):
            enumerate_min_cuts(make_cycle(4), times=times)


# -- super-connectivity ------------------------------------------------------

def test_super_kappa_of_cycles():
    assert connectivity_result(make_cycle(3)).super_kappa
    assert connectivity_result(make_cycle(4)).super_kappa
    assert connectivity_result(make_cycle(5)).super_kappa
    for n in (6, 7, 8, 9, 10):
        assert not connectivity_result(make_cycle(n)).super_kappa


def test_super_kappa_of_disconnected_is_false():
    assert not connectivity_result(graph_from_edges(4, [(0, 1), (2, 3)])).super_kappa


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
            searched, separates = classify_cut(g, c.vertices)
            assert searched == c and separates
            assert searched.isolates == (searched.witness is not None)


# -- classification ----------------------------------------------------------

def test_lookup_classification_equals_the_search_on_every_minimum_cut(
        connected_upto_6):
    """``enumerate_min_cuts`` classifies each cut by looking its mask up
    among the neighbourhoods; ``classify_cut`` searches the survivors.
    They agree on every minimum cut of every connected ``G x K_n``, G to
    order 6 and n = 3, 4, 5."""
    cuts = 0
    for g in connected_upto_6:
        for n in (3, 4, 5):
            pg = kronecker(g, make_complete(n))
            if not is_connected(pg):
                continue
            for cut in enumerate_min_cuts(g, times=n):
                assert classify_cut(pg, cut.vertices) == (cut, True), (g, n, cut)
                cuts += 1
    assert cuts == 2880


def test_classify_cut_on_c6():
    g = make_cycle(6)
    c, separates = classify_cut(g, {1, 3})
    assert separates and c.isolates and c.witness == 2
    c, separates = classify_cut(g, {0, 3})
    assert separates and not c.isolates and c.witness is None
    c, separates = classify_cut(g, set())
    assert not separates and not c.isolates


def test_classify_cut_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_cut(make_cycle(4), {0, 9})


def test_classify_cut_whole_fiber_does_not_separate():
    p = kronecker(make_cycle(5), make_complete(3))
    c, separates = classify_cut(p, {0, 1, 2})  # fiber 0, the block 0..2
    assert not separates  # kappa of the product is 4
    assert c.vertices == (0, 1, 2) and not c.isolates


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=3, max_value=9))
@settings(max_examples=80)
def test_neighborhood_cuts_always_isolate(seed, order):
    g = random_graph(order, 0.5, seed)
    for x in range(order):
        nb = set(iter_bits(g.adj[x]))
        c, _ = classify_cut(g, nb)
        if c.witness is not None:
            assert c.isolates


def test_cut_record_schema():
    c, _ = classify_cut(make_cycle(6), {1, 3})
    assert cut_record(c) == {"cut": [1, 3], "isolates": True, "neighborhood_of": 2}
    c, _ = classify_cut(make_cycle(6), {0, 3})
    assert cut_record(c) == {"cut": [0, 3], "isolates": False, "neighborhood_of": None}


def test_cut_set_is_an_immutable_record_of_three_fields():
    cut = CutSet((1, 3), True, 2)
    assert CutSet._fields == ("vertices", "isolates", "witness")
    assert (cut.vertices, cut.isolates, cut.witness) == ((1, 3), True, 2)
    for field in CutSet._fields:
        with pytest.raises(AttributeError):
            setattr(cut, field, None)
    assert hash(cut) == hash(CutSet((1, 3), True, 2))
    assert len({cut, CutSet((1, 3), True, 2), CutSet((0, 3), False, None)}) == 2
    assert json.dumps(cut_record(cut)) == \
        '{"cut": [1, 3], "isolates": true, "neighborhood_of": 2}'
    assert kronkit.CutSet is CutSet and "CutSet" in kronkit.__all__
    # Both networks build their cuts as CutSets.
    assert all(type(c) is CutSet for c in enumerate_min_cuts(make_cycle(6)))
    assert all(type(c) is CutSet for c in enumerate_min_cuts(make_complete(65)))


# -- deletion check ----------------------------------------------------------

def _deletion_lowers_kappa_by_at_most_one(g):
    kappa = vertex_connectivity(g)
    return all(vertex_connectivity(delete_vertex(g, v)) >= kappa - 1
               for v in range(g.order))


def test_deletion_check_examples():
    assert _deletion_lowers_kappa_by_at_most_one(make_complete(5))
    assert _deletion_lowers_kappa_by_at_most_one(make_cycle(6))


def test_deletion_check_on_seeded_connected_graphs():
    count = 0
    for seed in range(1000):
        if count >= 300:
            break
        g = random_graph(2 + seed % 8, 0.45, seed)
        if not is_connected(g):
            continue
        assert _deletion_lowers_kappa_by_at_most_one(g)
        count += 1
    assert count == 300
