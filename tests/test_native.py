"""The C split-flow kernel against the Python network kept as the oracle
(``_SplitFlow`` in ``oracles.py``), at every graph size: identical flow
values, pair families, cut lists and charged searches, with the kernel's
node masks of two words up to 64 vertices and of ``ceil(2n / 64)`` words
past them; the build on first use into the per-user cache, and the clean
stop when the kernel cannot be built.  No residual network leaves the
kernel, so the separators of each pair are compared as part of the cut
lists, through ``splitflow_min_cuts``."""

import ctypes
import fnmatch
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from kronkit import _native, connectivity, product_analysis
from kronkit.connectivity import (
    _NativeSplitFlow,
    enumerate_min_cuts,
    min_cut_verdict,
    vertex_connectivity,
)
from kronkit.cli import main
from kronkit.corpus import all_graphs, connected_graphs
from kronkit.errors import BudgetExceededError, KernelBuildError, PreconditionError
from kronkit.graphs import is_connected, make_complete, make_cycle, parse_graph6
from kronkit.products import kronecker

from oracles import (
    _even_pairs,
    _SplitFlow,
    brute_force_min_cuts,
    edges,
    graph_from_edges,
    labelled_min_cuts,
    two_cycles,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_library(request):
    """Forget the loaded kernel before and after the test, so that it loads
    again under the test's cache and compiler."""
    _native.library.cache_clear()
    request.addfinalizer(_native.library.cache_clear)


def _spy(monkeypatch) -> list:
    """Record every network that the flow routes build."""
    nets = []
    network = _NativeSplitFlow

    def recorded(g, budget=None, times=None):
        nets.append(network(g, budget, times))
        return nets[-1]

    monkeypatch.setattr(connectivity, "_NativeSplitFlow", recorded)
    return nets


def _k44():
    return graph_from_edges(8, [(a, b) for a in range(4) for b in range(4, 8)])


def _hypercube(d: int):
    return graph_from_edges(1 << d, [(v, v | 1 << i) for v in range(1 << d)
                                     for i in range(d) if not v >> i & 1])


def _kernel_and_oracle(g, times, nets) -> tuple:
    """The cut list and the searches spent of one enumeration of ``g``, or
    of ``g x K_times`` when ``times`` is given, by the kernel through
    :func:`labelled_min_cuts` (whose network ``nets`` records), which
    builds the product itself, and by the oracle on :func:`kronecker`'s
    product with its ``times`` labels."""
    cuts = labelled_min_cuts(g, times)
    pg = g if times is None else kronecker(g, make_complete(times))
    oracle = _SplitFlow(pg)
    return (cuts, nets[-1].spent), (oracle.min_cuts(pg, times or 1), oracle.spent)


def _oracle_connectivity(g, labels: int = 1) -> tuple[int, int]:
    """:func:`vertex_connectivity` of a connected ``g`` on the oracle, and
    the searches it spent, on one pair per orbit of ``labels`` labels (the
    ``times`` route's pairs when ``g`` is :func:`kronecker`'s product)."""
    net, best = _SplitFlow(g), g.order - 1
    for s, t in _even_pairs(g, labels):
        best = min(best, net.max_flow(s, t, best)[0])
    return best, net.spent


def _agree(oracle, net, s, t, cutoff, case) -> int:
    value = oracle.max_flow(s, t, cutoff)[0]
    assert (net.max_flow(s, t, cutoff), net.spent) == (value, oracle.spent), case
    return value


def test_kernels_agree_on_every_even_pair_of_products_to_order_6(
        connected_upto_6, kernel):
    """Every pair of Even's family of every connected ``G x K_n``, G to
    order 6 and n = 3, 4, 5, on one network per product, which the kernel
    builds from the factor in one call: the same flow value and searches
    spent as the oracle on :func:`kronecker`'s product, at the cutoff the
    routes start from and at every cutoff below the flow, in one kernel
    call per flow, which hands over no block to free."""
    products = cases = 0
    for g in connected_upto_6:
        for n in (3, 4, 5):
            pg = kronecker(g, make_complete(n))
            if not is_connected(pg):
                continue
            oracle, net = _SplitFlow(pg), _NativeSplitFlow(g, times=n)
            products += 1
            for s, t in _even_pairs(pg, 1):
                value = _agree(oracle, net, s, t, pg.order - 1, (g, n, s, t))
                for cutoff in range(value):
                    _agree(oracle, net, s, t, cutoff, (g, n, s, t, cutoff))
                cases += 1 + value
    assert (products, cases) == (426, 102822)
    assert kernel.calls == {"splitflow_product": products, "splitflow_max_flow": cases}


WORD_BOUNDARY = [
    ("C12xK5", make_cycle(12), 5),
    ("Q4xK4", _hypercube(4), 4),
    ("K8xK8", make_complete(8), 8),
] + [(f"order7-{i}xK5", connected_graphs(7)[i], 5) for i in range(0, 853, 200)]


@pytest.mark.parametrize("g, n", [case[1:] for case in WORD_BOUNDARY],
                         ids=[case[0] for case in WORD_BOUNDARY])
def test_products_up_to_the_word_boundary(g, n, monkeypatch):
    """Products of up to 64 vertices, whose 128 nodes fill the kernel's
    two-word masks, agree with the oracle on the connectivity, the cuts and
    the searches, and with networkx on the connectivity."""
    nx = pytest.importorskip("networkx")
    pg = kronecker(g, make_complete(n))
    nets = _spy(monkeypatch)
    kappa = vertex_connectivity(pg)
    assert (kappa, nets[-1].spent) == _oracle_connectivity(pg)
    ours, oracle = _kernel_and_oracle(g, n, nets)
    assert ours == oracle
    h = nx.Graph()
    h.add_nodes_from(range(pg.order))
    h.add_edges_from(edges(pg))
    assert kappa == nx.node_connectivity(h) == len(ours[0][0].vertices)


PAST_THE_WORD_BOUNDARY = [
    # name, factor, n, kappa, minimum cuts
    ("C13xK5", make_cycle(13), 5, 8, 65),
    ("K9xK9", make_complete(9), 9, 64, 81),  # a vertex mask of 81 bits
    ("Q5xK4", _hypercube(5), 4, 15, 128),
    ("Q6xK3", _hypercube(6), 3, 12, 192),  # ids and witnesses past 127
    ("C86xK3", make_cycle(86), 3, 4, 258),  # ids and witnesses past 255
    ("Q7xK3", _hypercube(7), 3, 14, 384),
]


@pytest.mark.parametrize("g, n, kappa, count",
                         [case[1:] for case in PAST_THE_WORD_BOUNDARY],
                         ids=[case[0] for case in PAST_THE_WORD_BOUNDARY])
def test_products_past_the_word_boundary(g, n, kappa, count, kernel, monkeypatch):
    """Products past 64 vertices take the kernel's multiword masks and give
    the oracle's connectivity, pairs, cut list and searches.  The
    connectivity takes its pairs in one kernel call, and each enumeration is
    one kernel call past the kernel's build of the product; each of their
    results is freed once, however many pairs or cuts it holds.  The
    product that the kernel builds has the connectivity of
    :func:`kronecker`'s."""
    pg = kronecker(g, make_complete(n))
    assert pg.order > 64
    nets = _spy(monkeypatch)
    assert (vertex_connectivity(pg), nets[-1].spent) == (kappa, _oracle_connectivity(pg)[1])
    assert kernel.calls["splitflow_pairs"] == kernel.calls["splitflow_free"] == 1
    ours, oracle = _kernel_and_oracle(g, n, nets)
    assert ours == oracle
    assert kernel.calls["splitflow_product"] == kernel.calls["splitflow_min_cuts"] == 1
    assert kernel.calls["splitflow_init"] == 1
    assert kernel.calls["splitflow_free"] == 2
    assert _NativeSplitFlow(pg).even_pairs() == _even_pairs(pg, 1)
    assert _NativeSplitFlow(g, times=n).even_pairs() == _even_pairs(pg, n)
    assert kernel.calls["splitflow_pairs"] == kernel.calls["splitflow_free"] - 1 == 3
    cuts = ours[0]
    assert len(cuts) == count and {len(cut.vertices) for cut in cuts} == {kappa}
    assert max(cut.vertices[-1] for cut in cuts) == pg.order - 1
    assert max(cut.witness for cut in cuts if cut.isolates) == pg.order - 1
    assert vertex_connectivity(g, times=n) == kappa


BUDGETED = [("K44xK3", _k44(), 3, 9, 223), ("K4xK17", make_complete(4), 17, 68, 149)]


def test_budget_runs_out_at_the_same_search_on_both_kernels(kernel, monkeypatch):
    """K_{4,4} x K_3 needs 223 searches, and K_4 x K_17, past the word
    boundary and with 68 minimum cuts, 149.  Every smaller budget stops the
    kernel and the oracle at their first search past the budget, and the
    kernel, which has then freed its buffers itself, hands over no result
    to free."""
    nets = _spy(monkeypatch)
    for name, g, times, count, searches in BUDGETED:
        pg = kronecker(g, make_complete(times))
        oracle = _SplitFlow(pg)
        expected = oracle.min_cuts(pg, times)
        assert oracle.spent == searches, name
        frees = kernel.calls["splitflow_free"]
        for budget in range(searches):
            with pytest.raises(BudgetExceededError) as err:
                labelled_min_cuts(g, times, budget=budget)
            assert err.value.budget == budget
            assert nets[-1].spent == budget + 1, (name, budget)
            with pytest.raises(BudgetExceededError):
                _SplitFlow(pg, budget).min_cuts(pg, times)
        assert kernel.calls["splitflow_free"] == frees, name
        cuts = labelled_min_cuts(g, times, budget=searches)
        assert cuts == expected and len(cuts) == count
        assert nets[-1].spent == searches
        assert kernel.calls["splitflow_free"] == frees + 1, name


# name, graph, times, kappa, the oracle's searches
BUDGETED_CONNECTIVITY = [("K44xK3", _k44(), 3, 8, 89),
                         ("Q5xK3", kronecker(_hypercube(5), make_complete(3)), None, 10, 1066)]


@pytest.mark.parametrize("g, times, kappa, searches",
                         [case[1:] for case in BUDGETED_CONNECTIVITY],
                         ids=[case[0] for case in BUDGETED_CONNECTIVITY])
def test_connectivity_stops_at_the_oracles_search_past_every_budget(
        g, times, kappa, searches, monkeypatch):
    """:func:`vertex_connectivity` of K_{4,4} x K_3, built by the kernel
    from the factor, and of Q_5 x K_3, past 64 vertices, built by
    :func:`kronecker`: every budget below the oracle's searches stops the
    pair loop at the first search past it, with that budget on the error,
    and the full budget gives the oracle's value and searches."""
    pg = g if times is None else kronecker(g, make_complete(times))
    assert _oracle_connectivity(pg, times or 1) == (kappa, searches)
    nets = _spy(monkeypatch)
    for budget in range(searches):
        with pytest.raises(BudgetExceededError) as err:
            vertex_connectivity(g, budget=budget, times=times)
        assert err.value.budget == budget
        assert nets[-1].spent == budget + 1, budget
    assert vertex_connectivity(g, budget=searches, times=times) == kappa
    assert nets[-1].spent == searches


def test_one_kernel_call_per_enumeration_matches_the_python_route(
        connected_upto_6, kernel, monkeypatch):
    """Every connected ``G x K_n``, G to order 6 and n = 3, 4, 5, and the
    complete graphs, which have no pairs: the enumeration makes one call
    into the kernel past building the network, which the kernel builds from
    the factor in one call for a product and from the graph's words for a
    plain graph, and gives the oracle's cut list and searches."""
    products = [(g, n) for g in connected_upto_6 for n in (3, 4, 5)
                if is_connected(kronecker(g, make_complete(n)))]
    plain = [(make_complete(k), None) for k in range(2, 9)]
    nets = _spy(monkeypatch)
    cuts = 0
    for g, n in products + plain:
        ours, oracle = _kernel_and_oracle(g, n, nets)
        assert ours == oracle, (g, n)
        cuts += len(oracle[0])
    cases = len(products) + len(plain)
    assert kernel.calls == {"splitflow_product": len(products),
                            "splitflow_init": len(plain),
                            "splitflow_min_cuts": cases,
                            "splitflow_free": cases}
    assert (cases, cuts) == (433, 2915)


def test_long_cut_list_is_one_kernel_call(kernel, monkeypatch):
    """The kernel lists each distinct cut once and hands the whole list over
    in one call.  K_{4,4} x K_3 has 9 minimum cuts, which its kept pairs
    separate 67 times in all, for 223 searches.  C_16 has 104 minimum cuts,
    for 962 searches."""
    nets = _spy(monkeypatch)
    for g, times, count, searches in ((_k44(), 3, 9, 223), (make_cycle(16), None, 104, 962)):
        calls = kernel.calls["splitflow_min_cuts"]
        ours, oracle = _kernel_and_oracle(g, times, nets)
        assert ours == oracle
        assert (len(oracle[0]), oracle[1]) == (count, searches)
        assert kernel.calls["splitflow_min_cuts"] == calls + 1
    assert kernel.calls["splitflow_free"] == 2


@pytest.mark.parametrize("n, max_order", [(3, 5), (4, 5), (5, 4)])
def test_finished_cut_lists_equal_the_twin_and_the_subset_scan(
        n, max_order, monkeypatch):
    """At labels 3, 4 and 5 the kernel closes, sorts and classifies the
    cuts itself: on every connected ``G x K_n`` of at most 20 vertices its
    list equals the oracle's, with the same searches, and the subset
    scan's, which knows no labels."""
    nets = _spy(monkeypatch)
    products = 0
    for g in (g for order in range(1, max_order + 1) for g in connected_graphs(order)):
        pg = kronecker(g, make_complete(n))
        if not is_connected(pg):
            continue
        ours, oracle = _kernel_and_oracle(g, n, nets)
        assert ours == oracle, (g, n)
        assert oracle[0] == brute_force_min_cuts(pg), (g, n)
        products += 1
    assert products == {3: 30, 4: 30, 5: 9}[n]


def test_closure_adds_the_cuts_the_pairs_do_not_separate(kernel, monkeypatch):
    """The kept pairs of K_{4,4} x K_4 separate 5 of its 8 minimum cuts,
    and the label swaps give the other 3, in the same kernel call, which
    charges the 195 searches once and gives the oracle's list."""
    k44 = parse_graph6("G?~vf_")
    pg = kronecker(k44, make_complete(4))
    oracle = _SplitFlow(pg)
    kappa, attaining = pg.order - 1, []
    for s, t in _even_pairs(pg, 4):
        value, out = oracle.max_flow(s, t, kappa)
        if value < kappa:
            kappa, attaining = value, []
        attaining.append((s, t, out))
    separated = set().union(*(oracle.min_separators(s, t, out)
                              for s, t, out in attaining))
    assert len(separated) == 5
    nets = _spy(monkeypatch)
    ours, oracle = _kernel_and_oracle(k44, 4, nets)
    assert ours == oracle
    cuts, spent = oracle
    assert (len(cuts), spent) == (8, 195)
    assert separated < {sum(1 << v for v in cut.vertices) for cut in cuts}
    assert kernel.calls["splitflow_min_cuts"] == kernel.calls["splitflow_free"] == 1


def test_kernel_product_gives_the_plain_enumeration_of_kronecker(connected_upto_6):
    """Every connected factor to order 6 at n = 2 to 6: the cuts of the
    product that the kernel builds, enumerated with its labels, equal the
    plain enumeration of :func:`kronecker`'s product, which knows no labels,
    so one assertion checks the kernel's product builder and the closure
    under the label swaps.  A disconnected product, such as ``G x K_2`` for
    a bipartite ``G``, is refused alike on both routes."""
    equal = refused = 0
    for g in connected_upto_6:
        for n in range(2, 7):
            pg = kronecker(g, make_complete(n))
            if not is_connected(pg):
                for product in ((g, n), (pg, None)):
                    with pytest.raises(PreconditionError):
                        labelled_min_cuts(*product)
                refused += 1
                continue
            assert labelled_min_cuts(g, n) == enumerate_min_cuts(pg), (g, n)
            equal += 1
    assert (equal, refused) == (683, 32)


WIDE_PRODUCTS = [
    ("Q5xK3", _hypercube(5), 3),  # 96 vertices
    ("PetersenxK7", parse_graph6("IheA@GUAo"), 7),  # 70 vertices
    ("C70xK5", make_cycle(70), 5),  # a factor past 64 vertices too
    ("Q7xK3", _hypercube(7), 3),  # factor rows of two words, product rows of six
]


@pytest.mark.parametrize("g, n", [case[1:] for case in WIDE_PRODUCTS],
                         ids=[case[0] for case in WIDE_PRODUCTS])
def test_kernel_builds_products_past_the_word_boundary(g, n, kernel):
    """Products past 64 vertices are built in the kernel's multiword masks,
    in one call, and give the plain enumeration of :func:`kronecker`'s
    product."""
    pg = kronecker(g, make_complete(n))
    assert pg.order > 64
    assert labelled_min_cuts(g, n) == enumerate_min_cuts(pg)
    assert kernel.calls == {"splitflow_product": 1, "splitflow_init": 1,
                            "splitflow_min_cuts": 2, "splitflow_free": 2}


def _listed(g, budget, times):
    """:func:`enumerate_min_cuts` of ``g``, or the kernel's labelled list
    of ``g x K_times``."""
    if times is None:
        return enumerate_min_cuts(g, budget)
    return labelled_min_cuts(g, times, budget)


def _both_routes(g, times, budget, nets) -> tuple:
    """What :func:`min_cut_verdict` and the three facts of the cut list
    give for ``g``, or ``g x K_times``, at ``budget``, each as ``(result or
    exception type, searches spent)`` on the network that ``nets``
    records."""
    outcomes = []
    for route in (min_cut_verdict, _listed):
        try:
            result = route(g, budget, times)
        except (BudgetExceededError, PreconditionError) as exc:
            result = type(exc)
        else:
            if route is _listed:
                result = (len(result[0].vertices), len(result),
                          next((c for c in result if not c.isolates), None))
        outcomes.append((result, nets[-1].spent))
    return tuple(outcomes)


def _verdicts_agree(g, times, nets):
    """Both routes agree on ``g`` (or ``g x K_times``) with no budget and,
    past 0 searches, at a budget one search short; the verdict is
    returned."""
    verdict, listed = _both_routes(g, times, None, nets)
    assert verdict == listed, (g, times)
    result, spent = verdict
    if spent:
        short = _both_routes(g, times, spent - 1, nets)
        assert short == ((BudgetExceededError, spent),) * 2, (g, times)
    return result


def test_verdict_reads_the_three_facts_of_the_cut_list(
        connected_upto_6, kernel, monkeypatch):
    """:func:`min_cut_verdict` gives kappa, the cut count and the first
    non-isolating cut of :func:`enumerate_min_cuts`'s list, with the same
    searches charged, the same :class:`BudgetExceededError` at a budget one
    search short, and the same :class:`PreconditionError` for a graph of
    fewer than two vertices or a disconnected one: on every connected
    factor to order 6 at n = 3 and 4, and on every connected graph to
    order 7.  Each route that finishes frees one block."""
    nets = _spy(monkeypatch)
    cases = [(g, n) for g in connected_upto_6 for n in (3, 4)]
    cases += [(g, None) for order in range(1, 8) for g in connected_graphs(order)]
    verdicts = [_verdicts_agree(g, times, nets) for g, times in cases]
    refused = sum(v is PreconditionError for v in verdicts)
    assert (len(cases), refused) == (2 * 143 + 996, 3)  # K_1 at n = 3, 4 and plain
    assert kernel.calls["splitflow_free"] == 2 * (len(cases) - refused)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_verdict_finds_the_column_of_kdd_x_k3(d, monkeypatch):
    """``K_{d,d} x K_3`` has a non-isolating minimum cut, a column of 2d
    vertices, which both routes report first, with 2d as kappa."""
    nets = _spy(monkeypatch)
    kdd = graph_from_edges(2 * d, [(a, b) for a in range(d) for b in range(d, 2 * d)])
    kappa, count, counterexample = _verdicts_agree(kdd, 3, nets)
    assert kappa == len(counterexample.vertices) == 2 * d
    assert not counterexample.isolates and counterexample.witness is None


@pytest.mark.parametrize("g, n", [case[1:] for case in WIDE_PRODUCTS[:2]],
                         ids=[case[0] for case in WIDE_PRODUCTS[:2]])
def test_verdict_past_the_word_boundary(g, n, monkeypatch):
    """Q_5 x K_3 and Petersen x K_7, past 64 vertices: the same three facts
    and searches on both routes, with no copy of the whole cut block."""
    nets = _spy(monkeypatch)
    copies = []
    string_at = ctypes.string_at
    monkeypatch.setattr(ctypes, "string_at", lambda *args: copies.append(args)
                        or string_at(*args))
    assert min_cut_verdict(g, times=n)[2] is None and copies == []
    assert _verdicts_agree(g, n, nets)[2] is None


@pytest.mark.parametrize("g6", ["A?", "@"], ids=["two-vertices-no-edge", "one-vertex"])
def test_verdict_refuses_what_the_list_refuses(g6, kernel, monkeypatch):
    """A disconnected graph and the one-vertex graph are refused alike,
    with no search spent; only the disconnected one reaches the kernel."""
    nets = _spy(monkeypatch)
    g = parse_graph6(g6)
    assert _both_routes(g, None, None, nets) == ((PreconditionError, 0),) * 2
    assert kernel.calls["splitflow_min_cuts"] == (2 if g.order == 2 else 0)
    assert kernel.calls["splitflow_free"] == 0


def test_product_past_a_c_int_is_refused_before_any_array(kernel):
    """The kernel reads the product's order as a C int: ``C_4 x K_{2**30}``
    has 2**32 vertices, and is refused by its order before a word array is
    allocated or the kernel is called."""
    with pytest.raises(ValueError, match="got order 4294967296$"):
        min_cut_verdict(make_cycle(4), times=2**30)
    assert kernel.calls == {}


def test_one_product_build_and_one_enumeration_per_verdict(kernel, monkeypatch):
    """``batch_verify`` hands each instance's factor to the kernel, which
    builds the product in one call, and enumerates a verdict instance's in
    one more; no product is built in Python on either route.  The bowtie
    (kappa 1 < delta 2) takes the formula route, whose flows take the pairs
    of the product in one call.  The factors' own connectivity, once per
    factor, builds one plain network each."""
    def no_product(*_args):
        raise AssertionError("a route built a product in Python")
    for name in ("kronkit.product_analysis.kronecker", "kronkit.products.kronecker"):
        monkeypatch.setattr(name, no_product)
    factors = [make_cycle(5), _k44(), _hypercube(3), parse_graph6("IheA@GUAo"),
               parse_graph6("DxK")]
    records = list(product_analysis.batch_verify(factors, [3, 4], filters=("connected",)))
    assert records[-1] == product_analysis.BatchSummary(10, 9, 1, 0)  # K_{4,4} x K_3
    assert [r.super_kappa_verdict for r in records[-3:-1]] == [None, None]
    assert kernel.calls["splitflow_product"] == 10
    assert kernel.calls["splitflow_min_cuts"] == 8
    assert kernel.calls["splitflow_init"] == len(factors)
    assert kernel.calls["splitflow_pairs"] == len(factors) + 2


DISCONNECTED = [
    ("2C5", two_cycles(5)),
    ("2C32", two_cycles(32)),
    ("P63+K1", graph_from_edges(64, [(v, v + 1) for v in range(62)])),
    ("2C33", two_cycles(33)),
]


# A factor and n, with a product that the kernel builds.
DISCONNECTED_PRODUCTS = [
    ("2C5xK3", two_cycles(5), 3),
    ("P2+K1xK4", graph_from_edges(3, [(0, 1)]), 4),
    ("2C11xK3", two_cycles(11), 3),
]


@pytest.mark.parametrize("g, times", [(case[1], None) for case in DISCONNECTED]
                         + [case[1:] for case in DISCONNECTED_PRODUCTS],
                         ids=[case[0] for case in DISCONNECTED + DISCONNECTED_PRODUCTS])
def test_disconnected_graph_has_connectivity_0_before_any_search(
        g, times, kernel, monkeypatch):
    """The kernel finds a disconnected graph or product itself, by its
    uncharged search of the adjacency masks, in the call that would hand
    over the pairs, so the connectivity is 0 with no search spent, even at a
    budget of 0, and the kernel hands over no block to free.  A product is
    disconnected as :func:`kronecker`'s is."""
    if times is not None:
        assert not is_connected(kronecker(g, make_complete(times)))
    nets = _spy(monkeypatch)
    for budget in (None, 0):
        assert vertex_connectivity(g, budget=budget, times=times) == 0
        assert nets[-1].spent == 0
    build = "splitflow_init" if times is None else "splitflow_product"
    assert kernel.calls == {build: 2, "splitflow_pairs": 2}
    net, block = nets[-1], ctypes.POINTER(ctypes.c_int)()
    assert net._lib.splitflow_pairs(net._net, net.labels, ctypes.byref(block)) \
        == connectivity._DISCONNECTED
    assert not block


@pytest.mark.parametrize("g", [case[1] for case in DISCONNECTED],
                         ids=[case[0] for case in DISCONNECTED])
def test_disconnected_graph_is_refused_before_any_search(g, kernel, monkeypatch):
    """The kernel refuses a disconnected graph itself, before its first
    charged search, by its own search of the adjacency masks in the one
    call that enumerates, at every order, so a budget of 0 still gets the
    precondition's error.  The oracle refuses it by ``is_connected``."""
    nets = _spy(monkeypatch)
    for budget in (None, 0):
        with pytest.raises(PreconditionError,
                           match="^min-cut enumeration needs a connected graph$"):
            enumerate_min_cuts(g, budget=budget)
        assert nets[-1].spent == 0
        oracle = _SplitFlow(g, budget)
        with pytest.raises(PreconditionError):
            oracle.min_cuts(g, 1)
        assert oracle.spent == 0
    assert kernel.calls["splitflow_min_cuts"] == 2
    assert kernel.calls["splitflow_free"] == 0  # the kernel returned no block


def test_failed_kernel_allocation_raises_memory_error(kernel, monkeypatch):
    """A kernel entry that cannot allocate a buffer returns its code for it,
    which raises MemoryError, and hands over no result to free."""
    for name in ("splitflow_max_flow", "splitflow_min_cuts", "splitflow_pairs"):
        monkeypatch.setattr(kernel, name, lambda *args: _native.NO_MEMORY,
                            raising=False)
    net = _NativeSplitFlow(make_cycle(5))
    with pytest.raises(MemoryError):
        net.max_flow(0, 2, 2)
    with pytest.raises(MemoryError):
        enumerate_min_cuts(make_cycle(5))
    with pytest.raises(MemoryError):
        vertex_connectivity(make_cycle(5))
    assert kernel.calls["splitflow_free"] == 0


def test_kernel_compiles_without_warnings():
    """Every kernel source stays clean under the compiler's common warnings."""
    if shutil.which(_native.COMPILER) is None:
        pytest.skip(f"no {_native.COMPILER} on PATH")
    assert [source.name for source in _native.SOURCES] == [
        "_splitflow.c", "_canon.c", "_residue.c", "_graph6.c"]
    result = subprocess.run(
        [_native.COMPILER, "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
         *map(str, _native.SOURCES)], capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_editing_any_source_renames_the_cached_library(tmp_path, monkeypatch):
    """A build is cached under a name keyed by every source, so an edited
    kernel is built afresh instead of loaded from a stale library."""
    copies = []
    for source in _native.SOURCES:
        copies.append(tmp_path / source.name)
        copies[-1].write_bytes(source.read_bytes())
    monkeypatch.setattr(_native, "SOURCES", tuple(copies))
    names = {_native.library_path().name}
    for copy in copies:
        copy.write_bytes(copy.read_bytes() + b"\n")
        names.add(_native.library_path().name)
    assert len(names) == len(copies) + 1


def test_native_route_is_taken_when_a_compiler_is_present(kernel):
    """Every pair family, flow and enumeration runs in the kernel, and the
    block of pairs and the block of cuts are each freed once."""
    if shutil.which(_native.COMPILER) is None:
        pytest.skip(f"no {_native.COMPILER} on PATH")
    assert vertex_connectivity(make_cycle(5)) == 2
    assert len(enumerate_min_cuts(make_cycle(5))) == 5
    assert kernel.calls == {"splitflow_init": 2, "splitflow_pairs": 1,
                            "splitflow_max_flow": 3, "splitflow_min_cuts": 1,
                            "splitflow_free": 2}


# C5, K4 and the Petersen graph are not bipartite, so gstar runs both
# checkers on them; C6 and K3,3 are, so it runs only the first.
GSTAR_FACTORS = ("Dhc", "C~", "IheA@GUAo", "EhEG", "EFz_")


@pytest.mark.parametrize("compiler", ["missing", "failing"])
def test_failed_build_stops_with_one_line_and_exit_code_2(
        compiler, tmp_path, monkeypatch, capsys, fresh_library):
    """A compiler that is missing or fails stops ``batch`` and ``gstar``
    before their first record: exit code 2, nothing on standard output, one
    ``kronkit:`` line on standard error that names the compiler and the
    cache, and no build left in the cache."""
    if compiler == "missing":
        command = str(tmp_path / "no-such-cc")
    else:
        command = shutil.which("false") or pytest.skip("no false on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "COMPILER", command)
    product_analysis._draw_trials.cache_clear()
    product_analysis._check_factor.cache_clear()
    all_graphs.cache_clear()
    with pytest.raises(KernelBuildError):
        _NativeSplitFlow(make_cycle(5))
    runs = [["batch", "--n", "3,4", "--all-graphs", "--max-order", "5"],
            ["gstar", "--n", "4", "--trials", "25", "--seed", "11",
             *(arg for g6 in GSTAR_FACTORS for arg in ("--g6", g6))]]
    for argv in runs:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert err.startswith("kronkit: ") and err.count("\n") == 1, err
        assert repr(command) in err and str(tmp_path / "kronkit") in err, err
    assert not list((tmp_path / "kronkit").iterdir())  # no build left behind


def test_every_kernel_source_ships_as_package_data():
    """An installed kronkit compiles its kernel from the sources installed
    with it, so each one must be listed as package data."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text(encoding="utf-8"))
    shipped = pyproject["tool"]["setuptools"]["package-data"]["kronkit"]
    for source in _native.SOURCES:
        assert any(fnmatch.fnmatchcase(source.name, pattern) for pattern in shipped), source


def test_build_removes_superseded_builds(tmp_path, monkeypatch, fresh_library):
    """A build deletes the cache's other builds with its own flags, those
    named before the flags had a field and the old flow kernel's, and spares
    itself, the builds with other flags, every build's temporary file,
    other files and what it cannot delete.  So builds with two sets of
    flags, such as the sanitized one and the plain one, both stay."""
    if shutil.which(_native.COMPILER) is None:
        pytest.skip(f"no {_native.COMPILER} on PATH")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "FLAGS", ("-O0", "-shared", "-fPIC"))
    cache = tmp_path / "kronkit"
    cache.mkdir()
    own, other = _native.library_path().name.split("-")[1], "0123abcd"
    stale = [f"kernel-{own}-0123456789abcdef-x86_64.so",
             "kernel-0123456789abcdef-x86_64.so", "kernel-fedcba9876543210-aarch64.so",
             "splitflow-0123456789abcdef-x86_64.so"]
    kept = [f"kernel-{other}-0123456789abcdef-x86_64.so",
            f"kernel-{own}-0123456789abcdef-x86_64abc123.tmp", "notes.txt"]
    for name in stale + kept:
        (cache / name).write_bytes(b"")
    undeletable = f"kernel-{own}-directory-x86_64.so"
    (cache / undeletable).mkdir()  # unlink fails on a directory
    _native.library()
    first = _native.library_path().name
    assert sorted(path.name for path in cache.iterdir()) == sorted(
        kept + [undeletable, first])
    _native.library.cache_clear()
    monkeypatch.setattr(_native, "FLAGS", ("-O0", "-shared", "-fPIC", "-g"))
    _native.library()
    second = _native.library_path().name
    assert second.split("-")[1] not in (own, other)
    assert sorted(path.name for path in cache.iterdir()) == sorted(
        kept + [undeletable, first, second])


CHILD = """
import sys
from kronkit import _native
print("ready", flush=True)
sys.stdin.readline()
_native.library()
"""


def test_concurrent_first_builds_share_one_cache(tmp_path):
    """Two processes that build into one empty cache at the same moment
    both load the kernel, and the cache ends with one complete library."""
    if shutil.which(_native.COMPILER) is None:
        pytest.skip(f"no {_native.COMPILER} on PATH")
    env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": str(SRC)}
    procs = [subprocess.Popen([sys.executable, "-c", CHILD], env=env, text=True,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE)
             for _ in range(2)]
    try:
        for proc in procs:
            assert proc.stdout.readline() == "ready\n"
        for proc in procs:  # both start building only now
            proc.stdin.write("\n")
            proc.stdin.flush()
        for proc in procs:
            proc.wait(timeout=300)
    finally:
        for proc in procs:
            proc.kill()
            proc.communicate()
    assert [proc.returncode for proc in procs] == [0, 0]
    (built,) = (tmp_path / "kronkit").iterdir()
    assert built.suffix == ".so"
