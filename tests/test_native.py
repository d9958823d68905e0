"""The C split-flow kernel against the Python one, which stays as the
route past 64 vertices and as the oracle: identical flows, residual
networks, separators and charged searches, the route each graph size takes,
the build on first use into the per-user cache, and the clean stop when
the kernel cannot be built."""

import os
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from kronkit import _native, connectivity, product_analysis
from kronkit.connectivity import (
    _even_pairs,
    _NativeSplitFlow,
    _split_flow,
    _SplitFlow,
    enumerate_min_cuts,
    vertex_connectivity,
)
from kronkit.cli import main
from kronkit.corpus import all_graphs, connected_graphs
from kronkit.errors import BudgetExceededError, KernelBuildError, PreconditionError
from kronkit.graphs import is_connected, make_complete, make_cycle, parse_graph6
from kronkit.products import kronecker

from oracles import brute_force_min_cuts, edges, graph_from_edges, two_cycles

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def native():
    lib = _native.library()
    return lambda g: _NativeSplitFlow(g, None, lib)


@pytest.fixture
def fresh_library(request):
    """Forget the loaded kernel before and after the test, so that it loads
    again under the test's cache and compiler."""
    _native.library.cache_clear()
    request.addfinalizer(_native.library.cache_clear)


def _masks(out) -> list[int]:
    """A native residual network as one mask per node, as Python keeps it."""
    return [out[i] | out[i + 1] << 64 for i in range(0, len(out), 2)]


def _spy(monkeypatch) -> list:
    """Record every network the flow routes build."""
    nets = []

    def recorded(g, budget):
        nets.append(_split_flow(g, budget))
        return nets[-1]

    monkeypatch.setattr(connectivity, "_split_flow", recorded)
    return nets


class _CountingLibrary:
    """The kernel library, counting the calls into each of its functions."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = Counter()

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def call(*args):
            self.calls[name] += 1
            return fn(*args)
        return call


@pytest.fixture
def kernel_calls(monkeypatch):
    """The calls that the flow routes make into the kernel, by function."""
    counting = _CountingLibrary(_native.library())
    monkeypatch.setattr(_native, "library", lambda: counting)
    return counting.calls


def _k44_times_k3():
    return kronecker(graph_from_edges(8, [(a, b) for a in range(4)
                                          for b in range(4, 8)]),
                     make_complete(3))


def _hypercube(d: int):
    return graph_from_edges(1 << d, [(v, v | 1 << i) for v in range(1 << d)
                                     for i in range(d) if not v >> i & 1])


def _agree(oracle, net, s, t, cutoff, case) -> int:
    value, out = oracle.max_flow(s, t, cutoff)
    native_value, native_out = net.max_flow(s, t, cutoff)
    assert (native_value, net.spent) == (value, oracle.spent), case
    assert _masks(native_out) == out, case
    assert net.min_separators(s, t, native_out) \
        == oracle.min_separators(s, t, out), case
    assert net.spent == oracle.spent, case
    return value


def test_kernels_agree_on_every_even_pair_of_products_to_order_6(
        connected_upto_6, native):
    """Every pair of Even's family of every connected ``G x K_n``, G to
    order 6 and n = 3, 4, 5, on one network per product: the same flow
    value, searches spent, residual network and separators, at the cutoff
    the routes start from and at every cutoff below the flow."""
    cases = 0
    for g in connected_upto_6:
        for n in (3, 4, 5):
            pg = kronecker(g, make_complete(n))
            if not is_connected(pg):
                continue
            oracle, net = _SplitFlow(pg), native(pg)
            for s, t in _even_pairs(pg, 1):
                value = _agree(oracle, net, s, t, pg.order - 1, (g, n, s, t))
                for cutoff in range(value):
                    _agree(oracle, net, s, t, cutoff, (g, n, s, t, cutoff))
                cases += 1 + value
    assert cases == 102822


WORD_BOUNDARY = [
    ("C12xK5", make_cycle(12), 5),
    ("Q4xK4", _hypercube(4), 4),
    ("K8xK8", make_complete(8), 8),
] + [(f"order7-{i}xK5", connected_graphs(7)[i], 5) for i in range(0, 853, 200)]


@pytest.mark.parametrize("g, n", [case[1:] for case in WORD_BOUNDARY],
                         ids=[case[0] for case in WORD_BOUNDARY])
def test_products_up_to_the_word_boundary(g, n, native, monkeypatch):
    """Products of up to 64 vertices, whose 128 nodes fill the kernel's
    masks, take the native route and agree with the Python kernel on the
    cuts and the searches, and with networkx on the connectivity."""
    nx = pytest.importorskip("networkx")
    pg = kronecker(g, make_complete(n))
    nets = _spy(monkeypatch)
    results = {}
    for max_order, kind in ((64, _NativeSplitFlow), (0, _SplitFlow)):
        monkeypatch.setattr(connectivity, "_NATIVE_MAX_ORDER", max_order)
        kappa = vertex_connectivity(pg)
        cuts = enumerate_min_cuts(pg, labels=n)
        assert [type(net) for net in nets] == [kind, kind]
        results[kind] = (kappa, cuts, [net.spent for net in nets])
        nets.clear()
    assert results[_NativeSplitFlow] == results[_SplitFlow]
    h = nx.Graph()
    h.add_nodes_from(range(pg.order))
    h.add_edges_from(edges(pg))
    assert kappa == nx.node_connectivity(h) == len(cuts[0].vertices)


def test_products_past_the_word_boundary_take_the_python_route():
    pg = kronecker(make_cycle(13), make_complete(5))
    assert pg.order == 65
    assert type(_split_flow(pg, None)) is _SplitFlow
    assert vertex_connectivity(pg) == 8


def test_budget_runs_out_at_the_same_search_on_both_kernels(native, monkeypatch):
    """K_{4,4} x K_3 needs 223 searches.  Every smaller budget stops both
    kernels at its first search past the budget, also while the native
    result buffer, cut down to one cut, has to grow and search again."""
    pg = _k44_times_k3()
    monkeypatch.setattr(connectivity, "_NATIVE_CUTS", 1)
    nets = _spy(monkeypatch)
    for max_order, kind in ((64, _NativeSplitFlow), (0, _SplitFlow)):
        monkeypatch.setattr(connectivity, "_NATIVE_MAX_ORDER", max_order)
        for budget in range(223):
            with pytest.raises(BudgetExceededError) as err:
                enumerate_min_cuts(pg, budget=budget, labels=3)
            assert err.value.budget == budget
            assert type(nets[-1]) is kind and nets[-1].spent == budget + 1
        cuts = enumerate_min_cuts(pg, budget=223, labels=3)
        assert len(cuts) == 9 and nets[-1].spent == 223
    assert len(nets[223]._cuts) > 1  # the native buffer grew


def _both_routes(pg, labels, nets, monkeypatch) -> dict:
    """The cut list and the searches spent of one enumeration on each
    route, by network type."""
    results = {}
    for max_order in (64, 0):
        monkeypatch.setattr(connectivity, "_NATIVE_MAX_ORDER", max_order)
        cuts = enumerate_min_cuts(pg, labels=labels)
        results[type(nets[-1])] = (cuts, nets[-1].spent)
    return results


def test_one_kernel_call_per_enumeration_matches_the_python_route(
        connected_upto_6, kernel_calls, monkeypatch):
    """Every connected ``G x K_n``, G to order 6 and n = 3, 4, 5, and the
    complete graphs, which have no pairs: the native enumeration makes one
    call into the kernel past building the network, and gives the Python
    route's cut list and searches."""
    cases = [(kronecker(g, make_complete(n)), n)
             for g in connected_upto_6 for n in (3, 4, 5)]
    cases = [(pg, n) for pg, n in cases if is_connected(pg)]
    cases += [(make_complete(k), 1) for k in range(2, 9)]
    nets = _spy(monkeypatch)
    cuts = 0
    for pg, n in cases:
        results = _both_routes(pg, n, nets, monkeypatch)
        assert results[_NativeSplitFlow] == results[_SplitFlow], (pg, n)
        cuts += len(results[_SplitFlow][0])
    assert kernel_calls == {"splitflow_init": len(cases),
                            "splitflow_min_cuts": len(cases)}
    assert (len(cases), cuts) == (433, 2915)


def test_cut_buffer_grows_past_its_default_size(kernel_calls, monkeypatch):
    """The kernel writes each distinct cut once.  K_{4,4} x K_3 has 9
    minimum cuts, which its kept pairs separate 67 times in all: one call
    fills the default buffer with the 9, charging its 223 searches.  C_16
    has 104 minimum cuts, more than the default buffer holds: the kernel is
    called again into a grown buffer, charging the same searches once."""
    nets = _spy(monkeypatch)
    results = _both_routes(_k44_times_k3(), 3, nets, monkeypatch)
    assert results[_NativeSplitFlow] == results[_SplitFlow]
    assert len(results[_SplitFlow][0]) == 9 and results[_SplitFlow][1] == 223
    assert len(nets[0]._cuts) == connectivity._NATIVE_CUTS
    assert kernel_calls["splitflow_min_cuts"] == 1
    results = _both_routes(make_cycle(16), 1, nets, monkeypatch)
    assert results[_NativeSplitFlow] == results[_SplitFlow]
    assert len(results[_SplitFlow][0]) == 104 > connectivity._NATIVE_CUTS
    assert len(nets[2]._cuts) >= 104
    assert kernel_calls["splitflow_min_cuts"] == 3


@pytest.mark.parametrize("n, max_order", [(3, 5), (4, 5), (5, 4)])
def test_finished_cut_lists_equal_the_twin_and_the_subset_scan(
        n, max_order, monkeypatch):
    """At labels 3, 4 and 5 the kernel closes, sorts and classifies the
    cuts itself: on every connected ``G x K_n`` of at most 20 vertices its
    list equals the Python network's, with the same searches, and the
    subset scan's, which knows no labels."""
    nets = _spy(monkeypatch)
    products = 0
    for g in (g for order in range(1, max_order + 1) for g in connected_graphs(order)):
        pg = kronecker(g, make_complete(n))
        if not is_connected(pg):
            continue
        results = _both_routes(pg, n, nets, monkeypatch)
        assert results[_NativeSplitFlow] == results[_SplitFlow], (g, n)
        assert results[_SplitFlow][0] == brute_force_min_cuts(pg), (g, n)
        products += 1
    assert products == {3: 30, 4: 30, 5: 9}[n]


def test_buffer_that_holds_the_cuts_of_the_pairs_but_not_their_closure(
        kernel_calls, monkeypatch):
    """The kept pairs of K_{4,4} x K_4 separate 5 of its 8 minimum cuts,
    and the label swaps give the other 3.  A buffer of 5 cuts holds what
    the pairs separate and fills during the closure: the kernel is called
    again into a grown buffer, charging the same 195 searches once, and
    gives the Python network's list."""
    pg = kronecker(parse_graph6("G?~vf_"), make_complete(4))
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
    monkeypatch.setattr(connectivity, "_NATIVE_CUTS", 5)
    nets = _spy(monkeypatch)
    results = _both_routes(pg, 4, nets, monkeypatch)
    assert results[_NativeSplitFlow] == results[_SplitFlow]
    cuts, spent = results[_SplitFlow]
    assert (len(cuts), spent) == (8, 195)
    assert separated < {sum(1 << v for v in cut.vertices) for cut in cuts}
    assert kernel_calls["splitflow_min_cuts"] == 2
    assert len(nets[0]._cuts) == 10  # the buffer doubles


DISCONNECTED = [
    ("2C5", two_cycles(5), (64, 0)),
    ("2C32", two_cycles(32), (64, 0)),
    ("P63+K1", graph_from_edges(64, [(v, v + 1) for v in range(62)]), (64, 0)),
    ("2C33", two_cycles(33), (64,)),
]


@pytest.mark.parametrize("g, max_orders", [case[1:] for case in DISCONNECTED],
                         ids=[case[0] for case in DISCONNECTED])
def test_disconnected_graph_is_refused_before_any_search(
        g, max_orders, kernel_calls, monkeypatch):
    """Each network refuses a disconnected graph itself, before its first
    charged search, so a budget of 0 still gets the precondition's error:
    the kernel by its own search of the adjacency masks, in the one call
    that enumerates, and the Python network, which graphs past 64 vertices
    take, by ``is_connected``."""
    nets = _spy(monkeypatch)
    for max_order in max_orders:
        monkeypatch.setattr(connectivity, "_NATIVE_MAX_ORDER", max_order)
        kind = _NativeSplitFlow if g.order <= max_order else _SplitFlow
        for budget in (None, 0):
            with pytest.raises(PreconditionError,
                               match="^min-cut enumeration needs a connected graph$"):
                enumerate_min_cuts(g, budget=budget)
            assert type(nets[-1]) is kind and nets[-1].spent == 0
    assert kernel_calls["splitflow_min_cuts"] == (2 if g.order <= 64 else 0)


def test_failed_kernel_allocation_raises_memory_error(native):
    net = native(make_cycle(5))
    with pytest.raises(MemoryError):
        net._regrown(connectivity._NO_MEMORY, 0)


def test_kernel_compiles_without_warnings():
    """Every kernel source stays clean under the compiler's common warnings."""
    if shutil.which(_native.COMPILER) is None:
        pytest.skip(f"no {_native.COMPILER} on PATH")
    assert [source.name for source in _native.SOURCES] == [
        "_splitflow.c", "_canon.c", "_residue.c"]
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


def test_native_route_is_taken_when_a_compiler_is_present():
    if shutil.which(_native.COMPILER) is None:
        pytest.skip(f"no {_native.COMPILER} on PATH")
    assert type(_split_flow(make_cycle(5), None)) is _NativeSplitFlow


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
        _split_flow(make_cycle(5), None)
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
    assert {source.name for source in _native.SOURCES} <= set(shipped)


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
