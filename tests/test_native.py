"""The C split-flow kernel against the Python network kept as the oracle
(``_SplitFlow`` in ``oracles.py``), at every graph size: identical flows,
residual networks, separators, cut lists and charged searches, with the
kernel's node masks of two words up to 64 vertices and of ``ceil(2n / 64)``
words past them; the build on first use into the per-user cache, and the
clean stop when the kernel cannot be built."""

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
    enumerate_min_cuts,
    vertex_connectivity,
)
from kronkit.cli import main
from kronkit.corpus import all_graphs, connected_graphs
from kronkit.errors import BudgetExceededError, KernelBuildError, PreconditionError
from kronkit.graphs import is_connected, make_complete, make_cycle, parse_graph6
from kronkit.products import kronecker

from oracles import _SplitFlow, brute_force_min_cuts, edges, graph_from_edges, two_cycles

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_library(request):
    """Forget the loaded kernel before and after the test, so that it loads
    again under the test's cache and compiler."""
    _native.library.cache_clear()
    request.addfinalizer(_native.library.cache_clear)


def _masks(out, order: int) -> list[int]:
    """A kernel residual network as one mask per node, as the oracle keeps
    it."""
    return _native.masks(out, len(out) // (2 * order))


def _spy(monkeypatch) -> list:
    """Record every network that the flow routes build."""
    nets = []
    network = _NativeSplitFlow

    def recorded(g, budget=None):
        nets.append(network(g, budget))
        return nets[-1]

    monkeypatch.setattr(connectivity, "_NativeSplitFlow", recorded)
    return nets


class _CountingLibrary:
    """The kernel library, counting the calls into each of its functions,
    and recording the cut capacity of each ``splitflow_min_cuts`` call."""

    def __init__(self, lib):
        self.lib = lib
        self.calls = Counter()
        self.capacities = []

    def __getattr__(self, name):
        fn = getattr(self.lib, name)

        def call(*args):
            self.calls[name] += 1
            if name == "splitflow_min_cuts":
                self.capacities.append(args[3])
            return fn(*args)
        return call


@pytest.fixture
def kernel(monkeypatch):
    """The kernel library that the flow routes call, counting the calls."""
    counting = _CountingLibrary(_native.library())
    monkeypatch.setattr(_native, "library", lambda: counting)
    return counting


def _k44_times_k3():
    return kronecker(graph_from_edges(8, [(a, b) for a in range(4)
                                          for b in range(4, 8)]),
                     make_complete(3))


def _hypercube(d: int):
    return graph_from_edges(1 << d, [(v, v | 1 << i) for v in range(1 << d)
                                     for i in range(d) if not v >> i & 1])


def _kernel_and_oracle(pg, labels, nets) -> tuple:
    """The cut list and the searches spent of one enumeration, by the kernel
    through :func:`enumerate_min_cuts` (whose network ``nets`` records) and
    by the oracle."""
    cuts = enumerate_min_cuts(pg, labels=labels)
    oracle = _SplitFlow(pg)
    return (cuts, nets[-1].spent), (oracle.min_cuts(pg, labels), oracle.spent)


def _oracle_connectivity(g) -> tuple[int, int]:
    """:func:`vertex_connectivity` of a connected ``g`` on the oracle, and
    the searches it spent."""
    net, best = _SplitFlow(g), g.order - 1
    for s, t in _even_pairs(g, 1):
        best = min(best, net.max_flow(s, t, best)[0])
    return best, net.spent


def _agree(oracle, net, s, t, cutoff, case) -> int:
    value, out = oracle.max_flow(s, t, cutoff)
    native_value, native_out = net.max_flow(s, t, cutoff)
    assert (native_value, net.spent) == (value, oracle.spent), case
    assert _masks(native_out, oracle.order) == out, case
    assert net.min_separators(s, t, native_out) \
        == oracle.min_separators(s, t, out), case
    assert net.spent == oracle.spent, case
    return value


def test_kernels_agree_on_every_even_pair_of_products_to_order_6(connected_upto_6):
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
            oracle, net = _SplitFlow(pg), _NativeSplitFlow(pg)
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
def test_products_up_to_the_word_boundary(g, n, monkeypatch):
    """Products of up to 64 vertices, whose 128 nodes fill the kernel's
    two-word masks, agree with the oracle on the connectivity, the cuts and
    the searches, and with networkx on the connectivity."""
    nx = pytest.importorskip("networkx")
    pg = kronecker(g, make_complete(n))
    nets = _spy(monkeypatch)
    kappa = vertex_connectivity(pg)
    assert (kappa, nets[-1].spent) == _oracle_connectivity(pg)
    ours, oracle = _kernel_and_oracle(pg, n, nets)
    assert ours == oracle
    h = nx.Graph()
    h.add_nodes_from(range(pg.order))
    h.add_edges_from(edges(pg))
    assert kappa == nx.node_connectivity(h) == len(ours[0][0].vertices)


PAST_THE_WORD_BOUNDARY = [
    # name, factor, n, kappa, minimum cuts
    ("C13xK5", make_cycle(13), 5, 8, 65),
    ("K9xK9", make_complete(9), 9, 64, 81),  # more cuts than the default buffer
    ("Q5xK4", _hypercube(5), 4, 15, 128),
    ("Q6xK3", _hypercube(6), 3, 12, 192),  # ids and witnesses past 127
    ("C86xK3", make_cycle(86), 3, 4, 258),  # ids and witnesses past 255
]


@pytest.mark.parametrize("g, n, kappa, count",
                         [case[1:] for case in PAST_THE_WORD_BOUNDARY],
                         ids=[case[0] for case in PAST_THE_WORD_BOUNDARY])
def test_products_past_the_word_boundary(g, n, kappa, count, monkeypatch):
    """Products past 64 vertices take the kernel's multiword masks and give
    the oracle's connectivity, cut list and searches."""
    pg = kronecker(g, make_complete(n))
    assert pg.order > 64
    nets = _spy(monkeypatch)
    assert (vertex_connectivity(pg), nets[-1].spent) == (kappa, _oracle_connectivity(pg)[1])
    ours, oracle = _kernel_and_oracle(pg, n, nets)
    assert ours == oracle
    cuts = ours[0]
    assert len(cuts) == count and {len(cut.vertices) for cut in cuts} == {kappa}
    assert max(cut.vertices[-1] for cut in cuts) == pg.order - 1
    assert max(cut.witness for cut in cuts if cut.isolates) == pg.order - 1


BUDGETED = [("K44xK3", _k44_times_k3(), 3, 9, 223),
            ("K4xK17", kronecker(make_complete(4), make_complete(17)), 17, 68, 149)]


def test_budget_runs_out_at_the_same_search_on_both_kernels(kernel, monkeypatch):
    """K_{4,4} x K_3 needs 223 searches, and K_4 x K_17, past the word
    boundary, 149.  Every smaller budget stops the kernel and the oracle at
    their first search past the budget, also while the kernel's result
    buffer, cut down to one cut, has to grow and search again."""
    monkeypatch.setattr(connectivity, "_NATIVE_CUTS", 1)
    nets = _spy(monkeypatch)
    for name, pg, labels, count, searches in BUDGETED:
        oracle = _SplitFlow(pg)
        expected = oracle.min_cuts(pg, labels)
        assert oracle.spent == searches, name
        for budget in range(searches):
            with pytest.raises(BudgetExceededError) as err:
                enumerate_min_cuts(pg, budget=budget, labels=labels)
            assert err.value.budget == budget
            assert nets[-1].spent == budget + 1, (name, budget)
            with pytest.raises(BudgetExceededError):
                _SplitFlow(pg, budget).min_cuts(pg, labels)
        kernel.capacities.clear()
        cuts = enumerate_min_cuts(pg, budget=searches, labels=labels)
        assert cuts == expected and len(cuts) == count
        assert nets[-1].spent == searches
        assert kernel.capacities[0] == 1 < kernel.capacities[-1]  # the buffer grew


def test_one_kernel_call_per_enumeration_matches_the_python_route(
        connected_upto_6, kernel, monkeypatch):
    """Every connected ``G x K_n``, G to order 6 and n = 3, 4, 5, and the
    complete graphs, which have no pairs: the enumeration makes one call
    into the kernel past building the network, and gives the oracle's cut
    list and searches."""
    cases = [(kronecker(g, make_complete(n)), n)
             for g in connected_upto_6 for n in (3, 4, 5)]
    cases = [(pg, n) for pg, n in cases if is_connected(pg)]
    cases += [(make_complete(k), 1) for k in range(2, 9)]
    nets = _spy(monkeypatch)
    cuts = 0
    for pg, n in cases:
        ours, oracle = _kernel_and_oracle(pg, n, nets)
        assert ours == oracle, (pg, n)
        cuts += len(oracle[0])
    assert kernel.calls == {"splitflow_init": len(cases),
                            "splitflow_min_cuts": len(cases)}
    assert (len(cases), cuts) == (433, 2915)


def test_cut_buffer_grows_past_its_default_size(kernel, monkeypatch):
    """The kernel writes each distinct cut once.  K_{4,4} x K_3 has 9
    minimum cuts, which its kept pairs separate 67 times in all: one call
    fills the default buffer with the 9, charging its 223 searches.  C_16
    has 104 minimum cuts, more than the default buffer holds: the kernel is
    called again into a grown buffer, charging the same searches once."""
    nets = _spy(monkeypatch)
    ours, oracle = _kernel_and_oracle(_k44_times_k3(), 3, nets)
    assert ours == oracle
    assert len(oracle[0]) == 9 and oracle[1] == 223
    assert kernel.capacities == [connectivity._NATIVE_CUTS]
    ours, oracle = _kernel_and_oracle(make_cycle(16), 1, nets)
    assert ours == oracle
    assert len(oracle[0]) == 104 > connectivity._NATIVE_CUTS
    assert kernel.capacities[:2] == [connectivity._NATIVE_CUTS] * 2
    assert kernel.capacities[2] >= 104 and len(kernel.capacities) == 3


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
        ours, oracle = _kernel_and_oracle(pg, n, nets)
        assert ours == oracle, (g, n)
        assert oracle[0] == brute_force_min_cuts(pg), (g, n)
        products += 1
    assert products == {3: 30, 4: 30, 5: 9}[n]


def test_buffer_that_holds_the_cuts_of_the_pairs_but_not_their_closure(
        kernel, monkeypatch):
    """The kept pairs of K_{4,4} x K_4 separate 5 of its 8 minimum cuts,
    and the label swaps give the other 3.  A buffer of 5 cuts holds what
    the pairs separate and fills during the closure: the kernel is called
    again into a grown buffer, charging the same 195 searches once, and
    gives the oracle's list."""
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
    ours, oracle = _kernel_and_oracle(pg, 4, nets)
    assert ours == oracle
    cuts, spent = oracle
    assert (len(cuts), spent) == (8, 195)
    assert separated < {sum(1 << v for v in cut.vertices) for cut in cuts}
    assert kernel.capacities == [5, 10]  # the buffer doubles


DISCONNECTED = [
    ("2C5", two_cycles(5)),
    ("2C32", two_cycles(32)),
    ("P63+K1", graph_from_edges(64, [(v, v + 1) for v in range(62)])),
    ("2C33", two_cycles(33)),
]


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


def test_failed_kernel_allocation_raises_memory_error():
    net = _NativeSplitFlow(make_cycle(5))
    with pytest.raises(MemoryError):
        net._regrown(connectivity._NO_MEMORY, connectivity._NATIVE_CUTS, 0)


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


def test_native_route_is_taken_when_a_compiler_is_present(kernel):
    """Every flow and every enumeration runs in the kernel."""
    if shutil.which(_native.COMPILER) is None:
        pytest.skip(f"no {_native.COMPILER} on PATH")
    assert vertex_connectivity(make_cycle(5)) == 2
    assert len(enumerate_min_cuts(make_cycle(5))) == 5
    assert kernel.calls == {"splitflow_init": 2, "splitflow_max_flow": 3,
                            "splitflow_min_cuts": 1}


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
