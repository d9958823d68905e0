"""Tests for exhaustive small-graph corpus generation."""

import ctypes
import itertools
import random
import re
from pathlib import Path

import pytest

from kronkit import _native
from kronkit.corpus import all_graphs, connected_graphs, graphs_up_to, iter_graphs
from kronkit.errors import UnsupportedSizeError
from kronkit.graphs import Graph, is_connected, make_complete, make_cycle

from oracles import (
    are_isomorphic,
    degrees,
    edges,
    graph_from_edges,
    refined_colors,
    search_corpus,
    validate,
)

# published counts of graphs / connected graphs on n vertices
ALL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


@pytest.mark.parametrize("order,count", sorted(ALL_COUNTS.items()))
def test_all_graph_counts_match_published_values(order, count):
    assert len(all_graphs(order)) == count


@pytest.mark.parametrize("order,count", sorted(CONNECTED_COUNTS.items()))
def test_connected_graph_counts_match_published_values(order, count):
    assert len(connected_graphs(order)) == count


def test_connected_corpus_members_are_connected_and_valid():
    for g in graphs_up_to(6):
        validate(g)
        assert is_connected(g)


def test_no_duplicates_up_to_order_5():
    pool = list(all_graphs(5))
    for a, b in itertools.combinations(pool, 2):
        assert not are_isomorphic(a, b)


def test_known_graphs_are_present():
    four = connected_graphs(4)
    assert any(are_isomorphic(g, make_complete(4)) for g in four)
    assert any(are_isomorphic(g, make_cycle(4)) for g in four)
    five = connected_graphs(5)
    assert any(are_isomorphic(g, make_cycle(5)) for g in five)


def test_isomorphism_test_basics():
    assert are_isomorphic(make_cycle(3), make_complete(3))
    assert not are_isomorphic(make_cycle(4), make_complete(4))
    # same degree sequence, different structure: C_6 vs two triangles
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (0, 2),
                                         (3, 4), (4, 5), (3, 5)])
    assert not are_isomorphic(make_cycle(6), two_triangles)
    relabeled = graph_from_edges(6, [(5, 1), (1, 3), (5, 3),
                                     (0, 2), (2, 4), (0, 4)])
    assert are_isomorphic(two_triangles, relabeled)


def test_generation_is_deterministic():
    a = [g.adj for g in connected_graphs(5)]
    connected_graphs.cache_clear()
    b = [g.adj for g in connected_graphs(5)]
    assert a == b


@pytest.fixture
def lib():
    return _native.library()


def test_search_route_keeps_the_kernel_routes_representatives():
    """The fingerprint-and-search oracle builds both corpora graph for
    graph, in the same order, as the kernel's canonical key does."""
    kernel = [(all_graphs(k), connected_graphs(k)) for k in range(1, 8)]
    search = list(zip(search_corpus(7, connected=False),
                      search_corpus(7, connected=True)))
    assert search == kernel


@pytest.mark.parametrize("corpus", [all_graphs, connected_graphs])
def test_orders_past_the_canonical_key_raise_before_building(corpus):
    """The kernel's key covers 16 vertices.  Order 17 raises on entry,
    without building order 16 first, which would not finish."""
    all_graphs.cache_clear()
    connected_graphs.cache_clear()
    with pytest.raises(UnsupportedSizeError, match="order 16, got 17"):
        corpus(17)
    assert all_graphs.cache_info().currsize == 0
    assert connected_graphs.cache_info().currsize == 0


def test_iter_graphs_checks_the_order_at_the_call():
    all_graphs.cache_clear()
    with pytest.raises(UnsupportedSizeError, match="order 16, got 17"):
        iter_graphs(17)
    with pytest.raises(ValueError, match="order must be >= 0"):
        iter_graphs(-1)
    assert all_graphs.cache_info().currsize == 0


def test_streamed_layer_equals_the_cached_corpus_to_order_8():
    """The layer streamed from the kernel is the cached tuple, graph for
    graph and in the same order."""
    for order in range(9):
        assert list(iter_graphs(order)) == list(all_graphs(order))


def _first_slots() -> int:
    """The slots of a new key table, as ``_canon.c`` defines them."""
    source = Path(_native.__file__).with_name("_canon.c").read_text(encoding="utf-8")
    return int(re.search(r"#define SEEN_FIRST_SLOTS (\d+)", source).group(1))


def test_key_table_grows_and_keeps_every_key(lib):
    """All 12346 graphs of order 8, more than twelve times the slots of a
    new table, are new once; fed again to the grown table, none is.  An
    order past 16 is refused."""
    children = (ctypes.c_uint64 * (8 << 7))()
    seen = lib.canon_seen_new()

    def new_children(parent):
        found = lib.canon_new_children(seen, 8, _native.words(parent.adj, 1), 0, children)
        masks = children[:8 * found]
        return [tuple(masks[i:i + 8]) for i in range(0, len(masks), 8)]
    try:
        layer = [adj for parent in all_graphs(7) for adj in new_children(parent)]
        assert layer == [g.adj for g in all_graphs(8)]
        assert len(layer) == 12346 > 12 * _first_slots()
        assert not any(new_children(parent) for parent in all_graphs(7))
        assert lib.canon_new_children(seen, 17, _native.words([0] * 16, 1), 0,
                                      children) == -1
    finally:
        lib.canon_seen_free(seen)


@pytest.fixture
def fresh_corpora():
    """Empty corpus caches, so that each layer is built afresh."""
    all_graphs.cache_clear()
    connected_graphs.cache_clear()
    yield
    all_graphs.cache_clear()
    connected_graphs.cache_clear()


def test_failed_table_growth_raises_memory_error_and_frees_the_table(
        kernel, fresh_corpora, monkeypatch):
    """A table that cannot grow at order 4 raises MemoryError there, whether
    the layer is built whole or streamed, and every table is freed."""
    def new_children(seen, order, *args):
        if order == 4:
            return _native.NO_MEMORY
        return kernel.lib.canon_new_children(seen, order, *args)

    monkeypatch.setattr(kernel, "canon_new_children", new_children, raising=False)
    with pytest.raises(MemoryError):
        all_graphs(4)
    stream = iter_graphs(4)
    with pytest.raises(MemoryError):
        next(stream)
    assert kernel.calls["canon_seen_new"] == kernel.calls["canon_seen_free"] == 4 + 1


def test_failed_table_allocation_raises_memory_error(kernel, fresh_corpora, monkeypatch):
    """A table that cannot be allocated raises MemoryError, with nothing
    to free."""
    monkeypatch.setattr(kernel, "canon_seen_new", lambda: None, raising=False)
    with pytest.raises(MemoryError):
        connected_graphs(3)
    assert kernel.calls["canon_new_children"] == kernel.calls["canon_seen_free"] == 0


def test_abandoned_stream_frees_the_table(kernel, fresh_corpora):
    """A stream closed before its end frees its table."""
    stream = iter_graphs(8)
    assert next(stream) == Graph(8, (0,) * 8)
    assert kernel.calls["canon_seen_free"] == 7  # orders 1 to 7, built whole
    stream.close()
    assert kernel.calls["canon_seen_new"] == kernel.calls["canon_seen_free"] == 8


def _key(lib, g: Graph) -> bytes:
    key = (ctypes.c_uint64 * 2)()
    assert lib.canon_key(g.order, (ctypes.c_uint64 * g.order)(*g.adj), key) == 0
    return bytes(key)


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.order))
    rng.shuffle(perm)
    return graph_from_edges(g.order, [(perm[u], perm[v]) for u, v in edges(g)])


def test_keys_are_relabelling_invariant_and_distinct_up_to_order_7(lib):
    rng = random.Random(7)
    for order in range(8):
        keys = set()
        for g in all_graphs(order):
            key = _key(lib, g)
            assert all(_key(lib, _relabel(g, rng)) == key for _ in range(3)), g
            keys.add(key)
        assert len(keys) == len(all_graphs(order))


def _rook() -> Graph:
    """K_4 x K_4 in the Cartesian sense: cells of a 4x4 board sharing a
    row or a column."""
    return graph_from_edges(16, [(u, v) for u, v in itertools.combinations(range(16), 2)
                                 if u // 4 == v // 4 or u % 4 == v % 4])


def _shrikhande() -> Graph:
    """The Cayley graph of Z_4 x Z_4 on (0, 1), (1, 0) and (1, 1)."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    return graph_from_edges(16, [
        (u, v) for u, v in itertools.combinations(range(16), 2)
        if ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4) in steps])


NAMED = {
    "K16": lambda: make_complete(16),
    "empty16": lambda: Graph(16, (0,) * 16),
    "K3,5": lambda: graph_from_edges(8, [(u, v) for u in range(3) for v in range(3, 8)]),
    "K8,8": lambda: graph_from_edges(16, [(u, v) for u in range(8) for v in range(8, 16)]),
    "petersen": lambda: graph_from_edges(10, [(i, (i + 1) % 5) for i in range(5)]
                                         + [(i, i + 5) for i in range(5)]
                                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]),
    "Q4": lambda: graph_from_edges(16, [(u, u ^ 1 << b) for u in range(16)
                                        for b in range(4) if u < u ^ 1 << b]),
    "rook4x4": _rook,
    "shrikhande": _shrikhande,
}


@pytest.mark.parametrize("name", NAMED)
def test_named_graph_keys_are_relabelling_invariant(lib, name):
    g = NAMED[name]()
    validate(g)
    rng = random.Random(name)
    key = _key(lib, g)
    assert all(_key(lib, _relabel(g, rng)) == key for _ in range(3))


def test_individualisation_separates_rook_from_shrikhande(lib):
    """Both are srg(16, 6, 2, 2), so refinement leaves each in one cell; only
    individualising vertices tells them apart."""
    rook, shrikhande = _rook(), _shrikhande()
    for g in (rook, shrikhande):
        assert len(set(refined_colors(g))) == 1
    assert degrees(rook) == degrees(shrikhande) == [6] * 16
    assert not are_isomorphic(rook, shrikhande)
    assert _key(lib, rook) != _key(lib, shrikhande)
