"""Tests for the core graph type, generators, and graph6 I/O."""

import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronkit.corpus import all_graphs
from kronkit.errors import Graph6Error, UnsupportedSizeError
from kronkit.graphs import (
    Graph,
    encode_graph6,
    is_connected,
    iter_bits,
    make_complete,
    make_cycle,
    parse_graph6,
    random_graph,
)

from oracles import (
    components,
    degrees,
    delete_vertex,
    edges,
    graph_from_edges,
    has_isolated,
    mask_of,
    encode_graph6_by_loops,
    naive_components,
    parse_graph6_by_loops,
    validate,
)


def graph_from_mask(order: int, pair_mask: int) -> Graph:
    """Build a graph from an integer encoding of the u<v pair set."""
    pairs = []
    idx = 0
    for u in range(order):
        for v in range(u + 1, order):
            if pair_mask >> idx & 1:
                pairs.append((u, v))
            idx += 1
    return graph_from_edges(order, pairs)


small_graphs = st.integers(min_value=0, max_value=13).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
).map(lambda t: graph_from_mask(*t))


# -- constructors --------------------------------------------------------

def test_complete_single_vertex():
    g = make_complete(1)
    assert g.order == 1 and g.edge_count == 0


def test_complete_k4():
    g = make_complete(4)
    assert g.order == 4
    assert g.edge_count == 6
    assert g.min_degree == 3
    validate(g)


def test_complete_rejects_zero():
    with pytest.raises(ValueError):
        make_complete(0)


def test_cycle_triangle():
    g = make_cycle(3)
    assert g.edge_count == 3
    assert g == make_complete(3)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9])
def test_cycle_is_2_regular(n):
    g = make_cycle(n)
    assert g.edge_count == n
    assert degrees(g) == [2] * n
    validate(g)


def test_cycle_rejects_small():
    with pytest.raises(ValueError):
        make_cycle(2)


def test_graph_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(0, 3)])


def test_empty_graph_is_permitted():
    g = graph_from_edges(0, [])
    validate(g)
    assert g.min_degree == 0
    assert is_connected(g)


# -- random graphs -------------------------------------------------------

def test_random_graph_extremes():
    assert random_graph(5, 0.0, 7).edge_count == 0
    assert random_graph(5, 1.0, 7) == make_complete(5)


def test_random_graph_determinism():
    a = random_graph(8, 0.5, 42)
    b = random_graph(8, 0.5, 42)
    assert a == b
    assert a != random_graph(8, 0.5, 43) or a.edge_count == 0


def test_random_graph_rejects_bad_probability():
    with pytest.raises(ValueError):
        random_graph(5, 1.5, 0)
    with pytest.raises(ValueError):
        random_graph(5, -0.1, 0)


def _numpy_random_graph(order, p, seed):
    """Oracle: the pairs in ``(u, v), u < v`` order against numpy's doubles."""
    rng = np.random.default_rng(seed % 2**64)
    return graph_from_edges(order, [(u, v) for u in range(order)
                                    for v in range(u + 1, order) if rng.random() < p])


@pytest.mark.parametrize("seed", [0, 7, -3, 2**32, 2**63, 2**64 - 1, 2**64 + 5])
@pytest.mark.parametrize("order, p", [(0, 0.5), (1, 0.5), (2, 0.5), (12, 0.3),
                                      (70, 0.5), (9, 1e-3), (9, 0.999)])
def test_random_graph_equals_numpy_draws(order, p, seed):
    assert random_graph(order, p, seed) == _numpy_random_graph(order, p, seed)


def test_random_graph_accepts_signed_64_bit_seeds():
    g = random_graph(6, 0.5, -3)
    assert g == random_graph(6, 0.5, -3)
    validate(g)


@given(small_graphs)
@settings(max_examples=150)
def test_constructed_graphs_are_valid(g):
    validate(g)
    degree = degrees(g)
    assert sum(degree) == 2 * g.edge_count
    if g.order:
        assert g.min_degree == min(degree)


def test_min_degree_is_kept_without_changing_the_value_semantics():
    """The minimum degree is computed on first read and kept, outside the
    fields: the graph still compares, hashes, prints and pickles by
    ``order`` and ``adj`` alone, and stays frozen."""
    g = make_cycle(5)
    text = repr(g)
    assert "min_degree" not in vars(g)  # lazy: building a graph computes nothing
    assert g.min_degree == 2 and vars(g)["min_degree"] == 2
    same = Graph(g.order, g.adj)
    assert g == same and hash(g) == hash(same) and repr(g) == text
    assert [f.name for f in dataclasses.fields(Graph)] == ["order", "adj"]
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and copy.min_degree == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.min_degree = 0
    assert g.min_degree == 2
    assert Graph(0, ()).min_degree == 0
    for order in range(8):
        for h in all_graphs(order):
            fresh = Graph(h.order, h.adj)
            assert fresh.min_degree == fresh.min_degree == min(map(int.bit_count, h.adj),
                                                                default=0)


# -- vertex deletion -----------------------------------------------------

def test_delete_vertex_of_complete():
    assert delete_vertex(make_complete(4), 2) == make_complete(3)


def test_delete_vertex_of_cycle_gives_path():
    g = delete_vertex(make_cycle(5), 0)
    assert g.order == 4 and g.edge_count == 3
    assert sorted(degrees(g)) == [1, 1, 2, 2]
    assert g.min_degree == 1  # drops from 2 to 1


def test_delete_vertex_relabeling_map():
    # edges around vertex 2 of C_5: old 1-2, 2-3 vanish; old 3-4 becomes 2-3
    g = delete_vertex(make_cycle(5), 2)
    assert set(edges(g)) == {(0, 1), (2, 3), (0, 4 - 1)}


def test_delete_vertex_out_of_range():
    with pytest.raises(ValueError):
        delete_vertex(make_cycle(3), 3)


def test_min_degree_after_deletion_on_c6():
    g = make_cycle(6)
    assert delete_vertex(g, 0).min_degree == 1
    assert delete_vertex(g, 0).min_degree >= g.min_degree - 1


def test_min_degree_drop_bounded_on_seeded_corpus():
    # every vertex deletion lowers each surviving degree by at most one
    checked = 0
    for seed in range(200):
        order = 2 + seed % 9
        g = random_graph(order, 0.1 + (seed % 8) * 0.1, seed)
        for v in range(order):
            h = delete_vertex(g, v)
            assert h.min_degree >= g.min_degree - 1
            for u in range(order):
                if u == v:
                    continue
                nu = u if u < v else u - 1
                drop = degrees(g)[u] - degrees(h)[nu]
                assert drop in (0, 1)
            checked += 1
    assert checked > 200


# -- traversal -----------------------------------------------------------

def test_connected_components_of_two_triangles():
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_connected(g)
    assert components(g.adj, g.full_mask()) == [0b000111, 0b111000]
    assert is_connected(make_cycle(6))


def _alive_sets(g: Graph, seed: int) -> list[set[int]]:
    rng = random.Random(seed)
    samples = [set(range(g.order)), set()]
    samples += [{v for v in range(g.order) if rng.random() < 0.6} for _ in range(4)]
    return samples


def test_bitmask_kernel_matches_set_based_versions():
    graphs = [g for order in range(1, 6) for g in all_graphs(order)]
    checked = 0
    for i, g in enumerate(graphs):
        for alive_set in _alive_sets(g, i):
            alive = mask_of(alive_set)
            assert alive == sum(2 ** v for v in alive_set)
            lonely = any(not set(iter_bits(g.adj[v])) & alive_set for v in alive_set)
            assert has_isolated(g.adj, alive) == lonely
            comps = components(g.adj, alive)
            assert [set(iter_bits(c)) for c in comps] == naive_components(g, alive_set)
            checked += 1
    assert checked == 6 * len(graphs) == 312


def test_mask_of_wide_and_repeated_ids():
    ids = [0, 63, 64, 70, 129, 64]
    assert mask_of(ids) == sum(2 ** v for v in set(ids))
    assert list(iter_bits(mask_of(ids))) == sorted(set(ids))
    assert mask_of([]) == 0


# -- graph6 --------------------------------------------------------------

def test_graph6_hand_encoded_values():
    assert encode_graph6(make_complete(1)) == "@"
    assert encode_graph6(make_complete(2)) == "A_"
    assert parse_graph6("A_") == make_complete(2)
    assert parse_graph6("@") == make_complete(1)


def test_graph6_round_trip_of_5_vertex_string():
    assert encode_graph6(parse_graph6("D?{")) == "D?{"


def test_graph6_rejects_empty():
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_graph6_error_offsets():
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D" + chr(20))
    assert err.value.offset == 1
    with pytest.raises(Graph6Error) as err:
        parse_graph6("D?")  # order 5 needs two payload groups
    assert err.value.offset == 2
    with pytest.raises(Graph6Error) as err:
        parse_graph6("A_?")
    assert err.value.offset == 2


def test_graph6_rejects_nonzero_padding():
    # K_2 payload uses 1 of 6 bits; set a padding bit
    with pytest.raises(Graph6Error):
        parse_graph6("A" + chr(0b110000 + 63))


MALFORMED_GRAPH6 = {
    "": ("empty graph6 string", 0),
    "\n": ("empty graph6 string", 0),
    "D" + chr(20): ("character '\\x14' outside graph6 alphabet", 1),
    "D?\x7f": ("character '\\x7f' outside graph6 alphabet", 2),
    "C\u00e9": ("character '\u00e9' outside graph6 alphabet", 1),
    "D?": ("edge payload truncated: order 5 needs 2 groups, got 1", 2),
    "A_?": ("trailing characters after edge payload", 2),
    "A" + chr(0b110000 + 63): ("nonzero padding bits", 1),
    "D?@": ("nonzero padding bits", 2),
    "~~??": ("8-byte size field is not supported", 1),
    "~?": ("truncated extended size field", 2),
    "~??": ("truncated extended size field", 3),
    "~??~": ("edge payload truncated: order 63 needs 326 groups, got 0", 4),
    "~??~" + "?" * 327: ("trailing characters after edge payload", 330),
    "~?@@" + "?" * 346 + "@": ("nonzero padding bits", 350),
}


@pytest.mark.parametrize("parse", [parse_graph6, parse_graph6_by_loops],
                         ids=["kernel", "oracle"])
@pytest.mark.parametrize("text", MALFORMED_GRAPH6, ids=lambda text: repr(text[:8]))
def test_graph6_malformed_input_keeps_its_message_and_offset(parse, text):
    """Every check stays in Python, so the kernel's parse raises what the
    bit-by-bit oracle raises, at the same byte offset."""
    message, offset = MALFORMED_GRAPH6[text]
    with pytest.raises(Graph6Error) as err:
        parse(text)
    assert str(err.value) == f"{message} (byte offset {offset})"
    assert err.value.offset == offset


def test_graph6_codec_equals_the_oracle_on_every_graph_to_order_8():
    for order in range(9):
        for g in all_graphs(order):
            text = encode_graph6(g)
            assert text == encode_graph6_by_loops(g)
            assert parse_graph6(text) == parse_graph6_by_loops(text) == g


@pytest.mark.parametrize("order", [62, 63, 64, 65, 91, 92, 127, 128, 129, 300])
@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
def test_graph6_codec_equals_the_oracle_across_mask_words(order, p):
    """Past 62 vertices the size field takes 3 bytes, past 64 a mask takes
    more than one word, and past 91 the payload passes the 4096 bits at which
    the encoder sets whole bytes aside."""
    g = random_graph(order, p, order)
    text = encode_graph6(g)
    assert text == encode_graph6_by_loops(g)
    assert text.startswith("~") == (order > 62)
    assert parse_graph6(text) == parse_graph6_by_loops(text) == g
    assert parse_graph6(text + "\n") == g



def test_graph6_round_trip_100_seeded_random_graphs():
    for seed in range(100):
        g = random_graph(1 + seed % 10, 0.4, seed)
        assert parse_graph6(encode_graph6(g)) == g


def test_graph6_extended_size_round_trip():
    g = random_graph(70, 0.05, 3)
    s = encode_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g


def test_graph6_oversize_rejected():
    g = Graph(300000, tuple([0] * 300000))
    with pytest.raises(UnsupportedSizeError):
        encode_graph6(g)


@given(small_graphs)
@settings(max_examples=200)
def test_graph6_round_trip_property(g):
    assert parse_graph6(encode_graph6(g)) == g
    assert encode_graph6(g) == encode_graph6_by_loops(g)


def test_graph6_matches_networkx_encoding():
    nx = pytest.importorskip("networkx")
    for seed in range(40):
        g = random_graph(2 + seed % 9, 0.5, seed + 1000)
        ours = encode_graph6(g)
        h = nx.Graph()
        h.add_nodes_from(range(g.order))
        h.add_edges_from(edges(g))
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert set(back.edges()) == set(edges(g))
