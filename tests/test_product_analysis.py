"""Tests for residue systems, the auxiliary graph, and verification records."""

import concurrent.futures
import ctypes
import itertools
import random
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest

from kronkit.connectivity import vertex_connectivity
from kronkit.corpus import all_graphs, connected_graphs
from kronkit.errors import PreconditionError
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
from kronkit.product_analysis import (
    BatchSummary,
    SkipRecord,
    TrialRecord,
    VerificationReport,
    batch_verify,
    build_gstar,
    check_gstar_connected,
    check_residue_components,
    predicted_counterexample,
    report_record,
    summary_record,
    verify_connectivity_formula,
    verify_super_connectivity,
)
from kronkit import _native, product_analysis
from kronkit.products import kronecker

from oracles import (
    ResidueConditions,
    build_residue_system,
    classify_cut,
    components,
    delete_vertex,
    edges,
    graph_from_edges,
    has_isolated,
    mask_of,
    naive_components,
)


C5_REMOVAL = (0, 3, 6, 9)  # first column of the first four fibers of C5 x K3


def _label_residues(labels, n):
    """The surviving ids ``u * n + a`` of each fiber ``u``, read off the
    fibers' label masks."""
    return tuple(tuple(u * n + a for a in range(n) if x >> a & 1)
                 for u, x in enumerate(labels))


def _residues(rs):
    """:func:`_label_residues` of a residue system."""
    return _label_residues(rs.labels, rs.product.order // rs.factor.order)


def test_residue_system_on_c5_first_column():
    rs, conditions = build_residue_system(make_cycle(5), 3, C5_REMOVAL)
    assert conditions.size_ok  # 4 == (3-1) * 2
    assert conditions.residues_nonempty
    assert conditions.no_isolated
    assert _residues(rs)[0] == (1, 2)
    assert _residues(rs)[4] == (12, 13, 14)
    flat = [v for r in _residues(rs) for v in r]
    assert sorted(flat + list(rs.removed)) == list(range(15))


def test_residues_follow_the_fiber_definition_past_bit_63():
    # C23 x K3 (69 vertices) and a 9-vertex factor times K8 (72) pass bit 63
    rng = random.Random(0)
    for g, n in [(make_complete(2), 3), (make_cycle(5), 4), (make_cycle(23), 3),
                 (random_graph(9, 0.5, 3), 8)]:
        mn = g.order * n
        for alive in ((1 << mn) - 1, rng.getrandbits(mn)):
            removed = [v for v in range(mn) if not alive >> v & 1]
            rs, _ = build_residue_system(g, n, removed)
            assert rs.labels == tuple(
                sum(1 << a for a in range(n) if alive >> (u * n + a) & 1)
                for u in range(g.order)), (g, n, alive)
            assert _residues(rs) == tuple(
                tuple(u * n + v for v in range(n) if alive >> (u * n + v) & 1)
                for u in range(g.order)), (g, n, alive)


def test_residue_system_with_whole_fiber_removed():
    _, conditions = build_residue_system(make_cycle(5), 3, {0, 1, 2})
    assert not conditions.residues_nonempty
    assert not conditions.size_ok  # 3 != 4


def test_residue_system_with_empty_removal():
    _, conditions = build_residue_system(make_cycle(5), 3, set())
    assert not conditions.size_ok
    assert conditions.residues_nonempty
    assert conditions.no_isolated


def test_residue_system_rejects_small_n_and_bad_ids():
    with pytest.raises(ValueError):
        build_residue_system(make_cycle(5), 2, set())
    with pytest.raises(ValueError):
        build_residue_system(make_cycle(5), 3, {99})
    with pytest.raises(PreconditionError):
        build_residue_system(graph_from_edges(4, [(0, 1)]), 3, set())


def test_gstar_on_c5_removal_is_connected():
    rs, _ = build_residue_system(make_cycle(5), 3, C5_REMOVAL)
    star = build_gstar(rs.factor, rs.labels)
    assert star.order == 5
    assert is_connected(star)


def test_gstar_with_empty_removal_reproduces_factor_adjacency():
    for g in (make_cycle(5), make_complete(4), make_cycle(6)):
        rs, _ = build_residue_system(g, 3, set())
        star = build_gstar(rs.factor, rs.labels)
        assert star.adj == g.adj


def test_gstar_rejects_empty_residue():
    rs, _ = build_residue_system(make_cycle(5), 3, {0, 1, 2})
    with pytest.raises(PreconditionError) as err:
        build_gstar(rs.factor, rs.labels)
    assert "fiber 0" in str(err.value)


def test_gstar_names_the_first_empty_fiber_of_a_direct_residue_system():
    # fibers 1 and 3 lose every label, fiber 2 loses label 2
    with pytest.raises(PreconditionError, match="residue of fiber 1 is empty"):
        build_gstar(make_cycle(5), (0b111, 0, 0b011, 0, 0b111))


def _scan_gstar(product, residues):
    """Oracle: G* by scanning the surviving product edges between residues."""
    m = len(residues)
    padj = product.adj
    masks = [sum(1 << v for v in res) for res in residues]
    adj = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if any(padj[a] & masks[j] for a in residues[i]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(m, tuple(adj))


def _oracle_verdicts(product, residues):
    """Oracle for a removal's verdicts: G* connected, by the product edge
    scan, and the fibers whose residue meets more than one component of
    the survivors, by the product search of :func:`components`."""
    comps = components(product.adj, mask_of(v for res in residues for v in res))
    split = tuple(u for u, res in enumerate(residues)
                  if sum(bool(comp & mask_of(res)) for comp in comps) > 1)
    return is_connected(_scan_gstar(product, residues)), split


def _kd_equal_factors(max_order):
    return [g for order in range(2, max_order + 1) for g in connected_graphs(order)
            if vertex_connectivity(g) == g.min_degree]


def _random_nonempty_removal(g, n, rnd):
    """Each fiber keeps a random nonempty set of labels."""
    removed = []
    for u in range(g.order):
        keep = rnd.sample(range(n), rnd.randint(1, n))
        removed += [u * n + v for v in range(n) if v not in keep]
    return removed


def test_gstar_matches_the_product_edge_scan_on_kd_equal_factors():
    rnd = random.Random(9)
    checked = 0
    for g in _kd_equal_factors(6):
        for n in (3, 4, 5):
            removals = [()] + [_random_nonempty_removal(g, n, rnd) for _ in range(3)]
            removals += [r.removed for r in check_gstar_connected(g, n, 3, seed=n)]
            for removed in removals:
                rs, _ = build_residue_system(g, n, removed)
                assert (build_gstar(rs.factor, rs.labels)
                        == _scan_gstar(rs.product, _residues(rs))), (g, n, removed)
                checked += 1
    assert checked > 2000


@pytest.mark.parametrize("removed, joined", [
    ((), True),
    ((1, 2, 4, 5), False),      # fibers 0 and 1 both left with label 0
    ((1, 2, 3, 5), True),       # fiber 0 left with label 0, fiber 1 with label 1
    ((1, 2, 5), True),          # fiber 0 = {0}, fiber 1 = {0, 1}
    ((2, 4, 5), True),          # fiber 0 = {0, 1}, fiber 1 = {0}
])
def test_gstar_edge_cases_match_the_product_edge_scan(removed, joined):
    rs, _ = build_residue_system(make_cycle(5), 3, removed)
    star = build_gstar(rs.factor, rs.labels)
    assert star == _scan_gstar(rs.product, _residues(rs))
    assert bool(star.adj[0] >> 1 & 1) is joined


# -- the checks' verdicts ------------------------------------------------------

def _kernel_verdicts(g, n, masks):
    """``residue_verdicts`` on the label masks of each trial in ``masks``, as
    ``(G* connected, split fibers)`` like :func:`_oracle_verdicts`."""
    lw, fw = -(-n // 64), -(-g.order // 64)
    words = _native.words
    connected = (ctypes.c_uint64 * len(masks))()
    split = (ctypes.c_uint64 * (fw * len(masks)))()
    assert _native.library().residue_verdicts(
        g.order, words(g.adj, fw), n, words([x for m in masks for x in m], lw),
        len(masks), connected, split) == 0
    return [(flag == 1, tuple(iter_bits(fibers)))
            for flag, fibers in zip(connected, _native.masks(split, fw))]


def _record(g, n, removed, gstar):
    """The trial record of a hand-made draw of ``removed`` with the kernel's
    verdicts; ``gstar`` picks the field as the checkers do."""
    rs, _ = build_residue_system(g, n, removed)
    (verdicts,) = _kernel_verdicts(g, n, [rs.labels])
    trial = (rs.removed, 0, 0, *verdicts)
    (record,) = product_analysis._trial_records(encode_graph6(g), n, (trial,), gstar)
    assert record.removed == rs.removed and record.error is None
    return record


@pytest.mark.parametrize("g6", ["C]", "EFz_", "G?~vf_"])
def test_split_check_reports_every_fiber_of_a_column_cut(g6):
    # K_{2,2}, K_{3,3} and K_{4,4}: with label 0 removed from every fiber,
    # the survivors of g x K_3 are two copies of g, and each fiber keeps one
    # vertex in each copy.
    g = parse_graph6(g6)
    removed = [u * 3 for u in range(g.order)]
    comps = naive_components(kronecker(g, make_complete(3)),
                             set(range(3 * g.order)) - set(removed))
    assert len(comps) == 2
    record = _record(g, 3, removed, False)
    assert record.gstar_connected is None
    assert record.split_residues == tuple(range(g.order))
    assert record.split_residues == tuple(
        u for u in range(g.order)
        if sum(bool(comp & {u * 3 + 1, u * 3 + 2}) for comp in comps) > 1)


def test_gstar_check_reports_a_disconnected_residue_graph():
    # A_ is K_2; both fibers keep label 0 alone, and (0, 0) !~ (1, 0).
    g = parse_graph6("A_")
    rs, _ = build_residue_system(g, 3, (1, 2, 4, 5))
    assert rs.labels == (0b001, 0b001)
    assert _scan_gstar(rs.product, _residues(rs)).adj == (0, 0)
    record = _record(g, 3, rs.removed, True)
    assert record.gstar_connected is False
    assert record.split_residues is None


def _random_labels(g, n, rnd):
    """Each fiber keeps a random nonempty set of labels."""
    return tuple(sum(1 << a for a in rnd.sample(range(n), rnd.randint(1, n)))
                 for _ in range(g.order))


def test_kernel_verdicts_equal_the_oracles_on_random_label_masks():
    rnd = random.Random(23)
    checked = disconnected = split = 0
    for order in range(1, 8):
        for g in connected_graphs(order):
            for n in (3, 4, 5):
                product = kronecker(g, make_complete(n))
                masks = [_random_labels(g, n, rnd) for _ in range(3)]
                expected = [_oracle_verdicts(product, _label_residues(labels, n))
                            for labels in masks]
                assert _kernel_verdicts(g, n, masks) == expected, (g, n, masks)
                for labels, (connected, fibers) in zip(masks, expected):
                    assert is_connected(build_gstar(g, labels)) == connected
                    disconnected += not connected
                    split += bool(fibers)
                checked += len(masks)
    assert checked == 3 * 3 * 996
    # Both negative outcomes occur, so neither verdict passes by being constant.
    assert disconnected > 100 and split > 100


def _check_wide_verdicts(g, n):
    """The kernel's verdicts on cycles ``g`` at ``n`` equal the oracles' on
    masks of the top labels and random ones."""
    top = 1 << n - 1
    rnd = random.Random(64)
    masks = [(top,) * g.order, (top | top >> 1,) * g.order]
    masks += [_random_labels(g, n, rnd) for _ in range(20)]
    product = kronecker(g, make_complete(n))
    expected = [_oracle_verdicts(product, _label_residues(labels, n))
                for labels in masks]
    assert _kernel_verdicts(g, n, masks) == expected
    # One label per fiber leaves every survivor isolated.  Two leave g x K_2:
    # for an even cycle two copies of it, each holding one survivor of every
    # fiber, and for an odd one C_2m.
    assert expected[0] == (False, ())
    assert expected[1] == (True, () if g.order % 2 else tuple(range(g.order)))


@pytest.mark.parametrize("g, n", [(make_cycle(64), 3), (make_cycle(5), 64)],
                         ids=["C64xK3", "C5xK64"])
def test_kernel_verdicts_at_64_fibers_and_64_labels(g, n):
    _check_wide_verdicts(g, n)


@pytest.mark.parametrize("g, n", [
    (make_cycle(65), 3), (make_cycle(130), 3), (make_cycle(5), 65), (make_cycle(6), 130),
], ids=["C65xK3", "C130xK3", "C5xK65", "C6xK130"])
def test_kernel_verdicts_past_64_fibers_and_64_labels(g, n):
    """Past 64, fiber masks and label masks take more than one word."""
    _check_wide_verdicts(g, n)


# -- sampled checks -----------------------------------------------------------

def test_gstar_connected_on_sampled_removals():
    for g in (make_cycle(5), make_complete(4)):
        records = check_gstar_connected(g, 3, trials=100, seed=7)
        assert len(records) == 100
        assert all(r.error is None for r in records)
        assert all(r.gstar_connected for r in records)
        # sampled removals all meet the size condition by construction
        assert all(len(r.removed) == 2 * g.min_degree for r in records)


def test_gstar_checker_preconditions():
    with pytest.raises(PreconditionError):
        check_gstar_connected(graph_from_edges(4, [(0, 1)]), 3, 5, 0)
    # kappa != delta: two triangles sharing a vertex
    bowtie = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert vertex_connectivity(bowtie) == 1 and bowtie.min_degree == 2
    with pytest.raises(PreconditionError):
        check_gstar_connected(bowtie, 3, 5, 0)


def test_residue_component_checker():
    for g in (make_cycle(5), make_complete(4)):
        records = check_residue_components(g, 3, trials=100, seed=11)
        assert len(records) == 100
        assert all(r.error is None for r in records)
        assert all(r.split_residues == () for r in records)


def test_residue_component_checker_rejects_bipartite():
    with pytest.raises(PreconditionError):
        check_residue_components(make_cycle(6), 3, 5, 0)


BOWTIE = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
KAPPA_MESSAGE = "checker needs kappa equal to the minimum degree and positive"


@pytest.mark.parametrize("checker", [check_gstar_connected, check_residue_components])
@pytest.mark.parametrize("g, n, error, message", [
    (make_cycle(5), 2, ValueError, "second factor needs n >= 3, got 2"),
    (make_cycle(5), 2**31, ValueError,
     "second factor needs n <= 2147483647, got 2147483648"),
    # n fits a C int, but not the 5 * n ids of the product
    (make_cycle(5), 2**31 - 1, ValueError,
     "the residue kernel draws at most 2147483647 trials of 2147483647 ids, "
     "got 5 of 10737418235"),
    (graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), 3,
     PreconditionError, "checker needs a connected factor graph"),
    (BOWTIE, 3, PreconditionError, KAPPA_MESSAGE),
    # K_1 is bipartite too; the kappa check reports first on both checkers
    (make_complete(1), 3, PreconditionError, KAPPA_MESSAGE),
], ids=["n-2", "n-past-int", "product-past-int", "disconnected", "bowtie", "k1"])
def test_checker_preconditions(checker, g, n, error, message):
    product_analysis._draw_trials.cache_clear()
    with pytest.raises(error) as info:
        checker(g, n, 5, 0)
    assert str(info.value) == message


def test_checker_pair_computes_factor_connectivity_once(monkeypatch):
    original = product_analysis.vertex_connectivity
    calls = Counter()

    def counted(g, *args, **kwargs):
        calls[g] += 1
        return original(g, *args, **kwargs)

    monkeypatch.setattr(product_analysis, "vertex_connectivity", counted)
    product_analysis._draw_trials.cache_clear()
    product_analysis._check_factor.cache_clear()
    c5 = make_cycle(5)
    for n in (3, 4):  # as residue-trials draws each factor
        check_gstar_connected(c5, n, 10, 0)
        check_residue_components(c5, n, 10, 0)
    assert calls == Counter({c5: 1})
    # A factor that fails the check is not kept, and fails at every n.
    for n in (3, 4):
        with pytest.raises(PreconditionError, match=KAPPA_MESSAGE):
            check_gstar_connected(BOWTIE, n, 10, 0)
    assert calls == Counter({c5: 1, BOWTIE: 2})


def test_checkers_are_deterministic():
    a = check_gstar_connected(make_cycle(5), 3, trials=20, seed=3)
    b = check_gstar_connected(make_cycle(5), 3, trials=20, seed=3)
    assert a == b
    c = check_gstar_connected(make_cycle(5), 3, trials=20, seed=4)
    assert [r.removed for r in a] != [r.removed for r in c]


def test_samplers_on_a_product_wider_than_64_vertices():
    # C23 x K3 has 69 vertices: removed ids past bit 63 must stay exact
    g = make_cycle(23)
    gstar = check_gstar_connected(g, 3, trials=30, seed=1)
    split = check_residue_components(g, 3, trials=30, seed=1)
    for records in (gstar, split):
        assert all(r.error is None for r in records)
        assert any(max(r.removed) >= 64 for r in records)
        for r in records:
            assert all(type(v) is int for v in r.removed)
            _, conditions = build_residue_system(g, 3, r.removed)
            assert conditions.size_ok and conditions.residues_nonempty
            assert conditions.no_isolated
    assert all(r.gstar_connected is True for r in gstar)
    assert all(r.split_residues == () for r in split)


def test_gstar_connected_for_smaller_removal_sizes():
    # the connectedness claim covers removals below (n-1)*delta = 4 too; the
    # samplers draw only that size, so every smaller valid removal is checked
    connected = 0
    for size in (1, 2, 3):
        for removed in itertools.combinations(range(15), size):
            rs, conditions = build_residue_system(make_cycle(5), 3, removed)
            if conditions.residues_nonempty and conditions.no_isolated:
                assert is_connected(build_gstar(rs.factor, rs.labels)), removed
                connected += 1
    assert connected == 570


@pytest.mark.parametrize("checker", [check_gstar_connected, check_residue_components])
def test_samplers_reject_bad_arguments(checker):
    with pytest.raises(ValueError, match="trials"):
        checker(make_cycle(5), 3, trials=-2, seed=0)


@pytest.mark.parametrize("checker", [check_gstar_connected, check_residue_components])
def test_samplers_refuse_trials_past_a_c_int(checker, kernel):
    with pytest.raises(ValueError, match="got 2147483648 of 15$"):
        checker(make_cycle(5), 3, trials=2**31, seed=0)
    assert kernel.calls["residue_sample"] == 0  # refused before any buffer is sized


def test_residue_sample_refuses_a_product_past_a_c_int():
    """The kernel's first check: ``order * n`` ids must fit a C int.  No
    buffer is read before it, so none is passed."""
    lib = _native.library()
    for order, n in ((2**16, 2**15), (2**31 - 1, 2), (3, 2**30)):
        assert lib.residue_sample(order, None, n, 0, 0, 0, 0, None, None, None) == -1


@pytest.fixture
def fresh_draws(request):
    """Forget the cached draw before and after the test."""
    product_analysis._draw_trials.cache_clear()
    request.addfinalizer(product_analysis._draw_trials.cache_clear)


def _sampled(g, n, trials, seed):
    """``_draw_trials`` as a list, in the form of :func:`_reference_draws`."""
    graph6, draws = product_analysis._draw_trials(g, n, trials, seed)
    assert graph6 == encode_graph6(g)
    return list(draws)


def _reference_draws(g, n, trials, seed):
    """Oracle for the trial draws: ``(removed, rejections, isolation
    rejections, G* connected, split fibers)`` per trial, from a fresh
    generator seeded with ``[seed % 2**64, t]`` for each trial ``t``, with
    the residues read off each fiber's block of the surviving ids, isolation
    read off the product, and the verdicts from :func:`_oracle_verdicts` on
    the residues."""
    product = kronecker(g, make_complete(n))
    size = (n - 1) * g.min_degree
    draws = []
    for t in range(trials):
        rng = np.random.default_rng([seed % 2**64, t])
        rejections = isolation_rejections = 0
        while rejections <= product_analysis.MAX_REJECTIONS:
            picked = rng.choice(product.order, size=size, replace=False).tolist()
            alive = product.full_mask() ^ mask_of(picked)
            residues = tuple(tuple(iter_bits(alive & ((1 << n) - 1) << (u * n)))
                             for u in range(g.order))
            if not all(residues):
                rejections += 1
            elif has_isolated(product.adj, alive):
                rejections += 1
                isolation_rejections += 1
            else:
                draws.append((tuple(sorted(picked)), rejections, isolation_rejections,
                              *_oracle_verdicts(product, residues)))
                break
        else:
            draws.append(((), rejections, isolation_rejections, None, None))
    return draws


@pytest.mark.parametrize("cap, seed, trials, exhausted", [
    (0, 0, 6, [(2, 1, 1), (3, 1, 0)]),
    (1, 3, 8, [(7, 2, 1)]),   # one draw of each kind rejected
], ids=["cap-0", "cap-1"])
def test_exhausted_sampling_reports_every_rejection(cap, seed, trials, exhausted,
                                                    monkeypatch, fresh_draws):
    monkeypatch.setattr(product_analysis, "MAX_REJECTIONS", cap)
    triangle = make_complete(3)
    for checker in (check_gstar_connected, check_residue_components):
        records = checker(triangle, 3, trials, seed)
        assert [(r.removed, r.rejections, r.isolation_rejections)
                for r in records] == [
            (removed, rej, iso)
            for removed, rej, iso, *_ in _reference_draws(triangle, 3, trials, seed)
        ]
        assert [(r.trial, r.rejections, r.isolation_rejections)
                for r in records if r.error] == exhausted
        for r in records:
            if r.error:
                assert r.error == (f"no valid removal candidate after "
                                   f"{r.rejections} rejections")
                assert r.gstar_connected is None and r.split_residues is None


def test_trial_record_fields_default_and_immutability():
    assert TrialRecord._fields == (
        "graph6", "n", "trial", "removed", "rejections", "isolation_rejections",
        "gstar_connected", "split_residues", "error")
    record = TrialRecord("Bw", 3, 0, (1, 4), 0, 0, True, None)
    assert record.error is None
    assert record == TrialRecord("Bw", 3, 0, (1, 4), 0, 0, True, None, None)
    with pytest.raises(AttributeError):
        record.error = "changed"
    assert len({record, TrialRecord("Bw", 3, 0, (1, 4), 0, 0, True, None)}) == 1


@pytest.mark.parametrize("g, n, cap, seed, trials", [
    (make_cycle(5), 4, None, 5, 15),
    (make_complete(3), 3, 1, 3, 8),  # trial 7 runs out of draws
], ids=["C5xK4", "K3xK3-spent"])
def test_both_routes_give_field_for_field_equal_records(g, n, cap, seed, trials,
                                                        monkeypatch, fresh_draws):
    """The checkers' records equal those built from :func:`_reference_draws`,
    numpy's draws with the oracles' verdicts."""
    if cap is not None:
        monkeypatch.setattr(product_analysis, "MAX_REJECTIONS", cap)
    kernel = [checker(g, n, trials, seed)
              for checker in (check_gstar_connected, check_residue_components)]
    reference = tuple(_reference_draws(g, n, trials, seed))
    # repr tells True from 1 and a tuple from a list, which equality does not.
    assert [list(map(repr, records)) for records in kernel] == [
        list(map(repr, product_analysis._trial_records(encode_graph6(g), n,
                                                        reference, gstar)))
        for gstar in (True, False)]
    gstar, split = kernel
    assert [r.trial for r in gstar] == list(range(trials))
    for a, b in zip(gstar, split):
        assert a[:6] == b[:6] and a.error == b.error
        assert a.split_residues is None and b.gstar_connected is None
    assert any(r.error for r in gstar) == (cap is not None)


def test_residue_checker_reuses_the_gstar_draw():
    draws = product_analysis._draw_trials
    for g in (make_cycle(5), make_complete(4), make_cycle(7)):
        check_gstar_connected(g, 4, 15, 5)
        hits = draws.cache_info().hits
        shared = check_residue_components(g, 4, 15, 5)
        assert draws.cache_info().hits == hits + 1
        draws.cache_clear()
        assert check_residue_components(g, 4, 15, 5) == shared


@pytest.mark.parametrize("change", [
    {"seed": 6}, {"n": 3}, {"trials": 14}, {"g": make_complete(4)},
])
def test_changed_sampler_arguments_never_reuse_a_draw(change):
    draws = product_analysis._draw_trials
    base = {"g": make_cycle(5), "n": 4, "trials": 15, "seed": 5}
    changed = {**base, **change}
    check_gstar_connected(**base)
    misses = draws.cache_info().misses
    after_base = check_residue_components(**changed)
    assert draws.cache_info().misses == misses + 1
    draws.cache_clear()
    assert check_residue_components(**changed) == after_base
    assert draws.cache_info().currsize == 1


@pytest.mark.parametrize("seed", [0, 1, -1, 2**63, 2**64 + 5, 5])
@pytest.mark.parametrize("g, n", [
    (make_cycle(5), 3), (make_complete(4), 4), (make_cycle(7), 5),
    (make_cycle(23), 3),  # 69 vertices, past bit 63
], ids=["C5xK3", "K4xK4", "C7xK5", "C23xK3"])
def test_restored_trial_states_give_the_seeded_stream(g, n, seed, fresh_draws):
    for trials in (0, 1, 15):
        assert _sampled(g, n, trials, seed) == _reference_draws(g, n, trials, seed), (
            trials, seed)


@pytest.mark.parametrize("g, n", [
    (make_cycle(64), 3), (make_cycle(65), 3), (make_cycle(5), 64), (make_cycle(5), 65),
    (make_cycle(5), 2001),
], ids=["C64xK3", "C65xK3", "C5xK64", "C5xK65", "C5xK2001"])
def test_kernel_draws_factors_and_labels_up_to_64(g, n, kernel, fresh_draws):
    """The kernel's fiber and label masks take one word up to 64 and more
    past it; it draws on both sides of 64 fibers and of 64 labels, and at
    C_5 x K_2001 from numpy's tail-shuffle branch (4000 of 10005 ids), and
    gives the seeded stream."""
    assert _sampled(g, n, 3, 7) == _reference_draws(g, n, 3, 7)
    assert kernel.calls["residue_sample"] == 1


def test_a_trial_of_261_words_is_drawn_in_the_kernel(kernel, fresh_draws):
    """The longest trial over the residue-trials inputs, E~~w x K_4 at seed
    1009, trial 5, reads 261 words of its stream, through 17 rejections; the
    kernel steps the generator as far as a trial needs."""
    g, n, seed = parse_graph6("E~~w"), 4, 1009
    sampled = _sampled(g, n, 6, seed)
    assert kernel.calls["residue_sample"] == 1
    assert sampled == _reference_draws(g, n, 6, seed)
    assert sampled[5][0] == (0, 2, 3, 4, 8, 9, 11, 12, 13, 14, 16, 19, 20, 21, 23)
    assert sampled[5][1:3] == (17, 0)
    # The stream after the trial's draws is the seeded one advanced 261 words.
    rng = np.random.default_rng([seed, 5])
    for _ in range(18):
        rng.choice(g.order * n, size=(n - 1) * g.min_degree, replace=False)
    assert (rng.bit_generator.state["state"]
            == np.random.PCG64([seed, 5]).advance(261).state["state"])


# (seed, population, size, draws) of streams on which the kernel's draws
# must equal Generator.choice: draws that leave a 32-bit half over for the
# next, a first Floyd step with j = 0, at seed 368 a Lemire rejection, a
# trial seed at the top of the seed range, then populations past 10000 on
# both sides of numpy's switch to a tail shuffle at size > mn // 50.
_PROBES = ((1, 15, 4, 5), (0, 3, 3, 3), (3, 60, 1, 3), (2, 4096, 192, 2),
           (368, 4096, 4000, 1), ([2**64 - 1, 999], 1000, 100, 3),
           (4, 10005, 4000, 2), (5, 20000, 401, 2), (6, 20000, 400, 3),
           (7, 10001, 10001, 1))


@pytest.mark.parametrize("seed, mn, size, count", _PROBES)
def test_residue_choices_equal_numpy_choice(seed, mn, size, count):
    rng = np.random.default_rng(seed)
    expected = [v for _ in range(count)
                for v in rng.choice(mn, size=size, replace=False).tolist()]
    out = (ctypes.c_uint64 * (count * size))()
    entropy = seed if isinstance(seed, list) else [seed]
    assert _native.library().residue_choices(
        _native.seeded_stream(*entropy), mn, size, count, out) == 0
    assert out[:] == expected


_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)


@pytest.mark.parametrize("entropy", [[s] for s in _SEEDS]
                         + [[s, t] for s in _SEEDS for t in _SEEDS])
def test_kernel_seeding_equals_numpy_pcg64(entropy):
    state = np.random.PCG64(entropy if len(entropy) > 1 else entropy[0]).state
    hi, lo, inc_hi, inc_lo = _native.seeded_stream(*entropy)
    assert hi << 64 | lo == state["state"]["state"]
    assert inc_hi << 64 | inc_lo == state["state"]["inc"]


@pytest.mark.parametrize("entropy", [[2**64 - 1] * 3, [1, 2**40, 3, 2**64 - 1, 5],
                                     [7] * 8])
def test_kernel_seeding_mixes_entropy_past_four_words(entropy):
    state = np.random.PCG64(entropy).state["state"]
    out = (ctypes.c_uint64 * 4)()
    assert _native.library().residue_seed(
        (ctypes.c_uint64 * len(entropy))(*entropy), len(entropy), out) == 0
    assert (out[0] << 64 | out[1], out[2] << 64 | out[3]) == (state["state"], state["inc"])
    assert _native.library().residue_seed(out, 9, out) == -1  # at most 8 integers


def test_kernel_word_stream_continues_across_calls():
    stream = _native.seeded_stream(2**40 + 3)
    words = (ctypes.c_uint64 * 7)()
    drawn = []
    for count in (0, 3, 7, 1):
        _native.library().residue_words(stream, count, words)
        drawn += words[:count]
    assert drawn == np.random.PCG64(2**40 + 3).random_raw(11).tolist()


def test_sampled_conditions_equal_the_residue_system_conditions():
    for g, n in ((make_cycle(5), 3), (make_complete(4), 4), (make_cycle(7), 5)):
        for removed, rejections, *_ in product_analysis._draw_trials(g, n, 20, 3)[1]:
            assert rejections <= product_analysis.MAX_REJECTIONS
            _, conditions = build_residue_system(g, n, removed)
            assert conditions == ResidueConditions(True, True, True)


# -- verification -------------------------------------------------------------

def test_formula_on_c5():
    rep = verify_connectivity_formula(make_cycle(5), 3)
    assert rep.kappa_G == 2 and rep.delta_G == 2
    assert rep.product_kappa == 4
    assert rep.formula_rhs == 4
    assert rep.theorem11_holds and rep.severity is None


def test_formula_on_k4():
    rep = verify_connectivity_formula(make_complete(4), 3)
    assert rep.formula_rhs == 6
    assert rep.product_kappa == 6
    assert rep.theorem11_holds


def test_formula_on_disconnected_graph_is_zero_both_sides():
    g = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    rep = verify_connectivity_formula(g, 3)
    assert rep.product_kappa == 0 and rep.formula_rhs == 0
    assert rep.theorem11_holds


def test_super_connectivity_on_c5():
    rep = verify_super_connectivity(make_cycle(5), 3)
    assert rep.super_kappa_verdict is True
    assert rep.min_cut_count and rep.min_cut_count > 0
    assert rep.non_isolating_cut is None
    assert rep.theorem11_holds and rep.severity is None


def test_super_connectivity_on_bipartite_c6():
    rep = verify_super_connectivity(make_cycle(6), 3)
    assert rep.super_kappa_verdict is True
    assert rep.severity is None


def test_super_connectivity_degenerate_one_vertex_factor():
    rep = verify_super_connectivity(make_complete(1), 3)
    assert rep.kappa_G == 0 and rep.delta_G == 0
    assert rep.product_kappa == 0 and rep.formula_rhs == 0
    assert rep.super_kappa_verdict is False
    assert rep.min_cut_count == 0
    assert rep.non_isolating_cut is None
    assert rep.severity is None  # vacuous case, not a violation


def test_weichsel_decides_the_connectivity_of_the_product():
    """For n >= 3, ``g x K_n`` is connected exactly when kappa(g) > 0, on
    every graph of orders 1 to 6, disconnected ones and ``K_1`` included:
    the verdict route reads the product's connectedness off kappa(g)."""
    for g in (g for order in range(1, 7) for g in all_graphs(order)):
        kappa = vertex_connectivity(g)
        for n in (3, 4):
            assert (kappa > 0) == is_connected(kronecker(g, make_complete(n))), (g, n)


def test_super_connectivity_of_two_isolated_vertices():
    """``A?`` has kappa = delta = 0, like ``K_1`` above, so its product is
    disconnected and has no minimum cuts."""
    rep = verify_super_connectivity(parse_graph6("A?"), 3)
    assert rep.kappa_G == rep.delta_G == 0
    assert rep.product_kappa == 0
    assert rep.super_kappa_verdict is False
    assert rep.min_cut_count == 0


def test_connected_filter_reads_the_connectivity():
    """The ``connected`` filter, read off a factor's kappa, agrees with a
    search on every graph of orders 0 to 6."""
    connected = product_analysis.FILTERS["connected"]
    graphs = [parse_graph6("?")] + [g for order in range(1, 7)
                                    for g in all_graphs(order)]
    for g in graphs:
        kappa = vertex_connectivity(g) if g.order else None
        assert connected(g, kappa) == (g.order > 0 and is_connected(g)), g


def test_super_connectivity_requires_kd_equal():
    bowtie = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    with pytest.raises(PreconditionError):
        verify_super_connectivity(bowtie, 3)


def test_k44_times_k3_is_flagged_with_a_column_cut():
    # An order-8 factor: the product has 24 vertices and kappa 8, and a
    # column {3u + v} is a minimum cut leaving two copies of K_{4,4}.
    k44 = graph_from_edges(8, [(a, b) for a in range(4) for b in range(4, 8)])
    report = verify_super_connectivity(k44, 3)
    assert report.severity == "contradicts-paper"
    assert report.super_kappa_verdict is False
    assert report.product_kappa == report.formula_rhs == 8
    assert report.min_cut_count == 9  # three columns, six neighbourhoods
    columns = [tuple(3 * u + v for u in range(8)) for v in range(3)]
    cut = report.non_isolating_cut
    assert cut.vertices in columns
    assert not cut.isolates and cut.witness is None
    assert classify_cut(kronecker(k44, make_complete(3)), cut.vertices) == (cut, True)


def test_fiber_deletion_identity_on_sampled_instances():
    # removing a whole fiber plus extras equals deleting the factor vertex
    # first and removing the leftover ids, under the documented relabeling
    n = 3
    for g, fiber_idx, extra in [
        (make_cycle(5), 1, (0, 8, 14)),
        (make_complete(4), 0, (5, 7)),
        (make_cycle(6), 3, (1, 2, 16)),
    ]:
        product = kronecker(g, make_complete(n))
        fiber_ids = set(range(fiber_idx * n, (fiber_idx + 1) * n))
        removal = fiber_ids | set(extra)
        assert not fiber_ids & set(extra)

        def survivor_edges_full():
            alive = [v for v in range(product.order) if v not in removal]
            relabel = {v: i for i, v in enumerate(alive)}
            return {(min(relabel[a], relabel[b]), max(relabel[a], relabel[b]))
                    for a, b in edges(product)
                    if a not in removal and b not in removal}

        reduced = kronecker(delete_vertex(g, fiber_idx), make_complete(n))

        def map_old(v):
            u, w = divmod(v, n)
            return (u if u < fiber_idx else u - 1) * n + w

        leftover = sorted(map_old(v) for v in extra)
        alive2 = [v for v in range(reduced.order) if v not in leftover]
        relabel2 = {v: i for i, v in enumerate(alive2)}
        survivor_edges_reduced = {
            (min(relabel2[a], relabel2[b]), max(relabel2[a], relabel2[b]))
            for a, b in edges(reduced)
            if a not in leftover and b not in leftover}
        assert survivor_edges_full() == survivor_edges_reduced


# -- batch --------------------------------------------------------------------

def test_batch_over_order_5_kd_equal_corpus():
    records = list(batch_verify(connected_graphs(5), [3],
                                filters=("connected", "kd-equal")))
    summary = records[-1]
    assert isinstance(summary, BatchSummary)
    reports = [r for r in records[:-1]]
    assert all(isinstance(r, VerificationReport) for r in reports)
    assert all(r.theorem11_holds and r.super_kappa_verdict for r in reports)
    assert summary.violations == 0 and summary.skips == 0
    assert summary.instances == len(reports) == summary.holds
    assert summary.instances > 0


def test_batch_computes_each_factor_connectivity_once(monkeypatch):
    import kronkit.connectivity
    import kronkit.product_analysis

    bowtie = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    factors = [make_cycle(5), make_complete(4), make_cycle(6), bowtie,
               graph_from_edges(4, [(0, 1), (2, 3)]), make_complete(1)]
    original = kronkit.connectivity.vertex_connectivity
    calls = Counter()

    def counted(g, *args, **kwargs):
        calls[g] += 1
        return original(g, *args, **kwargs)

    monkeypatch.setattr(kronkit.connectivity, "vertex_connectivity", counted)
    monkeypatch.setattr(kronkit.product_analysis, "vertex_connectivity", counted)
    for filters in ((), ("kd-equal",)):
        calls.clear()
        records = list(batch_verify(factors, [3, 4], filters=filters))
        assert all(calls[g] == 1 for g in factors), filters
        items = records[-1].instances
        assert items == (12 if not filters else 8)
        assert sum(calls.values()) <= len(factors) + items


def test_batch_empty_corpus():
    records = list(batch_verify([], [3]))
    assert records == [BatchSummary(0, 0, 0, 0)]


def test_batch_skips_oversized_instance():
    big = random_graph(30, 0.5, 1)
    assert is_connected(big)
    records = list(batch_verify([big], [3], budget=500))  # it needs 944
    assert isinstance(records[0], SkipRecord)
    assert records[0].reason == "size-limit"
    assert records[0].budget == 500
    assert records[-1] == BatchSummary(1, 0, 0, 1)


def test_batch_rejects_small_n_and_unknown_filter():
    with pytest.raises(ValueError):
        list(batch_verify([make_cycle(5)], [2]))
    with pytest.raises(ValueError):
        list(batch_verify([make_cycle(5)], [3], filters=("planar",)))


@pytest.mark.parametrize("n", [2**31, 10**20])
def test_n_past_a_c_int_is_refused_before_the_product_is_built(n, monkeypatch):
    def no_product(*_args):
        raise AssertionError("K_n was built before the check")
    monkeypatch.setattr(product_analysis, "make_complete", no_product)
    message = f"second factor needs n <= 2147483647, got {n}"
    with pytest.raises(ValueError, match=message):
        list(batch_verify([make_cycle(5)], [3, n]))
    for verify in (verify_connectivity_formula, verify_super_connectivity):
        with pytest.raises(ValueError, match=message):
            verify(make_cycle(5), n)


def test_product_order_past_a_c_int_is_refused_before_anything_is_built(
        kernel, monkeypatch):
    """n = 2**30 fits a C int, but the 2**32 vertices of C_4 x K_n do not:
    the formula route and the verdict route both refuse the instance by its
    order before K_n, the product or a flow network of it is built."""
    def no_product(*_args):
        raise AssertionError("K_n was built before the check")
    monkeypatch.setattr(product_analysis, "make_complete", no_product)
    message = "the flow kernel takes at most 2147483647 vertices, got order 4294967296$"
    for verify in (verify_connectivity_formula, verify_super_connectivity):
        with pytest.raises(ValueError, match=message):
            verify(make_cycle(4), 2**30)
    assert kernel.calls["splitflow_init"] == 2  # the factor's connectivity, per call
    assert kernel.calls["splitflow_product"] == kernel.calls["splitflow_min_cuts"] == 0


def test_filter_table_matches_networkx_definitions():
    nx = pytest.importorskip("networkx")
    from kronkit.graphs import encode_graph6

    corpus = [encode_graph6(g) for order in range(1, 6) for g in all_graphs(order)]

    def kd_equal(h):  # kappa == delta, with the empty graph excluded
        return h.order() > 0 and nx.node_connectivity(h) == min(d for _, d in h.degree)

    definitions = {
        "connected": nx.is_connected,
        "kd-equal": kd_equal,
        "bipartite": nx.is_bipartite,
        "nonbipartite": lambda h: not nx.is_bipartite(h),
    }
    assert set(definitions) == set(product_analysis.KNOWN_FILTERS)
    graphs = {g6: nx.from_graph6_bytes(g6.encode()) for g6 in corpus}
    for name, definition in definitions.items():
        records = batch_verify(map(parse_graph6, corpus), [3], filters=(name,))
        kept = [r.graph6 for r in records if not isinstance(r, BatchSummary)]
        assert kept == [g6 for g6 in corpus if definition(graphs[g6])], name


def _rendered(records):
    return [report_record(r) if isinstance(r, VerificationReport) else r
            for r in records]


def test_batch_parallel_matches_serial():
    # With the filters, pool processes compute kappa and filter too.
    for corpus, n_values, filters in [
            (connected_graphs(4), [3], ()),
            (connected_graphs(6), [3, 4], ("connected", "kd-equal"))]:
        serial = list(batch_verify(corpus, n_values, filters=filters, workers=1))
        parallel = list(batch_verify(corpus, n_values, filters=filters, workers=2))
        assert _rendered(serial) == _rendered(parallel)
        assert serial[-1].instances > 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("read", [1, 5])
def test_batch_streams_records_before_reading_past_them(read, workers):
    """The records of the factors read before the corpus raises come out
    first, in order, and then its exception; with ``read`` 1 no pool starts,
    with 5 a pool of two takes three tasks."""
    factors = connected_graphs(5)[:read]

    def corpus():
        yield from factors
        raise RuntimeError("corpus ended badly")

    records = batch_verify(corpus(), [3], workers=workers)
    first = next(records)
    assert first.graph6 == encode_graph6(factors[0])
    rest = list(itertools.islice(records, read - 1))
    assert [r.graph6 for r in rest] == [encode_graph6(g) for g in factors[1:]]
    with pytest.raises(RuntimeError, match="corpus ended badly"):
        next(records)


class _InProcessPool:
    """A stand-in for the process pool that runs each task when it is
    submitted, and records the ``max_workers`` of each pool in ``asked``."""

    asked: list = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_batch_pool_has_no_more_workers_than_instances(monkeypatch):
    """The pool starts no more processes than the tasks of its first window,
    and none for a single factor; tasks hold 1, 2, 4, ... corpus items."""
    asked = []
    monkeypatch.setattr(_InProcessPool, "asked", asked)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    for factors, pools in [([make_cycle(5)], []),
                           ([make_cycle(5), make_complete(4), make_cycle(6)], [2]),
                           (connected_graphs(5), [5])]:
        asked.clear()
        pooled = list(batch_verify(factors, [3, 4, 5], workers=10**6))
        assert asked == pools
        assert pooled[-1].instances == 3 * len(factors)
        assert _rendered(pooled) == _rendered(list(batch_verify(factors, [3, 4, 5])))


def test_pool_yields_a_finished_tasks_records_before_reading_on(monkeypatch):
    """A pool of two keeps a window of four tasks, of 1, 2, 4, 8, 16 and 9
    of 40 factors.  The records of a finished task come out before the next
    task is read: those of task j when the corpus has been read through
    task j + 3, and no further, so a slow corpus read, such as the next
    order's whole layer, does not hold them back."""
    monkeypatch.setattr(_InProcessPool, "asked", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    factors = [make_cycle(3 + i % 5) for i in range(40)]
    read = 0

    def corpus():
        nonlocal read
        for g in factors:
            read += 1
            yield g

    reads = [read for record in batch_verify(corpus(), [3], workers=2)
             if not isinstance(record, BatchSummary)]
    ends = list(itertools.accumulate([1, 2, 4, 8, 16, 9]))
    task = [j for j, size in enumerate([1, 2, 4, 8, 16, 9]) for _ in range(size)]
    assert reads == [ends[min(task[i] + 3, len(ends) - 1)] for i in range(40)]
    assert reads[0] == 15


def test_record_serialization_shapes():
    rep = verify_super_connectivity(make_cycle(5), 3)
    rec = report_record(rep)
    assert list(rec) == ["instance", "kappa_G", "delta_G", "product_kappa",
                         "formula_rhs", "theorem11_holds", "super_kappa_verdict",
                         "min_cut_count", "non_isolating_cut", "runtime_ms"]
    assert rec["runtime_ms"] == 0
    assert report_record(rep, with_timing=True)["runtime_ms"] == rep.runtime_ms
    assert summary_record(BatchSummary(2, 1, 0, 1)) == {
        "instances": 2, "holds": 1, "violations": 0, "skips": 1}


def _violations(corpus, n_values):
    """The ``(graph6, n)`` of every instance that ``batch`` flags and of
    every instance that :func:`predicted_counterexample` predicts, over
    the connected kd-equal factors of ``corpus``, and the instance count."""
    flagged, predicted, instances = set(), set(), 0
    for record in batch_verify(corpus, n_values, filters=("connected", "kd-equal")):
        if isinstance(record, VerificationReport):
            instance = (record.graph6, record.n)
            if record.severity is not None:
                flagged.add(instance)
            if predicted_counterexample(parse_graph6(record.graph6), record.n):
                predicted.add(instance)
            instances += 1
    return flagged, predicted, instances


def test_predicted_counterexamples_are_the_violations_batch_reports():
    """On every connected kd-equal factor of orders 1 to 7 at n = 3, 4, 5,
    the predictor flags exactly the instances that ``batch`` flags, and at
    n = 3 they are criterion 5's ``K_{d,d}`` factors.  On the order-6
    corpus, both sets are empty for every n from 4 to ``64 // 6``, the
    largest product the kernel holds."""
    corpus = [g for order in range(1, 8) for g in connected_graphs(order)]
    flagged, predicted, instances = _violations(corpus, [3, 4, 5])
    assert flagged == predicted == {("A_", 3), ("Cr", 3), ("Es\\o", 3)}
    assert instances == 3 * 932
    flagged, predicted, instances = _violations(connected_graphs(6),
                                                range(4, 64 // 6 + 1))
    assert flagged == predicted == set()
    assert instances == 7 * 105


def test_predictor_holds_only_for_k_dd_at_n_3():
    k33 = graph_from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)])
    c6 = make_cycle(6)  # bipartite, but order 6 is not 2 * delta
    assert predicted_counterexample(k33, 3)
    assert not any(predicted_counterexample(k33, n) for n in (4, 5, 6))
    assert not predicted_counterexample(c6, 3)
    assert not predicted_counterexample(make_complete(3), 3)  # K_3: not bipartite
    assert not predicted_counterexample(graph_from_edges(1, []), 3)
