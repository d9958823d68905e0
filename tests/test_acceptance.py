"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them alongside the per-test verdicts).

Criterion 5 checks the paper's super-connectivity claim for ``G x K_3`` on
every eligible factor and pins the one family where the claim is false: a
balanced complete bipartite factor ``K_{d,d}``.  There a full column (all
product vertices sharing a second coordinate) has ``2d`` vertices, which is
the product's connectivity, and removing it leaves ``K_{d,d} x K_2``: two
disjoint copies of ``K_{d,d}``, disconnected with no isolated vertex.  The
2-vertex complete factor already gives the 6-cycle, which criterion 6 shows
is not super-connected.  The test predicts this set from each factor's
adjacency, requires the sweep to flag exactly it, re-validates every
reported cut independently, and prints the flagged records in full.
"""

import numpy as np

from kronkit.cli import main, report_record
from kronkit.connectivity import enumerate_min_cuts, vertex_connectivity
from kronkit.graphs import Graph, encode_graph6, is_connected, iter_bits, make_cycle
from kronkit.product_analysis import (
    check_gstar_connected,
    check_residue_components,
    verify_connectivity_formula,
    verify_super_connectivity,
)
from kronkit.products import is_bipartite, kronecker

from oracles import brute_force_connectivity, degrees, delete_vertex, weichsel_connected

PAIR_SAMPLE = 5_000
PAIR_SEED = 20_240_601


def _seeded_pairs(pool, count, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(pool), size=(count, 2))
    return [(pool[int(a)], pool[int(b)]) for a, b in idx]


def test_criterion_1_product_count_and_degree_identities(connected_upto_6):
    pool = [g for g in connected_upto_6 if g.order >= 2]
    failures = 0
    for g1, g2 in _seeded_pairs(pool, PAIR_SAMPLE, PAIR_SEED):
        p = kronecker(g1, g2)
        if p.order != g1.order * g2.order:
            failures += 1
        elif p.edge_count != 2 * g1.edge_count * g2.edge_count:
            failures += 1
        else:
            n2 = g2.order
            dp, d1, d2 = degrees(p), degrees(g1), degrees(g2)
            for u in range(g1.order):
                for v in range(n2):
                    if dp[u * n2 + v] != d1[u] * d2[v]:
                        failures += 1
                        break
    print(f"\n[criterion 1] count/degree identities on {PAIR_SAMPLE} seeded "
          f"pairs: {'PASS' if failures == 0 else 'FAIL'}")
    assert failures == 0


def test_criterion_2_odd_cycle_criterion_matches_traversal(connected_upto_6):
    pool = [g for g in connected_upto_6 if g.order >= 2]
    disagreements = 0
    for g1, g2 in _seeded_pairs(pool, PAIR_SAMPLE, PAIR_SEED + 1):
        if weichsel_connected(g1, g2) != is_connected(kronecker(g1, g2)):
            disagreements += 1
    print(f"\n[criterion 2] connectedness criterion vs traversal on "
          f"{PAIR_SAMPLE} seeded pairs: "
          f"{'PASS' if disagreements == 0 else 'FAIL'}")
    assert disagreements == 0


def test_criterion_3_flow_connectivity_equals_brute_force(connected_upto_8):
    disagreements = [
        encode_graph6(g) for g in connected_upto_8
        if vertex_connectivity(g) != brute_force_connectivity(g)
    ]
    print(f"\n[criterion 3] flow vs brute-force connectivity on "
          f"{len(connected_upto_8)} connected graphs of order <= 8: "
          f"{'PASS' if not disagreements else 'FAIL ' + str(disagreements[:5])}")
    assert disagreements == []


def test_criterion_4_product_connectivity_formula(connected_upto_6):
    violations = []
    for g in connected_upto_6:
        for n in (3, 4):
            rep = verify_connectivity_formula(g, n)
            if not rep.theorem11_holds:
                violations.append(report_record(rep))
    print(f"\n[criterion 4] product connectivity formula over "
          f"{2 * len(connected_upto_6)} instances (n in {{3,4}}): "
          f"{'PASS' if not violations else 'FAIL'}")
    assert violations == []


def _product_with_k3(g):
    """Bitmask adjacency of ``G x K_3`` from the rule ``(u,i)~(w,j)`` iff
    ``uw`` is an edge of ``G`` and ``i != j``; vertex ``(u,i)`` is ``3u+i``."""
    return [sum(1 << (3 * w + j) for w in iter_bits(g.adj[u])
                for j in range(3) if j != i)
            for u in range(g.order) for i in range(3)]


def _is_connected(adj, alive):
    """Breadth-first search over the vertices in the ``alive`` mask."""
    seen = frontier = alive & -alive
    while frontier:
        reach = 0
        for x in iter_bits(frontier):
            reach |= adj[x]
        frontier = reach & alive & ~seen
        seen |= frontier
    return seen == alive


def test_criterion_5_every_minimum_product_cut_isolates(connected_upto_6):
    eligible = [g for g in connected_upto_6
                if vertex_connectivity(g) == g.min_degree]
    # K_{d,d} from the adjacency alone: bipartite with order 2 * delta.
    predicted = {encode_graph6(g) for g in eligible
                 if g.order == 2 * g.min_degree and is_bipartite(g)[0]}
    reports = {encode_graph6(g): (g, verify_super_connectivity(g, 3))
               for g in eligible}
    flagged = {g6 for g6, (_, rep) in reports.items()
               if rep.severity is not None}
    verdict = "PASS" if flagged == predicted else "FAIL"
    print(f"\n[criterion 5] super-connectivity of products over "
          f"{len(eligible)} eligible factors (n=3), counterexamples exactly "
          f"the K_{{d,d}} factors {sorted(predicted)}: {verdict}")
    for g6 in sorted(flagged):
        print(f"[criterion 5]   contradicts-paper: "
              f"{report_record(reports[g6][1])}")
    # The paper's claim fails exactly for K_{d,d} x K_3: a column has 2d
    # vertices, equal to kappa = min(3d, 2d), only when a bipartite factor has
    # order 2d, and for n >= 4 removing a column leaves the connected
    # G x K_{n-1}.  Pin the set; never widen it to absorb a new violation.
    assert len(eligible) == 135
    assert predicted == {"A_", "Cr", "Es\\o"}
    assert flagged == predicted
    for g6, (g, rep) in reports.items():
        if g6 in predicted:
            continue
        assert rep.theorem11_holds, g6
        # K_1 x K_3 is edgeless: a False verdict with nothing to contradict.
        assert rep.super_kappa_verdict is (g.order >= 2), g6
    for g6 in sorted(predicted):
        g, rep = reports[g6]
        d = g.min_degree
        adj = _product_with_k3(g)
        assert rep.theorem11_holds and rep.super_kappa_verdict is False, g6
        assert rep.product_kappa == rep.formula_rhs == 2 * d, g6
        product = Graph(3 * g.order, tuple(adj))
        assert brute_force_connectivity(product) == 2 * d, g6
        cut = rep.non_isolating_cut.vertices
        columns = [{3 * u + v for u in range(g.order)} for v in range(3)]
        assert len(cut) == 2 * d and set(cut) in columns, g6
        survivors = product.full_mask() & ~sum(1 << x for x in cut)
        assert not _is_connected(adj, survivors), g6
        assert all(adj[x] & survivors for x in iter_bits(survivors)), g6
        # The three columns plus the six distinct vertex neighbourhoods.
        assert rep.min_cut_count == 9, g6


def test_criterion_6_cycle_family_verdicts():
    expected = {3: True, 4: True, 5: True, 6: False, 7: False, 8: False,
                9: False, 10: False}
    actual = {n: all(c.isolates for c in enumerate_min_cuts(make_cycle(n)))
              for n in expected}
    print(f"\n[criterion 6] cycle super-connectivity verdicts: "
          f"{'PASS' if actual == expected else 'FAIL ' + str(actual)}")
    assert actual == expected


def test_criterion_7_sampled_residue_graph_checks(connected_upto_6):
    eligible = [g for g in connected_upto_6
                if g.order >= 2 and vertex_connectivity(g) == g.min_degree
                and g.min_degree > 0]
    assert len(eligible) >= 50
    factors = eligible[:60]
    trials_per_graph = 20
    total = 0
    star_failures = 0
    split_failures = 0
    sampling_errors = 0
    for i, g in enumerate(factors):
        records = check_gstar_connected(g, 3, trials_per_graph, seed=1000 + i)
        for r in records:
            if r.error is not None:
                sampling_errors += 1
                continue
            total += 1
            if not r.gstar_connected:
                star_failures += 1
        if not is_bipartite(g)[0]:
            for r in check_residue_components(g, 3, 10, seed=2000 + i):
                if r.error is None and r.split_residues != ():
                    split_failures += 1
    ok = total >= 1000 and star_failures == 0 and split_failures == 0
    print(f"\n[criterion 7] residue-graph connectedness on {total} sampled "
          f"removals across {len(factors)} factors "
          f"(sampling errors: {sampling_errors}): {'PASS' if ok else 'FAIL'}")
    assert total >= 1000
    assert star_failures == 0
    assert split_failures == 0


def test_criterion_8_deletion_lowers_invariants_by_at_most_one(connected_upto_8):
    violations = []
    for g in connected_upto_8:
        if g.order < 2:
            continue
        delta = g.min_degree
        kappa = vertex_connectivity(g)
        for v in range(g.order):
            h = delete_vertex(g, v)
            if h.min_degree < delta - 1 or vertex_connectivity(h) < kappa - 1:
                violations.append((encode_graph6(g), v))
    print(f"\n[criterion 8] deletion inequalities over "
          f"{len(connected_upto_8)} connected graphs of order <= 8: "
          f"{'PASS' if not violations else 'FAIL ' + str(violations[:5])}")
    assert violations == []


def test_criterion_9_byte_identical_reports_across_worker_counts(tmp_path):
    base = ["verify", "--n", "3", "--all-graphs", "--max-order", "6",
            "--filter", "connected,kd-equal"]
    out1 = tmp_path / "workers1.jsonl"
    out2 = tmp_path / "workers2.jsonl"
    code1 = main(base + ["--workers", "1", "--output", str(out1)])
    code2 = main(base + ["--workers", "2", "--output", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    print(f"\n[criterion 9] byte-identical reports for workers 1 vs 2 "
          f"(exit codes {code1}/{code2}): {'PASS' if identical else 'FAIL'}")
    assert code1 == code2
    assert identical
    assert out1.stat().st_size > 0
