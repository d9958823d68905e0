"""Exact bytes of fixed CLI runs, pinned by the sha256 of standard output.

The batch runs cover the formula route, the verdict route with its
violation records, the skip route, and products past 64 vertices; the gstar
runs cover both residue checks, the second over every connected kd-equal
factor to order 6.  The seeded runs pin ``gen random`` and ``gstar`` past 64
fibers, past 64 labels and on numpy's tail-shuffle branch of ``choice``,
with bytes first taken from numpy's own streams, and again with numpy
unimportable.  The panel runs pin ``kappa``, ``super-kappa --format
table``, ``cuts`` (one run per graph) and ``product --mapping`` on small
factors.  Any change to the records of these runs, however small, fails
here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kronkit.cli import main
from kronkit.connectivity import vertex_connectivity
from kronkit.corpus import connected_graphs
from kronkit.graphs import encode_graph6, make_cycle, parse_graph6


# Seeded runs pinned from numpy's streams; the kernel seeds and steps them.
_SEEDED = {
    "gen-random-12": (
        ["gen", "random", "--order", "12", "--p", "0.3", "--seed", "7", "--count", "50"],
        "e6d94d9a4236505275ee57bc3c065f22b6146dfdddf5de15e04ecd775e166c82"),
    "gen-random-70": (
        ["gen", "random", "--order", "70", "--p", "0.5",
         "--seed", "18446744073709551621", "--count", "3"],
        "c497133ecb4b2eaabd355f84e6cb9b9a42a083b0c53f8281d6092ce1ea1844a1"),
    "gstar-65-fibers": (
        ["gstar", "--g6", encode_graph6(make_cycle(65)), "--n", "3",
         "--trials", "10", "--seed", "3"],
        "7a21f420261167f0a1ac6d2c6cb6ce7d0f35fd34493257dd7fb4eb7acaa83c05"),
    "gstar-65-labels": (
        ["gstar", "--g6", "Dhc", "--n", "65", "--trials", "10", "--seed", "3"],
        "0d316cf1334a7b89e185858051f6784becfd0b86885598c9e5868bd9876e7d0c"),
    # 10005 ids with 4000 drawn: numpy's tail-shuffle branch of choice
    "gstar-tail-shuffle": (
        ["gstar", "--g6", "Dhc", "--n", "2001", "--trials", "3", "--seed", "3"],
        "46d1164ad9cc43fe15be728592b9562ddab0e399a8a1d139255450f8f5cd9496"),
    "gstar-trials": (
        ["gstar", "--n", "3", "--g6", "Bw", "--g6", "Cr", "--g6", "D~{",
         "--trials", "20", "--seed", "5"],
        "3d1e744d4cd7b2cd146459b381cabce06291c5c955d95121371bad6c6fb0121e"),
}


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_golden_batch_formula_verdict_and_skip_routes(capsys):
    code, out, digest = _run(
        ["batch", "--n", "3,4,5", "--all-graphs", "--max-order", "6",
         "--filter", "connected,nonbipartite", "--workers", "1",
         "--budget", "40"], capsys)
    assert code == 3
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(r.get("skip") == "size-limit" for r in records) == 210
    assert digest == "128822a5653e4f4371b5a383f236526ed4b2af977cd7c0180160daca85236c3d"


def test_golden_batch_violation_records(capsys):
    code, out, digest = _run(
        ["batch", "--n", "3,4", "--all-graphs", "--max-order", "6",
         "--filter", "connected,kd-equal", "--workers", "1"], capsys)
    assert code == 1
    assert out.splitlines()[-1] == \
        '{"instances":270,"holds":267,"violations":3,"skips":0}'
    assert digest == "a9bf01bd72db0c496c59c36f9f5cc6fd26182d923088b91189c03b457d89e214"


# Factors to order 6 at n = 11, 12, 13: 335 of the 405 instances are
# products past 64 vertices, which the flow kernel takes with multiword
# masks.  Both digests were first taken from a Python flow network.
_PAST_64 = ["batch", "--all-graphs", "--max-order", "6", "--n", "11,12,13",
            "--filter", "connected,kd-equal"]


def _past_64_vertices(out: str) -> int:
    return sum(parse_graph6(r["instance"]["graph6"]).order * r["instance"]["n"] > 64
               for r in map(json.loads, out.splitlines()) if "instance" in r)


def test_golden_batch_past_64_vertices(capsys):
    for workers in ("1", "2"):
        code, out, digest = _run(_PAST_64 + ["--workers", workers], capsys)
        assert code == 0
        assert len(out.splitlines()) == 406 and _past_64_vertices(out) == 335
        assert digest == "329aeea6853ffc677a3d5cff951f2e7c5bc2cf911d6680bcd464d7a90e81fa29"


def test_golden_batch_budget_past_64_vertices(capsys):
    """The budget charges the same searches past 64 vertices."""
    code, out, digest = _run(_PAST_64 + ["--workers", "1", "--budget", "100"], capsys)
    assert code == 3
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(r.get("skip") == "size-limit" for r in records) == 123
    assert digest == "7aeebe1c6fe017b757a8edb1c35eedf92084cdd204cf028a266e8da949a7ac65"


def test_golden_gstar_trials(capsys):
    argv, want = _SEEDED["gstar-trials"]
    code, _, digest = _run(argv, capsys)
    assert code == 0
    assert digest == want


def test_golden_gstar_over_kd_equal_factors(tmp_path, capsys):
    # Every connected kd-equal factor of orders 2..6, under a seed that
    # wraps modulo 2**64.
    corpus = tmp_path / "kd-equal.g6"
    corpus.write_text("".join(
        encode_graph6(g) + "\n" for order in range(2, 7)
        for g in connected_graphs(order) if vertex_connectivity(g) == g.min_degree))
    code, out, digest = _run(
        ["gstar", "--n", "4", "--trials", "20", "--seed", str(2**64 + 5),
         "--input", str(corpus)], capsys)
    assert code == 0
    assert len(out.splitlines()) == 4820
    assert digest == "b81f7346cec72b062b528009359ad043fbe1428ee1db61747ee27420df6a86e2"


_PANEL = ("Bw", "Cr", "D~{", "EUxo")


def _panel_args():
    return [arg for g6 in _PANEL for arg in ("--g6", g6)]


def test_golden_kappa_panel(capsys):
    code, _, digest = _run(["kappa"] + _panel_args(), capsys)
    assert code == 0
    assert digest == "b8651149d472364676b93ca0d4d451d5703512aef1bd0fc0074ffa8379ddbf9a"


def test_golden_super_kappa_table_panel(capsys):
    code, _, digest = _run(["super-kappa", "--format", "table"] + _panel_args(),
                           capsys)
    assert code == 0
    assert digest == "7f6ec959e4f9ca14de359dd37dc2b822d2470c7da77609ee0e5341cfe5332eea"


def test_golden_cuts_per_graph(capsys):
    expected = {
        "Bw": "1b44966b7808377ea2daef0b6fd129e26dc621db7aefc2d7831a34616833a543",
        "Cr": "fff05d2d0f77cb7a576c94207193b3f93df9cb5485af720dee9114484a3b9e66",
        "D~{": "207b0948cb7755b0020dbc18e4f087c02a422aa93c5dd9ed0fc36fd11480664a",
        "EUxo": "e5848577a867ad2b8134bea86647041dcd55acd93ffb9c970d3af53ea8914d97",
    }
    for g6, want in expected.items():
        code, _, digest = _run(["cuts", "--g6", g6], capsys)
        assert code == 0
        assert digest == want, g6


def test_golden_product_with_mapping(tmp_path, capsys):
    mapping = tmp_path / "map.txt"
    code, out, digest = _run(["product", "--n", "3", "--g6", "Cr",
                              "--mapping", str(mapping)], capsys)
    assert code == 0
    assert out == "KBjBDB?BWlBW\n"
    assert digest == "90b4453f5f3bb9f6a4768a9b2908769ecc475ba4e96f3dd3bda8aee1c1485535"
    assert hashlib.sha256(mapping.read_bytes()).hexdigest() == \
        "30ef9204a3d9c37d9bff9dfbdc9cb6ebfd3db2380630a8c44e85ac055d3397b9"


@pytest.mark.parametrize("name", [name for name in _SEEDED if name != "gstar-trials"])
def test_golden_seeded_streams(name, capsys):
    argv, want = _SEEDED[name]
    code, _, digest = _run(argv, capsys)
    assert code == 0
    assert digest == want


_WITHOUT_NUMPY = """
import contextlib, hashlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from kronkit.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    print(hashlib.sha256(out.getvalue().encode()).hexdigest())
"""


def test_seeded_runs_need_no_numpy():
    """With numpy unimportable, gstar at 64 fibers or fewer and past 64, and
    gen random, still give the pinned bytes."""
    runs = ["gstar-trials", "gstar-65-fibers", "gen-random-12"]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY,
         json.dumps([_SEEDED[name][0] for name in runs])],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [_SEEDED[name][1] for name in runs]
