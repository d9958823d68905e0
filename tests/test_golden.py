"""Exact bytes of fixed CLI runs, pinned by the sha256 of standard output.

The batch run covers the formula route, the verdict route and the skip
route; the gstar run covers both residue samplers.  The panel runs pin
``kappa``, ``super-kappa --format table``, ``cuts`` (one run per graph) and
``product --mapping`` on small factors.  Any change to the records of these
runs, however small, fails here.
"""

import hashlib
import json

from kronkit.cli import main


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out, hashlib.sha256(out.encode("utf-8")).hexdigest()


def test_golden_batch_formula_verdict_and_skip_routes(capsys):
    code, out, digest = _run(
        ["batch", "--n", "3,4,5", "--all-graphs", "--max-order", "6",
         "--filter", "connected,nonbipartite", "--workers", "1",
         "--budget", "1000"], capsys)
    assert code == 3
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(r.get("skip") == "size-limit" for r in records) == 294
    assert digest == "ec360a63643ea2fa43df3078df93b84067db5fe5f42688ff2c636ba5ab43efc5"


def test_golden_gstar_trials(capsys):
    code, _, digest = _run(
        ["gstar", "--n", "3", "--g6", "Bw", "--g6", "Cr", "--g6", "D~{",
         "--trials", "20", "--seed", "5"], capsys)
    assert code == 0
    assert digest == "3d1e744d4cd7b2cd146459b381cabce06291c5c955d95121371bad6c6fb0121e"


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
