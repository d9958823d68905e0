"""Exact bytes of fixed CLI runs, pinned by the sha256 of standard output.

The batch run covers the formula route, the verdict route and the skip
route; the gstar run covers both residue samplers.  Any change to the
records of these runs, however small, fails here.
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
