"""Integration tests for the kronkit command-line interface."""

import json

import pytest

from kronkit.cli import main
from kronkit.graphs import encode_graph6, make_complete, make_cycle, parse_graph6


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(out):
    return [json.loads(line) for line in out.splitlines() if line]


# -- gen ----------------------------------------------------------------------

def test_gen_complete(capsys):
    code, out, _ = run_cli(["gen", "complete", "--order", "4"], capsys)
    assert code == 0
    assert out.strip() == encode_graph6(make_complete(4))


def test_gen_cycle_rejects_bad_order(capsys):
    code, _, err = run_cli(["gen", "cycle", "--order", "2"], capsys)
    assert code == 2
    assert "kronkit:" in err


def test_gen_random_is_deterministic(capsys):
    args = ["gen", "random", "--order", "8", "--p", "0.5", "--seed", "9",
            "--count", "3"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    assert len(out1.splitlines()) == 3
    for line in out1.splitlines():
        parse_graph6(line)


# -- kappa / cuts / super-kappa -------------------------------------------------

def test_kappa_inline(capsys):
    code, out, _ = run_cli(["kappa", "--g6", encode_graph6(make_complete(4))],
                           capsys)
    assert code == 0
    (rec,) = jsonl(out)
    assert rec == {"graph6": "C~", "kappa": 3, "delta": 3,
                   "maximally_connected": True}


def test_cuts_on_c4(capsys):
    code, out, _ = run_cli(["cuts", "--g6", encode_graph6(make_cycle(4))], capsys)
    assert code == 0
    assert jsonl(out) == [
        {"cut": [0, 2], "isolates": True, "neighborhood_of": 1},
        {"cut": [1, 3], "isolates": True, "neighborhood_of": 0},
    ]


def test_cuts_needs_exactly_one_graph(capsys):
    g6 = encode_graph6(make_cycle(4))
    code, _, err = run_cli(["cuts", "--g6", g6, "--g6", g6], capsys)
    assert code == 2 and "exactly one" in err


def test_super_kappa_on_c6_is_informational(capsys):
    code, out, _ = run_cli(
        ["super-kappa", "--g6", encode_graph6(make_cycle(6))], capsys)
    assert code == 0
    (rec,) = jsonl(out)
    assert rec["super_kappa"] is False
    assert rec["kappa"] == 2 and rec["delta"] == 2
    assert rec["non_isolating_cut"] == {"cut": [0, 3], "isolates": False,
                                        "neighborhood_of": None}


def test_super_kappa_budget_skip(capsys, monkeypatch):
    monkeypatch.setenv("KRONKIT_BUDGET", "2")
    code, out, _ = run_cli(
        ["super-kappa", "--g6", encode_graph6(make_cycle(6))], capsys)
    assert code == 3
    (rec,) = jsonl(out)
    assert rec["skip"] == "size-limit"


# -- ingestion ------------------------------------------------------------------

def test_file_ingestion_with_malformed_line(tmp_path, capsys):
    path = tmp_path / "corpus.g6"
    path.write_text(
        encode_graph6(make_cycle(4)) + "\n"
        + "!!bad!!\n"
        + encode_graph6(make_complete(3)) + "\n")
    code, out, _ = run_cli(["kappa", "--input", str(path)], capsys)
    records = jsonl(out)
    assert len(records) == 3
    assert records[0]["kappa"] == 2
    assert records[1]["error"] and records[1]["source"].endswith(":2")
    assert records[2]["kappa"] == 2
    assert code == 2  # parse error present, no violations


def test_missing_file_is_fatal(capsys):
    code, _, err = run_cli(["kappa", "--input", "/no/such/file.g6"], capsys)
    assert code == 2 and "cannot read" in err


def test_empty_file_gives_empty_stream(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, out, _ = run_cli(["kappa", "--input", str(path)], capsys)
    assert code == 0 and out == ""


def test_header_line_is_accepted(tmp_path, capsys):
    path = tmp_path / "h.g6"
    path.write_text(">>graph6<<" + encode_graph6(make_cycle(4)) + "\n")
    code, out, _ = run_cli(["kappa", "--input", str(path)], capsys)
    assert code == 0 and jsonl(out)[0]["kappa"] == 2


# -- product ---------------------------------------------------------------------

def test_product_command_writes_graph_and_mapping(tmp_path, capsys):
    out_file = tmp_path / "product.g6"
    mapping = tmp_path / "mapping.txt"
    code, _, _ = run_cli(
        ["product", "--g6", encode_graph6(make_cycle(3)), "--n", "2",
         "--output", str(out_file), "--mapping", str(mapping)], capsys)
    assert code == 0
    product = parse_graph6(out_file.read_text().strip())
    assert product.order == 6 and product.edge_count == 6
    rows = mapping.read_text().splitlines()
    assert rows[0] == "0 0 0" and rows[-1] == "5 2 1"


def test_product_rejects_n_below_2(capsys):
    code, _, _ = run_cli(
        ["product", "--g6", encode_graph6(make_cycle(3)), "--n", "1"], capsys)
    assert code == 2


# -- gstar -----------------------------------------------------------------------

def test_gstar_command_on_c5(capsys):
    code, out, _ = run_cli(
        ["gstar", "--g6", encode_graph6(make_cycle(5)), "--n", "3",
         "--trials", "10", "--seed", "5"], capsys)
    assert code == 0
    records = jsonl(out)
    # non-bipartite factor: 10 auxiliary-graph trials + 10 residue trials
    assert len(records) == 20
    assert all(r["error"] is None for r in records)
    assert all(r["gstar_connected"] is True for r in records[:10])
    assert all(r["split_residues"] == [] for r in records[10:])


def test_gstar_requires_n_at_least_3(capsys):
    code, _, _ = run_cli(
        ["gstar", "--g6", encode_graph6(make_cycle(5)), "--n", "2"], capsys)
    assert code == 2


def test_gstar_ineligible_graph_is_skip(capsys):
    # kappa != delta: bowtie
    from kronkit.graphs import graph_from_edges
    bowtie = graph_from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    code, out, _ = run_cli(
        ["gstar", "--g6", encode_graph6(bowtie), "--n", "3"], capsys)
    assert code == 3
    (rec,) = jsonl(out)
    assert "kappa" in rec["error"]


# -- verify / batch ----------------------------------------------------------------

def test_verify_rejects_n_2(capsys):
    code, _, _ = run_cli(["verify", "--n", "2", "--g6",
                          encode_graph6(make_cycle(5))], capsys)
    assert code == 2


def test_verify_exhaustive_order_4(capsys):
    # the sweep honestly flags the balanced-complete-bipartite family
    # (K_2 and C_4 at this order): their products with K_3 have full-column
    # minimum cuts that disconnect without isolating anything
    code, out, _ = run_cli(
        ["verify", "--n", "3", "--all-graphs", "--max-order", "4",
         "--workers", "1"], capsys)
    assert code == 1
    records = jsonl(out)
    summary = records[-1]
    assert summary["violations"] == 2 and summary["skips"] == 0
    assert summary["instances"] == len(records) - 1
    assert all(r["theorem11_holds"] for r in records[:-1])
    assert all(r["runtime_ms"] == 0 for r in records[:-1])
    flagged = [r for r in records[:-1] if "severity" in r]
    assert all(r["severity"] == "contradicts-paper" for r in flagged)
    assert all(r["non_isolating_cut"]["isolates"] is False for r in flagged)


def test_verify_filtered_corpus(capsys):
    from kronkit.corpus import are_isomorphic

    code, out, _ = run_cli(
        ["verify", "--n", "3", "--all-graphs", "--max-order", "4",
         "--filter", "connected,kd-equal", "--workers", "1"], capsys)
    assert code == 1
    records = jsonl(out)
    flagged = [parse_graph6(r["instance"]["graph6"])
               for r in records[:-1] if "severity" in r]
    assert len(flagged) == 2
    assert are_isomorphic(flagged[0], make_complete(2))
    assert are_isomorphic(flagged[1], make_cycle(4))
    for r in records[:-1]:
        if "severity" in r:
            continue
        # the one-vertex factor gives a disconnected product: vacuous verdict
        assert r["super_kappa_verdict"] is True or r["min_cut_count"] == 0


def test_batch_multiple_n_values(capsys):
    code, out, _ = run_cli(
        ["batch", "--n", "3,4", "--g6", encode_graph6(make_cycle(5)),
         "--workers", "1"], capsys)
    assert code == 0
    records = jsonl(out)
    assert [r["instance"]["n"] for r in records[:-1]] == [3, 4]
    assert records[-1]["holds"] == 2


def test_verify_is_an_alias_of_batch(capsys):
    args = ["--n", "3,4", "--g6", encode_graph6(make_cycle(4)),
            "--g6", encode_graph6(make_complete(4)), "--workers", "1"]
    code_b, out_b, _ = run_cli(["batch"] + args, capsys)
    code_v, out_v, _ = run_cli(["verify"] + args, capsys)
    assert code_b == code_v == 1
    assert out_v == out_b
    assert len(jsonl(out_v)) == 5


def test_batch_empty_factor_is_an_in_stream_skip(capsys):
    for workers in ("1", "2"):
        code, out, err = run_cli(["batch", "--n", "3,4", "--g6", "Bw", "--g6", "?",
                                  "--workers", workers], capsys)
        assert code == 3 and err == ""
        records = jsonl(out)
        assert [r.get("skip") for r in records] == [None, None, "empty-factor",
                                                    "empty-factor", None]
        assert records[2] == {"instance": {"graph6": "?", "n": 3},
                              "skip": "empty-factor",
                              "detail": "factor graph must be nonempty"}
        assert records[-1] == {"instances": 4, "holds": 2, "violations": 0,
                               "skips": 2}


def test_verify_byte_determinism_across_worker_counts(tmp_path, capsys):
    base = ["verify", "--n", "3", "--all-graphs", "--max-order", "4",
            "--filter", "connected,kd-equal"]
    out1 = tmp_path / "w1.jsonl"
    out2 = tmp_path / "w2.jsonl"
    # exit 1 on both runs: the K_2 and C_4 violations are real and stable
    assert main(base + ["--workers", "1", "--output", str(out1)]) == 1
    assert main(base + ["--workers", "2", "--output", str(out2)]) == 1
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_table_format_output(capsys):
    code, out, _ = run_cli(
        ["kappa", "--g6", encode_graph6(make_cycle(4)), "--format", "table"],
        capsys)
    assert code == 0
    assert "kappa=2" in out


def test_usage_error_exit_code(capsys):
    assert main(["verify"]) == 2  # missing required --n
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


# -- per-command options and input guards --------------------------------------------

@pytest.mark.parametrize("argv", [
    ["kappa", "--timing", "--g6", "Bw"],
    ["kappa", "--budget", "5", "--g6", "Bw"],
    ["product", "--format", "table", "--n", "3", "--g6", "Cr"],
    ["gstar", "--budget", "5", "--n", "3", "--g6", "Bw"],
    ["cuts", "--timing", "--g6", "Bw"],
], ids=lambda argv: f"{argv[0]}{argv[1]}")
def test_options_are_registered_only_where_read(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


def test_budget_variable_is_ignored_by_commands_without_budget(capsys, monkeypatch):
    monkeypatch.setenv("KRONKIT_BUDGET", "abc")
    code, out, _ = run_cli(["kappa", "--g6", "Bw"], capsys)
    assert code == 0
    assert jsonl(out)[0]["kappa"] == 2


@pytest.mark.parametrize("command", ["kappa", "super-kappa", "gstar"])
def test_empty_factor_is_an_in_stream_skip(command, capsys):
    argv = [command, "--g6", "Bw", "--g6", "?"]
    if command == "gstar":
        argv += ["--n", "3", "--trials", "2"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and err == ""
    records = jsonl(out)
    # Bw's records come first and intact; the run goes on past the empty factor
    assert len(records) > 1
    assert all("skip" not in r and not r.get("error") for r in records[:-1])
    assert all('"Bw"' in json.dumps(r) for r in records[:-1])
    assert out.splitlines()[-1] == ('{"instance":{"graph6":"?"},"skip":"empty-factor",'
                                    '"detail":"factor graph must be nonempty"}')


@pytest.mark.parametrize("argv, env, message", [
    (["batch", "--n", "3", "--g6", "Bw", "--workers", "0"], None, "--workers >= 1"),
    (["cuts", "--g6", "Bw", "--budget", "-1"], None, "--budget must be >= 0"),
    (["super-kappa", "--g6", "Bw"], "-4", "KRONKIT_BUDGET must be >= 0"),
    (["batch", "--n", "3", "--g6", "Bw", "--workers", "1"], "-1",
     "KRONKIT_BUDGET must be >= 0"),
    (["super-kappa", "--g6", "Bw"], "abc", "KRONKIT_BUDGET must be an integer"),
    (["cuts", "--g6", "Bw"], "1e3", "KRONKIT_BUDGET must be an integer"),
    (["gstar", "--n", "3", "--g6", "Bw", "--trials", "-1"], None, "--trials >= 0"),
    (["batch", "--n", "3", "--all-graphs", "--max-order", "9"], None,
     "--max-order <= 8"),
], ids=["workers-0", "budget-flag-negative", "budget-env-negative",
        "budget-env-negative-batch", "budget-env-word", "budget-env-float",
        "trials-negative", "max-order-9"])
def test_input_guards(argv, env, message, capsys, monkeypatch):
    def no_corpus(*_args, **_kwargs):  # fail fast instead of building order 9
        raise AssertionError("the corpus was built before the guard")
    monkeypatch.setattr("kronkit.cli.graphs_up_to", no_corpus)
    if env is not None:
        monkeypatch.setenv("KRONKIT_BUDGET", env)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert "kronkit:" in err and message in err


def test_budget_flag_wins_over_variable(capsys, monkeypatch):
    monkeypatch.setenv("KRONKIT_BUDGET", "abc")
    code, out, _ = run_cli(["cuts", "--g6", "Bw", "--budget", "100"], capsys)
    assert code == 0 and len(jsonl(out)) == 3
