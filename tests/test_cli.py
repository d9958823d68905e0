"""Integration tests for the kronkit command-line interface."""

import hashlib
import json
import json.encoder
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kronkit import cli, corpus, product_analysis
from kronkit.cli import (
    emit_report,
    ingest_corpus,
    main,
    report_record,
    skip_record,
    summary_record,
    trial_record,
)
from kronkit.graphs import encode_graph6, make_complete, make_cycle, parse_graph6
from kronkit.product_analysis import (
    KNOWN_FILTERS,
    SkipRecord,
    batch_verify,
    check_gstar_connected,
    verify_connectivity_formula,
    verify_super_connectivity,
)

from oracles import two_cycles


SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_gen_random_writes_each_graph_before_drawing_the_next(capsys, monkeypatch):
    drawn = []
    real = cli.random_graph

    def third_fails(*args):
        drawn.append(args)
        if len(drawn) == 3:
            raise RuntimeError("third graph")
        return real(*args)
    monkeypatch.setattr(cli, "random_graph", third_fails)
    with pytest.raises(RuntimeError, match="third graph"):
        main(["gen", "random", "--order", "6", "--seed", "4", "--count", "1000000"])
    lines = capsys.readouterr().out.splitlines()
    assert lines == [encode_graph6(real(6, 0.5, seed)) for seed in (4, 5)]


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


@pytest.mark.parametrize("k", [5, 33])
def test_cuts_on_a_disconnected_graph_is_fatal(k, capsys):
    """Two disjoint copies of C_k: the kernel refuses 2C_5, and the Python
    network, which the 66 vertices of 2C_33 take, refuses 2C_33."""
    code, out, err = run_cli(["cuts", "--g6", encode_graph6(two_cycles(k))], capsys)
    assert code == 2 and out == ""
    assert err == "kronkit: min-cut enumeration needs a connected graph\n"


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


def test_super_kappa_without_cuts_is_false(capsys):
    """The two-vertex graph without an edge and the one-vertex graph have no
    minimum cut: kappa 0, and a false verdict with no counterexample."""
    code, out, _ = run_cli(["super-kappa", "--g6", "A?", "--g6", "@"], capsys)
    assert code == 0
    for rec, g6 in zip(jsonl(out), ["A?", "@"], strict=True):
        assert rec == {"graph6": g6, "kappa": 0, "delta": 0,
                       "maximally_connected": True, "super_kappa": False,
                       "min_cut_count": 0, "non_isolating_cut": None}


def test_super_kappa_budget_skip(capsys):
    code, out, _ = run_cli(
        ["super-kappa", "--g6", encode_graph6(make_cycle(6)), "--budget", "2"], capsys)
    assert code == 3
    (rec,) = jsonl(out)
    assert rec["skip"] == "size-limit"
    assert rec["budget"] == 2


def test_default_budget_verifies_k44_times_k4(capsys):
    # The subset count C(32, 12) once refused this instance; its residual
    # searches number a few hundred.
    code, out, _ = run_cli(["batch", "--n", "4", "--g6", "G?~vf_", "--workers", "1"],
                           capsys)
    assert code == 0
    rec, summary = jsonl(out)
    assert "skip" not in rec
    assert rec["super_kappa_verdict"] is True and rec["min_cut_count"] == 8
    assert summary["skips"] == 0


def test_budget_skips_both_verification_routes(capsys):
    # C5 (kappa == delta) takes the verdict route; the bowtie DxK
    # (kappa 1 < delta 2) takes the formula route.
    code, out, _ = run_cli(["batch", "--n", "3", "--g6", "Dhc", "--g6", "DxK",
                            "--budget", "5", "--workers", "1"], capsys)
    assert code == 3
    verdict, formula, summary = jsonl(out)
    for rec, g6 in ((verdict, "Dhc"), (formula, "DxK")):
        assert rec["instance"] == {"graph6": g6, "n": 3}
        assert rec["skip"] == "size-limit" and rec["budget"] == 5
    assert summary["skips"] == 2


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


@pytest.mark.parametrize("argv", [["kappa"], ["batch", "--n", "4", "--workers", "1"]],
                         ids=["kappa", "batch"])
def test_non_ascii_byte_is_an_in_stream_parse_error(argv, tmp_path, capsys):
    # Each undecodable byte reaches the graph6 check as one character, so
    # the line gets a parse-error record and the other lines still run.
    path = tmp_path / "bad.g6"
    path.write_bytes(b"Bw\n\xc3\xa9\nCr\n")
    code, out, err = run_cli(argv + ["--input", str(path)], capsys)
    assert code == 2 and err == ""  # parse error present, no violations
    records = jsonl(out)
    assert [r for r in records if "source" in r] == [{
        "source": f"{path}:2",
        "error": "character '\ufffd' outside graph6 alphabet (byte offset 0)"}]
    graphs = [r["graph6"] if "graph6" in r else r["instance"]["graph6"]
              for r in records if "graph6" in r or "instance" in r]
    assert graphs == ["Bw", "Cr"]
    if argv[0] == "batch":
        assert records[-1] == {"instances": 2, "holds": 2, "violations": 0, "skips": 0}


@pytest.mark.parametrize("argv", [
    ["kappa"], ["super-kappa"], ["gstar", "--n", "3", "--trials", "2"],
    ["batch", "--n", "3", "--workers", "1"],
], ids=["kappa", "super-kappa", "gstar", "batch"])
def test_output_naming_an_input_leaves_the_input_intact(argv, tmp_path, capsys,
                                                        monkeypatch):
    # The same file under another spelling: the check compares files, not names.
    path = tmp_path / "f.g6"
    path.write_text("Bw\nCr\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv + ["--input", str(path), "--output", "f.g6"], capsys)
    assert code == 2 and out == ""
    assert "kronkit:" in err and "--output 'f.g6' is also an --input file" in err
    assert path.read_text() == "Bw\nCr\n"


def test_output_naming_a_missing_input_writes_nothing(tmp_path, capsys, monkeypatch):
    # Opening --output would create the input file empty and read it back.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["kappa", "--input", "f.g6", "--output", "./f.g6"], capsys)
    assert code == 2 and out == ""
    assert "--output './f.g6' is also an --input file" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["missing-input", "malformed-g6"])
@pytest.mark.parametrize("argv", [
    ["kappa"], ["super-kappa"], ["cuts"], ["gstar", "--n", "3"],
    ["batch", "--n", "3", "--workers", "1"], ["product", "--n", "3"],
], ids=["kappa", "super-kappa", "cuts", "gstar", "batch", "product"])
def test_bad_input_leaves_the_output_file_as_it_was(argv, bad, tmp_path, capsys):
    # Each input is parsed or opened before --output is, by every command.
    output = tmp_path / "out.txt"
    output.write_bytes(b"earlier run\n")
    inputs = (["--g6", "Bw", "--input", str(tmp_path / "missing.g6")]
              if bad == "missing-input" else ["--g6", "Bw!"])
    code, out, err = run_cli(argv + inputs + ["--output", str(output)], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("kronkit:")
    assert output.read_bytes() == b"earlier run\n"


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


def _piped(argv, stdin: bytes) -> tuple[int, bytes, bytes]:
    """Exit code, standard output and standard error of ``kronkit`` in a
    process whose standard input is a pipe that carries ``stdin``."""
    proc = subprocess.run([sys.executable, "-m", "kronkit.cli", *argv], input=stdin,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


# Cr is K_{2,2}, a predicted violation at n = 3.
@pytest.mark.parametrize("argv", [
    ["kappa"], ["super-kappa"], ["batch", "--n", "3,4", "--workers", "1"],
], ids=["kappa", "super-kappa", "batch"])
def test_input_dash_reads_standard_input_as_the_file(argv, tmp_path):
    """``--input -`` reads a pipe, with the bytes and exit code of the same
    lines in a file."""
    data = b"Bw\nCr\n>>graph6<<D~{\n\nEhEG\n"
    path = tmp_path / "corpus.g6"
    path.write_bytes(data)
    piped = _piped(argv + ["--input", "-"], data)
    assert piped == _piped(argv + ["--input", str(path)], b"")
    assert piped[1].count(b"\n") > 1 and piped[2] == b""


@pytest.mark.parametrize("argv", [["kappa"], ["batch", "--n", "4", "--workers", "1"]],
                         ids=["kappa", "batch"])
def test_bad_line_on_standard_input_is_located_at_dash(argv, tmp_path):
    """A byte outside ASCII on standard input fails at the offset it fails
    at in a file, and its parse-error record is located at ``-:N``."""
    data = b"Bw\n\xc3\xa9\nCr\n"
    path = tmp_path / "bad.g6"
    path.write_bytes(data)
    code, out, err = _piped(argv + ["--input", "-"], data)
    assert (code, err) == (2, b"")
    assert [r for r in jsonl(out.decode()) if "source" in r] == [{
        "source": "-:2",
        "error": "character '\ufffd' outside graph6 alphabet (byte offset 0)"}]
    from_file = _piped(argv + ["--input", str(path)], b"")
    assert from_file == (code, out.replace(b'"-:2"', f'"{path}:2"'.encode()), err)


def test_closed_standard_input_leaves_the_output_file_as_it_was(tmp_path):
    """``--input -`` with standard input closed is fatal before ``--output``
    is opened, as an input file that cannot be opened is."""
    output = tmp_path / "out.txt"
    output.write_bytes(b"earlier run\n")
    proc = subprocess.run([sys.executable, "-m", "kronkit.cli", "kappa", "--input", "-",
                           "--output", str(output)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          preexec_fn=lambda: os.close(0), capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"kronkit: cannot read input file '-'")
    assert output.read_bytes() == b"earlier run\n"


def test_input_dash_twice_is_a_usage_error(capsys):
    code, out, err = run_cli(["kappa", "--input", "-", "--g6", "Bw", "--input", "-"],
                             capsys)
    assert code == 2 and out == ""
    assert "kronkit: error: --input - (standard input) can be given once" in err


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


@pytest.mark.parametrize("mapping", ["out.txt", "in.g6"], ids=["output", "input"])
def test_product_mapping_naming_another_file_writes_nothing(mapping, tmp_path, capsys,
                                                            monkeypatch):
    # --output does not exist yet, so it matches by name; the input by file.
    source = tmp_path / "in.g6"
    source.write_text("Bw\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(["product", "--input", str(source), "--n", "3", "--output",
                              "out.txt", "--mapping", f"./{mapping}"], capsys)
    assert code == 2 and out == ""
    assert f"--mapping './{mapping}' is also the --output or an --input file" in err
    assert list(tmp_path.iterdir()) == [source]
    assert source.read_text() == "Bw\n"


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
    from oracles import graph_from_edges
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


@pytest.mark.parametrize("filters, digest", [
    ([], "5032b9a5a1f594c309393df751ec74045f76038b97ccd4ec3185174a4b158aff"),
    (["--filter", "connected"],
     "09627a77668ff25f38edb056da87a5b6b4e5c250923332925186e9d1800c8500"),
])
def test_batch_stream_over_every_graph_to_order_5_is_pinned(filters, digest, capsys):
    """The whole stream, disconnected factors and ``K_1`` included, keeps
    the bytes that the verdict route gave when it searched every product
    and factor for connectivity (105 and 63 lines)."""
    code, out, _ = run_cli(["batch", "--all-graphs", "--max-order", "5",
                            "--n", "3,4", *filters], capsys)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_filtered_corpus(capsys):
    from oracles import are_isomorphic

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


def test_batch_repeated_n_values_count_once(capsys):
    code, out, _ = run_cli(["batch", "--n", "4,3,4", "--g6", "Bw", "--workers", "1"],
                           capsys)
    assert code == 0
    records = jsonl(out)
    assert [r["instance"]["n"] for r in records[:-1]] == [4, 3]
    assert records[-1] == {"instances": 2, "holds": 2, "violations": 0, "skips": 0}


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


def test_batch_parse_error_keeps_its_input_position(tmp_path, capsys):
    path = tmp_path / "mixed.g6"
    path.write_text("Bw\n!!bad!!\nCr\n")
    for workers in ("1", "2"):
        code, out, err = run_cli(["batch", "--n", "4", "--input", str(path),
                                  "--workers", workers], capsys)
        assert code == 2 and err == ""
        records = jsonl(out)
        assert [r["instance"]["graph6"] if "instance" in r else r.get("source")
                for r in records[:-1]] == ["Bw", f"{path}:2", "Cr"]
        assert records[-1] == {"instances": 2, "holds": 2, "violations": 0,
                               "skips": 0}


@pytest.mark.parametrize("inputs", [["--input", "/no/such/file.g6"],
                                    ["--g6", "!!bad!!"]], ids=["missing", "inline"])
def test_batch_bad_input_stops_before_the_corpus_streams(inputs, capsys):
    code, out, err = run_cli(["batch", "--n", "3", "--all-graphs", "--max-order",
                              "4", "--workers", "1", *inputs], capsys)
    assert code == 2 and out == "" and "kronkit:" in err


def test_verify_byte_determinism_across_worker_counts(tmp_path, capsys):
    runs = [
        # exit 1: the K_2 and C_4 violations are real and stable
        (["verify", "--n", "3", "--all-graphs", "--max-order", "4",
          "--filter", "connected,kd-equal"], 1),
        # exit 3: the golden batch run, whose budget skips must not depend
        # on how the instances are spread over the workers
        (["batch", "--n", "3,4,5", "--all-graphs", "--max-order", "6",
          "--filter", "connected,nonbipartite", "--budget", "40"], 3),
    ]
    for i, (base, code) in enumerate(runs):
        out1 = tmp_path / f"w1-{i}.jsonl"
        out2 = tmp_path / f"w2-{i}.jsonl"
        assert main(base + ["--workers", "1", "--output", str(out1)]) == code
        assert main(base + ["--workers", "2", "--output", str(out2)]) == code
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()


def _every_record_kind(tmp_path, monkeypatch):
    """One record of each kind the CLI emits, built by the code that emits it."""
    super_report = report_record(verify_super_connectivity(parse_graph6("C]"), 3))
    assert super_report["severity"] and super_report["non_isolating_cut"]
    skip, summary = batch_verify([parse_graph6("G?~vf_")], [4], budget=5)
    assert isinstance(skip, SkipRecord) and skip.budget == 5
    monkeypatch.setattr(product_analysis, "MAX_REJECTIONS", 0)
    product_analysis._draw_trials.cache_clear()
    spent = [r for r in check_gstar_connected(make_complete(3), 3, 6, 0) if r.error]
    product_analysis._draw_trials.cache_clear()
    corpus = tmp_path / "gráficos.g6"
    corpus.write_text("!!bad!!\n")
    (item,) = ingest_corpus([str(corpus)])
    return [super_report,
            report_record(verify_connectivity_formula(make_cycle(5), 3)),
            skip_record(skip), summary_record(summary), trial_record(spent[0]),
            {"source": item.location, "error": item.error}]


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "python-encoder"])
def test_jsonl_lines_are_json_dumps_of_every_record_kind(c_encoder, tmp_path, monkeypatch,
                                                         capsys):
    records = _every_record_kind(tmp_path, monkeypatch)
    if not c_encoder:  # as on a Python built without the _json module
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    assert "\\u00e1" in json.dumps(records[-1])  # the file name is escaped
    expected = "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)
    path = tmp_path / "out.jsonl"
    emit_report(iter(records), "jsonl", str(path))
    assert path.read_bytes() == expected.encode("ascii")
    emit_report(iter(records), "jsonl", "-")
    assert capsys.readouterr().out == expected
    emit_report(iter(records), "table", "-")
    assert capsys.readouterr().out == "".join(
        "  ".join(f"{k}={json.dumps(v, separators=(',', ':'))}" for k, v in r.items())
        + "\n" for r in records)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "python-encoder"])
def test_a_record_that_contains_itself_raises_and_writes_no_line(c_encoder, tmp_path,
                                                                 monkeypatch):
    """The C encoder has no circular-reference check, so such a record
    recurses until ``RecursionError``; the Python route keeps the check."""
    if not c_encoder:
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    record = {"instance": {"graph6": "Bw"}}
    record["instance"]["self"] = record
    path = tmp_path / "out.txt"
    for fmt, first in (("jsonl", '{"trial":0}'), ("table", "trial=0")):
        with pytest.raises(RecursionError if c_encoder else ValueError):
            emit_report([{"trial": 0}, record], fmt, str(path))
        assert path.read_text() == first + "\n"


def test_a_record_json_cannot_encode_raises_type_error(tmp_path):
    with pytest.raises(TypeError, match="set"):
        emit_report([{"removed": [1]}, {"removed": {1}}], "jsonl",
                    str(tmp_path / "out.jsonl"))


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


def test_only_an_unpredicted_violation_is_noted_on_stderr(capsys, monkeypatch):
    """``K_{3,3} x K_3`` is a predicted violation: exit code 1 and a quiet
    stderr.  Were it unpredicted, one ``kronkit:`` line would name it, and
    the records would not change."""
    argv = ["batch", "--n", "3,4", "--g6", "Es\\o", "--workers", "1"]
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (1, "")
    monkeypatch.setattr(cli, "predicted_counterexample", lambda g, n: False)
    assert run_cli(argv, capsys) == (1, out, "kronkit: Es\\o x K_3 contradicts "
                                     "the paper outside the predicted K_{d,d} x "
                                     "K_3 family\n")


def test_closed_pipe_ends_the_run_quietly_with_exit_code_141():
    """A reader that closes standard output after one line, as ``head -1``
    does, ends ``batch`` without a traceback or a stderr line, with exit
    code 141 (128 + SIGPIPE).  The run's output, about 200 KB, is larger
    than a pipe buffer, so the writer is still writing when the pipe
    closes."""
    argv = ["batch", "--all-graphs", "--max-order", "7", "--n", "3",
            "--filter", "connected"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen([sys.executable, "-m", "kronkit.cli", *argv],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert json.loads(first)["instance"] == {"graph6": "@", "n": 3}
    assert (code, err) == (141, b"")


def test_running_out_of_memory_is_one_line_and_exit_code_2():
    """A buffer that cannot be allocated ends the run with exit code 2 and
    one ``kronkit:`` line, not a traceback and exit code 1, which means
    violations.  Only the child's address space is limited: 1.5 GB, less
    than the 1.6 GB that 10**8 trials of ``Bw x K_3`` need for their
    removal ids alone, so the allocation fails before any is made."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)

    argv = ["gstar", "--g6", "Bw", "--n", "3", "--trials", "100000000"]
    proc = subprocess.run([sys.executable, "-m", "kronkit.cli", *argv],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          preexec_fn=limit, capture_output=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, b"", b"kronkit: out of memory\n")


def test_out_of_memory_line_carries_the_message(capsys, monkeypatch):
    def draw(g, n, trials, seed):
        raise MemoryError("the residue kernel could not draw order 3, n 3")

    monkeypatch.setattr(cli, "check_gstar_connected", draw)
    assert run_cli(["gstar", "--g6", "Bw", "--n", "3"], capsys) == (
        2, "", "kronkit: out of memory: the residue kernel could not draw "
        "order 3, n 3\n")


def test_all_graphs_streams_its_top_order(capsys, monkeypatch):
    """``--all-graphs`` takes the layers below ``--max-order`` whole, and
    the top one as the kernel finds it: the order-6 layer is never held."""
    whole, streamed = [], []

    def all_graphs(order):
        whole.append(order)
        return corpus.all_graphs(order)

    def iter_graphs(order):
        streamed.append(order)
        return corpus.iter_graphs(order)

    monkeypatch.setattr(cli, "all_graphs", all_graphs)
    monkeypatch.setattr(cli, "iter_graphs", iter_graphs)
    code, out, _ = run_cli(["batch", "--all-graphs", "--max-order", "6", "--n", "3",
                            "--workers", "1"], capsys)
    assert code == 1  # the predicted K_{d,d} x K_3 violations
    assert (whole, streamed) == ([1, 2, 3, 4, 5], [6])
    layers = [g for order in range(1, 7) for g in corpus.all_graphs(order)]
    records = jsonl(out)
    assert [r["instance"]["graph6"] for r in records[:-1]] == [
        encode_graph6(g) for g in layers]


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


@pytest.mark.parametrize("argv, message", [
    (["batch", "--n", "3", "--g6", "Bw", "--workers", "0"], "--workers >= 1"),
    (["batch", "--n", ",", "--g6", "Bw"], "batch needs at least one --n value"),
    (["cuts", "--g6", "Bw", "--budget", "-1"], "cuts needs --budget >= 0, got -1"),
    (["gstar", "--n", "3", "--g6", "Bw", "--trials", "-1"], "--trials >= 0"),
    (["batch", "--n", "3", "--all-graphs", "--max-order", "10"], "--max-order <= 9"),
    (["batch", "--n", "3", "--all-graphs", "--max-order", "0"],
     "--max-order >= 1, got 0"),
    (["batch", "--n", "3", "--all-graphs", "--max-order", "-2"],
     "--max-order >= 1, got -2"),
    (["batch", "--n", "3", "--g6", "Bw", "--max-order", "50"],
     "--max-order needs --all-graphs, got --max-order 50 without it"),
    (["batch", "--n", "3", "--g6", "Bw", "--max-order", "-4"],
     "--max-order needs --all-graphs, got --max-order -4 without it"),
    (["gen", "random", "--order", "5", "--count", "0"], "--count >= 1, got 0"),
    (["gen", "random", "--order", "5", "--count", "-2"], "--count >= 1, got -2"),
    (["gen", "random", "--order", "5", "--p", "2"], "gen needs 0 <= --p <= 1, got 2.0"),
    (["gen", "random", "--order", "5", "--p", "nan"], "gen needs 0 <= --p <= 1, got nan"),
    (["gen", "complete", "--order", "4", "--p", "7", "--seed", "-3"],
     "unrecognized arguments: --p 7 --seed -3"),
    (["gen", "cycle", "--order", "5", "--count", "3"],
     "unrecognized arguments: --count 3"),
    # Sizes past what the kernel or graph6 takes: each stops before a
    # graph or a buffer is built.
    (["batch", "--n", "100000000000000000000", "--g6", "Bw", "--workers", "1"],
     "batch needs --n <= 2147483647, got 100000000000000000000"),
    (["batch", "--n", "3,2147483648", "--g6", "Bw", "--workers", "1"],
     "batch needs --n <= 2147483647, got 2147483648"),
    (["product", "--n", "100000000000000000000", "--g6", "Bw"],
     "product needs --n <= 258047, got 100000000000000000000"),
    (["product", "--n", "2147483648", "--g6", "Bw"],
     "product needs --n <= 258047, got 2147483648"),
    (["product", "--n", "100000", "--g6", "Bw"],
     "product needs |G| * --n <= 258047, got 300000"),
    (["product", "--n", "258047", "--g6", "?"], "product needs |G| >= 1, got 0"),
    (["gstar", "--n", "100000000000000000000", "--g6", "Bw", "--trials", "1"],
     "gstar needs --n <= 2147483647, got 100000000000000000000"),
    (["gstar", "--n", "2147483648", "--g6", "Bw", "--trials", "1"],
     "gstar needs --n <= 2147483647, got 2147483648"),
    (["gstar", "--n", "3", "--g6", "Bw", "--trials", "2147483648"],
     "gstar needs --trials <= 2147483647, got 2147483648"),
    (["gen", "complete", "--order", "300000"], "gen needs --order <= 258047, got 300000"),
    (["gen", "cycle", "--order", "300000"], "gen needs --order <= 258047, got 300000"),
    (["gen", "random", "--order", "300000"], "gen needs --order <= 258047, got 300000"),
], ids=["workers-0", "n-empty", "budget-flag-negative", "trials-negative", "max-order-10",
        "max-order-0", "max-order-negative", "max-order-alone",
        "max-order-alone-negative", "count-0", "count-negative", "p-above-1", "p-nan",
        "gen-complete-random-options", "gen-cycle-count",
        "batch-n-huge", "batch-n-past-int", "product-n-huge", "product-n-past-int",
        "product-order-past-graph6", "product-empty-factor", "gstar-n-huge", "gstar-n-past-int",
        "gstar-trials-past-int", "gen-complete-order", "gen-cycle-order",
        "gen-random-order"])
def test_input_guards(argv, message, capsys, monkeypatch, kernel):
    def no_build(*_args, **_kwargs):  # fail fast instead of building order 9
        raise AssertionError("a corpus, graph or buffer was built before the guard")
    for name in ("cli.all_graphs", "cli.make_complete", "cli.make_cycle",
                 "cli.random_graph", "cli.kronecker", "product_analysis._draw_trials"):
        monkeypatch.setattr(f"kronkit.{name}", no_build)
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and out == ""
    assert err.count("kronkit: error:") == 1 and message in err
    assert "Traceback" not in err
    assert kernel.calls["splitflow_product"] == 0


@pytest.mark.parametrize("g6", ["Cl", "DxK"], ids=["c4-verdict", "bowtie-formula"])
def test_batch_refuses_a_product_past_a_c_int(g6, capsys, kernel):
    """``--n 2**30`` fits a C int, but neither C_4's product (kappa = delta,
    so the verdict route) nor the bowtie's (kappa < delta, the formula
    route) does: ``batch`` exits 2 with one line, before the kernel builds
    any of the product."""
    code, out, err = run_cli(["batch", "--n", str(2**30), "--g6", g6, "--workers", "1"],
                             capsys)
    assert code == 2 and out == ""
    order = {"Cl": 4, "DxK": 5}[g6] * 2**30
    assert err == ("kronkit: the flow kernel takes at most 2147483647 vertices, "
                   f"got order {order}\n")
    assert kernel.calls["splitflow_product"] == 0


def test_budget_is_not_read_from_the_environment(capsys, monkeypatch):
    # The budget comes from --budget or the default only: a variable that
    # once set it must not shrink it.
    monkeypatch.setenv("KRONKIT_BUDGET", "2")
    code, out, _ = run_cli(
        ["super-kappa", "--g6", encode_graph6(make_cycle(6))], capsys)
    assert code == 0 and "skip" not in jsonl(out)[0]


def test_budget_variable_is_ignored_by_commands_without_budget(capsys, monkeypatch):
    monkeypatch.setenv("KRONKIT_BUDGET", "abc")
    code, out, _ = run_cli(["kappa", "--g6", "Bw"], capsys)
    assert code == 0
    assert jsonl(out)[0]["kappa"] == 2


def test_budget_flag_wins_over_variable(capsys, monkeypatch):
    monkeypatch.setenv("KRONKIT_BUDGET", "abc")
    code, out, _ = run_cli(["cuts", "--g6", "Bw", "--budget", "100"], capsys)
    assert code == 0 and len(jsonl(out)) == 3


def test_filter_metavar_lists_the_filter_table(capsys):
    code, out, _ = run_cli(["batch", "--help"], capsys)
    assert code == 0
    metavar = "{" + ",".join(KNOWN_FILTERS) + "}"
    assert f"--filter {metavar}" in out
    assert out.count("--filter {") == 2  # usage line and option list


def test_unknown_filter_is_rejected_before_any_record(capsys, tmp_path):
    # The parse-error record of the second line used to stream before the
    # filter name was checked, and the run then aborted without a summary.
    corpus = tmp_path / "two.g6"
    corpus.write_text("Bw\n!!\n", encoding="utf-8")
    code, out, err = run_cli(["batch", "--n", "3", "--input", str(corpus),
                              "--filter", "connected,bogus", "--workers", "1"], capsys)
    assert code == 2 and out == ""
    assert "kronkit:" in err and "unknown filter 'bogus'" in err
