"""Command-line front end: corpus ingestion, subcommands, and the JSON-lines
records, which only this module builds (``report_record``, ``skip_record``,
``summary_record``, ``trial_record`` and ``cut_record``) and reads
(``_classify``, for the exit code); the library returns typed records.

Exit codes: 0 when all checks passed or an informational command completed,
1 when at least one violation record was emitted, 2 for usage or parse
errors, when the C kernel cannot be built, when memory runs out (one
``kronkit: out of memory`` line, with the message if any) and when
``batch`` loses a pool process, as to the system's out-of-memory killer
(one ``kronkit:`` line), 3 when skip records (budget, size limit, empty
factor) occurred without violations, 141 (128 + SIGPIPE) when standard
output was closed before the run ended, as by ``| head``; the run then
stops without a traceback or a line on standard error.  No failure yet
becomes an in-stream error record.

``batch`` notes on standard error each violation that
``predicted_counterexample`` does not predict, one ``kronkit:`` line each.

JSON-lines output is byte-stable for fixed inputs, flags, and seed; pass
``batch --timing`` to include real runtimes (which breaks byte stability).
Each option is registered only on the commands that read it.  ``cuts``,
``super-kappa`` and ``batch`` give each instance a budget of residual
searches in the flow network, ``--budget`` or else ``DEFAULT_BUDGET``; an
instance that needs more becomes a ``size-limit`` skip record.
"""

from __future__ import annotations

import argparse
import itertools
import json
import json.encoder
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import _native
from .connectivity import CutSet, enumerate_min_cuts, min_cut_verdict, vertex_connectivity
from .corpus import all_graphs, iter_graphs
from .errors import BudgetExceededError, Graph6Error, KronkitError, PreconditionError
from .graphs import (
    GRAPH6_MAX_ORDER,
    Graph,
    encode_graph6,
    make_complete,
    make_cycle,
    parse_graph6,
    random_graph,
)
from .product_analysis import (
    KNOWN_FILTERS,
    BatchSummary,
    SkipRecord,
    TrialRecord,
    VerificationReport,
    batch_verify,
    check_filters,
    check_gstar_connected,
    check_residue_components,
    predicted_counterexample,
)
from .products import is_bipartite, kronecker, linearization_rows

GRAPH6_HEADER = ">>graph6<<"
MAX_CORPUS_ORDER = 9  # all_graphs(9) takes 3.7-5.0 s (nine runs, 2-core Xeon VM)
DEFAULT_MAX_ORDER = 5
# Residual searches allowed per instance.  The order-8 kd-equal sweep at
# n = 3, 4, 5 needs at most 335 (G]~v~w x K_5), so the default stops only a
# runaway instance: a search takes some 90 us on the 128-vertex Q_5 x K_4,
# which needs 1318 (2-core Xeon VM).
DEFAULT_BUDGET = 1_000_000
# The exit code of a process that SIGPIPE ends, as the shell reports it.
EXIT_CLOSED_PIPE = 128 + 13


class _Fatal(Exception):
    """Unrecoverable input problem; maps to exit code 2."""


# -- ingestion -----------------------------------------------------------------

@dataclass(frozen=True)
class IngestItem:
    location: str
    graph: Graph | None
    error: str | None = None


def _open_input(path: str):
    """``path`` opened for :func:`ingest_corpus`, ``-`` being standard input,
    read through a handle that leaves it open when closed; a file that
    cannot be opened is fatal."""
    try:
        if path == "-":
            return open(0, "r", encoding="ascii", errors="replace", closefd=False)
        return open(path, "r", encoding="ascii", errors="replace")
    except OSError as exc:
        raise _Fatal(f"cannot read input file {path!r}: {exc}") from exc


def ingest_corpus(paths: Iterable[str]) -> Iterator[IngestItem]:
    """Stream (location, graph) pairs from newline-delimited graph6 files,
    ``-`` being standard input, whose locations read ``-:N``.

    Malformed lines become in-stream error items; a missing file is fatal.
    Each byte outside ASCII decodes to one replacement character, so such a
    line fails the graph6 alphabet check at its byte offset.
    """
    for path in paths:
        with _open_input(path) as handle:
            for lineno, line in enumerate(handle, start=1):
                text = line.strip()
                if text.startswith(GRAPH6_HEADER):
                    text = text[len(GRAPH6_HEADER):].strip()
                if not text:
                    continue
                location = f"{path}:{lineno}"
                try:
                    yield IngestItem(location, parse_graph6(text))
                except Graph6Error as exc:
                    yield IngestItem(location, None, error=str(exc))


def _gather_inputs(args) -> Iterator[IngestItem]:
    """The inline arguments, parsed at the call, then the items of the input
    files as they are read.  A malformed inline argument, or an input file
    that cannot be opened, is fatal at the call, before any record, as is
    a closed standard input (``-``); opening it reads nothing."""
    inline = []
    for idx, text in enumerate(args.g6):
        try:
            inline.append(IngestItem(f"arg:{idx}", parse_graph6(text)))
        except Graph6Error as exc:
            raise _Fatal(f"inline graph6 argument {idx}: {exc}") from exc
    for path in args.input:
        _open_input(path).close()
    return itertools.chain(inline, ingest_corpus(args.input))


# -- emission ------------------------------------------------------------------

def _jsonl_encoder():
    """``json.dumps(value, separators=(",", ":"))`` as one function for a
    whole stream: ``JSONEncoder.encode`` builds a new C encoder on every
    call, and this builds it once, with the settings ``encode`` gives it
    but no circular-reference check (``markers`` None), since ``cli``'s
    record builders make only trees: a value that contains itself raises
    ``RecursionError``.  Without the C encoder, ``encode`` is the stdlib's
    own Python route, whose check raises ``ValueError`` for it."""
    encoder = json.JSONEncoder(separators=(",", ":"))
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    encode = make(None, encoder.default, json.encoder.encode_basestring_ascii,
                  None, encoder.key_separator, encoder.item_separator,
                  encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)
    return lambda value: "".join(encode(value, 0))


def emit_report(records: Iterable[dict], fmt: str, output: str | None) -> None:
    """Write records as JSON lines or a human table.

    A JSON line is exactly ``json.dumps(record, separators=(",", ":"))``,
    ASCII-escaped and with keys in insertion order, so fixed inputs give
    fixed bytes; one encoder renders the whole stream, and in a table each
    value.  A record holding a value JSON cannot encode raises
    ``TypeError``, and one that contains itself ``RecursionError`` (or
    ``ValueError`` without the C encoder); the lines before it are written,
    and no line for it.
    """
    encode = _jsonl_encoder()
    render = encode if fmt == "jsonl" else lambda record: "  ".join(
        f"{key}={encode(value)}" for key, value in record.items())
    _write_lines(map(render, records), output)


def cut_record(cut: CutSet) -> dict:
    """JSON-ready record with the fixed cut-list schema."""
    return {
        "cut": list(cut.vertices),
        "isolates": cut.isolates,
        "neighborhood_of": cut.witness,
    }


def report_record(report: VerificationReport, with_timing: bool = False) -> dict:
    """JSON-ready record with the fixed field set; ``runtime_ms`` is 0 unless
    real timing is requested, so that identical runs emit identical bytes."""
    record = {
        "instance": {"graph6": report.graph6, "n": report.n},
        "kappa_G": report.kappa_G,
        "delta_G": report.delta_G,
        "product_kappa": report.product_kappa,
        "formula_rhs": report.formula_rhs,
        "theorem11_holds": report.theorem11_holds,
        "super_kappa_verdict": report.super_kappa_verdict,
        "min_cut_count": report.min_cut_count,
        "non_isolating_cut": (None if report.non_isolating_cut is None
                              else cut_record(report.non_isolating_cut)),
        "runtime_ms": report.runtime_ms if with_timing else 0,
    }
    if report.severity is not None:
        record["severity"] = report.severity
    return record


def skip_record(skip: SkipRecord) -> dict:
    """A skip's record; its instance has no ``n`` when ``skip.n`` is None."""
    instance = ({"graph6": skip.graph6} if skip.n is None
                else {"graph6": skip.graph6, "n": skip.n})
    record = {"instance": instance, "skip": skip.reason, "detail": skip.detail}
    if skip.budget is not None:
        record["budget"] = skip.budget
    return record


def summary_record(summary: BatchSummary) -> dict:
    return {
        "instances": summary.instances,
        "holds": summary.holds,
        "violations": summary.violations,
        "skips": summary.skips,
    }


def trial_record(trial: TrialRecord) -> dict:
    graph6, n, t, removed, rejections, isolation_rejections, connected, split, error = trial
    return {
        "instance": {"graph6": graph6, "n": n},
        "trial": t,
        "removed": list(removed),
        "rejections": rejections,
        "isolation_rejections": isolation_rejections,
        "gstar_connected": connected,
        "split_residues": None if split is None else list(split),
        "error": error,
    }


def _parse_error(item: IngestItem) -> dict:
    """The in-stream record of a malformed input line."""
    return {"source": item.location, "error": item.error}


def _classify(record: dict, tally: dict) -> None:
    if "skip" in record:
        tally["skips"] += 1
    elif record.get("severity") is not None:
        tally["violations"] += 1
    elif record.get("error"):
        tally["parse_errors" if "source" in record else "skips"] += 1


def _tallied(records: Iterable[dict], tally: dict) -> Iterator[dict]:
    for record in records:
        _classify(record, tally)
        yield record


def _exit_code(tally: dict) -> int:
    if tally["violations"]:
        return 1
    if tally["parse_errors"]:
        return 2
    if tally["skips"]:
        return 3
    return 0


# -- command implementations -----------------------------------------------------

def _size_limit(g: Graph, exc: BudgetExceededError) -> dict:
    return skip_record(SkipRecord(encode_graph6(g), None, "size-limit", str(exc),
                                  exc.budget))


def _records_for_graphs(items: Iterable[IngestItem], per_graph,
                        *params) -> Iterator[dict]:
    """Records of ``per_graph(g, *params)`` for each input graph, in order.

    Parse errors and empty factors become in-stream records here, so the
    per-graph functions see only graphs with at least one vertex.
    """
    for item in items:
        if item.error is not None:
            yield _parse_error(item)
        elif item.graph.order == 0:
            yield skip_record(SkipRecord(encode_graph6(item.graph), None, "empty-factor",
                                         "factor graph must be nonempty"))
        else:
            yield from per_graph(item.graph, *params)


def _kappa_records(g: Graph) -> Iterator[dict]:
    kappa = vertex_connectivity(g)
    yield {
        "graph6": encode_graph6(g),
        "kappa": kappa,
        "delta": g.min_degree,
        "maximally_connected": kappa == g.min_degree,
    }


def _super_kappa_records(g: Graph, budget: int) -> Iterator[dict]:
    try:
        kappa, count, counterexample = min_cut_verdict(g, budget=budget)
    except BudgetExceededError as exc:
        yield _size_limit(g, exc)
        return
    except PreconditionError:  # one vertex, or disconnected: no cuts
        kappa, count, counterexample = 0, 0, None
    yield {
        "graph6": encode_graph6(g),
        "kappa": kappa,
        "delta": g.min_degree,
        "maximally_connected": kappa == g.min_degree,
        "super_kappa": count > 0 and counterexample is None,
        "min_cut_count": count,
        "non_isolating_cut": (None if counterexample is None
                              else cut_record(counterexample)),
    }


def _cuts_records(g: Graph, budget: int) -> Iterator[dict]:
    try:
        for cut in enumerate_min_cuts(g, budget=budget):
            yield cut_record(cut)
    except BudgetExceededError as exc:
        yield _size_limit(g, exc)
    except PreconditionError as exc:
        raise _Fatal(str(exc)) from exc


def _gstar_records(g: Graph, n: int, trials: int, seed: int) -> Iterator[dict]:
    try:
        records = check_gstar_connected(g, n, trials, seed)
        if not is_bipartite(g)[0]:
            records += check_residue_components(g, n, trials, seed)
    except PreconditionError as exc:
        yield {"instance": {"graph6": encode_graph6(g), "n": n}, "error": str(exc)}
        return
    for rec in records:
        yield trial_record(rec)


def _verify_records(args, items: Iterable[IngestItem], n_values: list[int],
                    filters: list[str], budget: int) -> Iterator[dict]:
    """``batch`` records over the ``--all-graphs`` corpus, then the input
    items; a parse-error record takes its line's place."""
    # The top layer streams from the kernel as it is found; only the layers
    # below it are held.
    corpus = itertools.chain(
        itertools.chain.from_iterable(
            all_graphs(order) if order < args.max_order else iter_graphs(order)
            for order in range(1, args.max_order + 1))
        if args.all_graphs else (),
        (item.graph if item.error is None else _parse_error(item) for item in items))
    for record in batch_verify(corpus, n_values, filters=tuple(filters),
                               budget=budget, workers=args.workers):
        if isinstance(record, VerificationReport):
            if record.severity is not None and not predicted_counterexample(
                    parse_graph6(record.graph6), record.n):
                print(f"kronkit: {record.graph6} x K_{record.n} contradicts the "
                      "paper outside the predicted K_{d,d} x K_3 family",
                      file=sys.stderr)
            yield report_record(record, with_timing=args.timing)
        elif isinstance(record, SkipRecord):
            yield skip_record(record)
        elif isinstance(record, BatchSummary):
            yield summary_record(record)
        else:  # a parse-error record, in its line's place
            yield record


# -- argument parsing --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronkit",
        description="Connectivity toolkit for Kronecker products of graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, fmt: bool = True,
               budget: bool = False) -> None:
        p.add_argument("--g6", action="append", default=[], metavar="STRING",
                       help="inline graph6 string (repeatable)")
        p.add_argument("--input", action="append", default=[], metavar="PATH",
                       help="newline-delimited graph6 file (repeatable); - reads "
                            "standard input, once")
        if fmt:
            p.add_argument("--format", choices=("jsonl", "table"), default="jsonl")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="destination file; default standard output")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="residual searches allowed per instance, default "
                                f"{DEFAULT_BUDGET}")

    gen = sub.add_parser("gen", help="emit generated graphs as graph6")
    families = gen.add_subparsers(dest="family", required=True)
    for name in ("complete", "cycle", "random"):
        family = families.add_parser(name)
        family.add_argument("--order", type=int, required=True)
        family.add_argument("--output", default=None)
    random_family = families.choices["random"]
    random_family.add_argument("--p", type=float, default=0.5,
                               help="edge probability")
    random_family.add_argument("--seed", type=int, default=0)
    random_family.add_argument("--count", type=int, default=1,
                               help="number of graphs (seeds seed, seed+1, ...)")

    product = sub.add_parser("product", help="emit the product with a complete graph")
    add_io(product, fmt=False)
    product.add_argument("--n", type=int, required=True,
                         help="order of the complete second factor (>= 2)")
    product.add_argument("--mapping", default=None, metavar="PATH",
                         help="write 'linear_index factor1 factor2' rows")

    kappa = sub.add_parser("kappa", help="connectivity and minimum degree")
    add_io(kappa)

    cuts = sub.add_parser("cuts", help="enumerate all minimum separating sets")
    add_io(cuts, budget=True)

    supk = sub.add_parser("super-kappa", help="super-connectivity verdict")
    add_io(supk, budget=True)

    gstar = sub.add_parser("gstar", help="sampled residue-graph checks")
    add_io(gstar)
    gstar.add_argument("--n", type=int, required=True)
    gstar.add_argument("--trials", type=int, default=100)
    gstar.add_argument("--seed", type=int, default=0)

    batch = sub.add_parser(
        "batch", aliases=["verify"],
        help="verify the connectivity formula and super-connectivity")
    add_io(batch, budget=True)
    batch.add_argument("--timing", action="store_true",
                       help="include real runtimes (breaks byte stability)")
    batch.add_argument("--n", required=True, metavar="N[,N...]",
                       help="comma-separated list of second-factor orders")
    batch.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    batch.add_argument("--all-graphs", action="store_true",
                       help="use the exhaustive corpus up to --max-order")
    batch.add_argument("--max-order", type=int,
                       help=f"largest --all-graphs order (default {DEFAULT_MAX_ORDER})")
    batch.add_argument("--filter", action="append", default=[],
                       metavar="{" + ",".join(KNOWN_FILTERS) + "}",
                       help="corpus filter (repeatable or comma-separated)")
    return parser


def _within(parser: argparse.ArgumentParser, command: str, flag: str, value: int,
            low: int, high: int | None = None) -> None:
    """A usage error unless ``low <= value <= high``, ``high`` None for no
    bound.  An output graph's order is bounded by graph6's largest, and
    what a kernel entry takes by a C int."""
    if value < low:
        parser.error(f"{command} needs {flag} >= {low}, got {value}")
    if high is not None and value > high:
        parser.error(f"{command} needs {flag} <= {high}, got {value}")


def _single_graph(items: Iterable[IngestItem]) -> Graph:
    graphs = []
    for item in items:
        if item.error is not None:
            raise _Fatal(f"{item.location}: {item.error}")
        graphs.append(item.graph)
    if len(graphs) != 1:
        raise _Fatal(f"this command needs exactly one input graph, got {len(graphs)}")
    return graphs[0]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        code = _dispatch(parser, parser.parse_args(argv))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except SystemExit as exc:  # --help, and parser.error while parsing or after
        return exc.code if isinstance(exc.code, int) else 2
    except (_Fatal, ValueError, KronkitError) as exc:
        print(f"kronkit: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"kronkit: out of memory{detail}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # a reader such as head closed standard output
        _discard_stdout()
        return EXIT_CLOSED_PIPE


def _discard_stdout() -> None:
    """Point standard output at the null device, so that the lines still
    buffered for the closed pipe cannot fail again when Python flushes
    them at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a file
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    command = args.command
    if command == "gen":
        _within(parser, "gen", "--order", args.order, 0, GRAPH6_MAX_ORDER)
        if args.family == "complete":
            lines = [encode_graph6(make_complete(args.order))]
        elif args.family == "cycle":
            lines = [encode_graph6(make_cycle(args.order))]
        else:
            _within(parser, "gen", "--count", args.count, 1)
            if not 0 <= args.p <= 1:  # NaN too: the lines are written as drawn
                parser.error(f"gen needs 0 <= --p <= 1, got {args.p}")
            lines = (encode_graph6(random_graph(args.order, args.p, args.seed + i))
                     for i in range(args.count))
        _write_lines(lines, args.output)
        return 0

    if args.input.count("-") > 1:
        parser.error("--input - (standard input) can be given once")
    # Opening --output empties it before the lazy record stream reads the inputs.
    if any(_same_file(path, args.output) for path in args.input):
        parser.error(f"--output {args.output!r} is also an --input file")
    if "budget" in args:
        _within(parser, command, "--budget", args.budget, 0)

    if command == "product":
        _within(parser, "product", "--n", args.n, 2, GRAPH6_MAX_ORDER)
        if any(_same_file(path, args.mapping) for path in [*args.input, args.output]):
            parser.error(f"--mapping {args.mapping!r} is also the --output "
                         "or an --input file")
    elif command == "gstar":
        _within(parser, "gstar", "--n", args.n, 3, _native.INT_MAX)
        _within(parser, "gstar", "--trials", args.trials, 0, _native.INT_MAX)
    elif command in ("batch", "verify"):
        try:
            n_values = [int(part) for part in args.n.split(",") if part]
        except ValueError:
            parser.error(f"{command} needs integer --n values, got {args.n!r}")
        if not n_values:
            parser.error(f"{command} needs at least one --n value")
        for n in n_values:
            _within(parser, command, "--n", n, 3, _native.INT_MAX)
        _within(parser, command, "--workers", args.workers, 1)
        if args.max_order is None:
            args.max_order = DEFAULT_MAX_ORDER
        elif not args.all_graphs:
            parser.error(f"--max-order needs --all-graphs, got --max-order "
                         f"{args.max_order} without it")
        _within(parser, "--all-graphs", "--max-order", args.max_order, 1, MAX_CORPUS_ORDER)
        filters = []
        for chunk in args.filter:
            filters.extend(part for part in chunk.split(",") if part)
        check_filters(filters)

    # Every input is parsed or opened here, before --output is, so that a
    # bad one leaves the output file as it was.
    items = _gather_inputs(args)
    if command == "product":
        g = _single_graph(items)
        _within(parser, "product", "|G|", g.order, 1)
        _within(parser, "product", "|G| * --n", g.order * args.n, 0, GRAPH6_MAX_ORDER)
        _write_lines([encode_graph6(kronecker(g, make_complete(args.n)))], args.output)
        if args.mapping:
            _write_lines(linearization_rows(g.order, args.n), args.mapping)
        return 0
    if command == "kappa":
        records = _records_for_graphs(items, _kappa_records)
    elif command == "super-kappa":
        records = _records_for_graphs(items, _super_kappa_records, args.budget)
    elif command == "cuts":
        records = _cuts_records(_single_graph(items), args.budget)
    elif command == "gstar":
        records = _records_for_graphs(items, _gstar_records, args.n, args.trials, args.seed)
    else:  # batch, or its alias verify
        records = _verify_records(args, items, n_values, filters, args.budget)

    tally = {"violations": 0, "skips": 0, "parse_errors": 0}
    emit_report(_tallied(records, tally), args.format, args.output)
    return _exit_code(tally)


def _same_file(a: str | None, b: str | None) -> bool:
    """Whether paths ``a`` and ``b`` name one file; None and ``-`` name none."""
    if {a, b} & {None, "-"}:
        return False
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return os.path.realpath(a) == os.path.realpath(b)


def _write_lines(lines: Iterable[str], output: str | None) -> None:
    if output in (None, "-"):
        for line in lines:
            sys.stdout.write(line + "\n")
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            for line in lines:
                handle.write(line + "\n")
    except OSError as exc:
        raise _Fatal(f"cannot write output {output!r}: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
