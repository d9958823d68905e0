"""Command-line front end: corpus ingestion, subcommands, report emission.

Exit codes: 0 when all checks passed or an informational command completed,
1 when at least one violation record was emitted, 2 for usage or parse
errors, 3 when skip records (budget, size limit, empty factor) occurred
without violations.

JSON-lines output is byte-stable for fixed inputs, flags, and seed; pass
``batch --timing`` to include real runtimes (which breaks byte stability).
Each option is registered only on the commands that read it.  For ``cuts``,
``super-kappa`` and ``batch`` the ``KRONKIT_BUDGET`` environment variable
overrides the default subset-scan budget, and an explicit ``--budget`` wins
over both; the other commands ignore the variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

from .connectivity import (
    connectivity_result,
    cut_record,
    enumerate_min_cuts,
    vertex_connectivity,
)
from .corpus import graphs_up_to
from .errors import BudgetExceededError, Graph6Error, PreconditionError
from .graphs import (
    Graph,
    encode_graph6,
    make_complete,
    make_cycle,
    parse_graph6,
    random_graph,
)
from .product_analysis import (
    BatchSummary,
    SkipRecord,
    VerificationReport,
    batch_verify,
    check_gstar_connected,
    check_residue_components,
    report_record,
    skip_record,
    summary_record,
    trial_record,
)
from .products import is_bipartite, kronecker, linearization_rows

GRAPH6_HEADER = ">>graph6<<"
MAX_CORPUS_ORDER = 8  # --all-graphs at order 9 does not finish in practical time


class _Fatal(Exception):
    """Unrecoverable input problem; maps to exit code 2."""


# -- ingestion -----------------------------------------------------------------

@dataclass(frozen=True)
class IngestItem:
    location: str
    graph: Graph | None
    error: str | None = None


def ingest_corpus(paths: Iterable[str]) -> Iterator[IngestItem]:
    """Stream (location, graph) pairs from newline-delimited graph6 files.

    Malformed lines become in-stream error items; a missing file is fatal.
    """
    for path in paths:
        try:
            handle = open(path, "r", encoding="ascii")
        except OSError as exc:
            raise _Fatal(f"cannot read input file {path!r}: {exc}") from exc
        with handle:
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
    for idx, text in enumerate(args.g6):
        try:
            yield IngestItem(f"arg:{idx}", parse_graph6(text))
        except Graph6Error as exc:
            raise _Fatal(f"inline graph6 argument {idx}: {exc}") from exc
    yield from ingest_corpus(args.input)


# -- emission ------------------------------------------------------------------

def _format_table(record: dict) -> str:
    return "  ".join(f"{key}={json.dumps(value, separators=(',', ':'))}"
                     for key, value in record.items())


def emit_report(records: Iterable[dict], fmt: str, output: str | None) -> None:
    """Write records as JSON lines (byte-stable) or a human table."""
    render = (lambda r: json.dumps(r, separators=(",", ":"))) \
        if fmt == "jsonl" else _format_table
    _write_lines(map(render, records), output)


def _classify(record: dict, tally: dict) -> None:
    if "skip" in record:
        tally["skips"] += 1
    elif record.get("severity") is not None:
        tally["violations"] += 1
    elif record.get("error"):
        if "source" in record:
            tally["parse_errors"] += 1
        else:
            tally["skips"] += 1


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

def _skip(g: Graph, reason: str, detail: str) -> dict:
    return {"instance": {"graph6": encode_graph6(g)}, "skip": reason, "detail": detail}


def _records_for_graphs(args, per_graph, *params) -> Iterator[dict]:
    """Records of ``per_graph(g, *params)`` for each input graph, in order.

    Parse errors and empty factors become in-stream records here, so the
    per-graph functions see only graphs with at least one vertex.
    """
    for item in _gather_inputs(args):
        if item.error is not None:
            yield {"source": item.location, "error": item.error}
        elif item.graph.order == 0:
            yield _skip(item.graph, "empty-factor", "factor graph must be nonempty")
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


def _super_kappa_records(g: Graph, budget: int | None) -> Iterator[dict]:
    try:
        result = connectivity_result(g, budget=budget)
    except BudgetExceededError as exc:
        yield _skip(g, "size-limit", str(exc))
        return
    counterexample = next((c for c in result.min_cuts if not c.isolates), None)
    yield {
        "graph6": encode_graph6(g),
        "kappa": result.kappa,
        "delta": result.delta,
        "maximally_connected": result.maximally_connected,
        "super_kappa": result.super_kappa,
        "min_cut_count": len(result.min_cuts),
        "non_isolating_cut": (None if counterexample is None
                              else cut_record(counterexample)),
    }


def _cuts_records(g: Graph, budget: int | None) -> Iterator[dict]:
    try:
        for cut in enumerate_min_cuts(g, budget=budget):
            yield cut_record(cut)
    except BudgetExceededError as exc:
        yield _skip(g, "size-limit", str(exc))
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


def _verify_records(args, n_values: list[int], filters: list[str],
                    budget: int | None) -> Iterator[dict]:
    corpus = graphs_up_to(args.max_order, connected=False) if args.all_graphs else []
    for item in _gather_inputs(args):
        if item.error is not None:
            yield {"source": item.location, "error": item.error}
            continue
        corpus.append(item.graph)
    for record in batch_verify(corpus, n_values, filters=tuple(filters),
                               budget=budget, workers=args.workers):
        if isinstance(record, VerificationReport):
            yield report_record(record, with_timing=args.timing)
        elif isinstance(record, SkipRecord):
            yield skip_record(record)
        elif isinstance(record, BatchSummary):
            yield summary_record(record)


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
                       help="newline-delimited graph6 file (repeatable)")
        if fmt:
            p.add_argument("--format", choices=("jsonl", "table"), default="jsonl")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="destination file; default standard output")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="subset-scan budget (overrides KRONKIT_BUDGET)")

    gen = sub.add_parser("gen", help="emit generated graphs as graph6")
    gen.add_argument("family", choices=("complete", "cycle", "random"))
    gen.add_argument("--order", type=int, required=True)
    gen.add_argument("--p", type=float, default=0.5,
                     help="edge probability for the random family")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1,
                     help="number of random graphs (seeds seed, seed+1, ...)")
    gen.add_argument("--output", default=None)

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
    batch.add_argument("--max-order", type=int, default=5)
    batch.add_argument("--filter", action="append", default=[],
                       metavar="{connected,kd-equal,bipartite,nonbipartite}",
                       help="corpus filter (repeatable or comma-separated)")
    return parser


def _budget(parser: argparse.ArgumentParser, args) -> int | None:
    """``--budget``, else ``KRONKIT_BUDGET``, else None for the default budget."""
    name, value = "--budget", args.budget
    if value is None:
        name, text = "KRONKIT_BUDGET", os.environ.get("KRONKIT_BUDGET")
        if not text:
            return None
        try:
            value = int(text)
        except ValueError:
            parser.error(f"{name} must be an integer, got {text!r}")
    if value < 0:
        parser.error(f"{name} must be >= 0, got {value}")
    return value


def _single_graph(args) -> Graph:
    graphs = []
    for item in _gather_inputs(args):
        if item.error is not None:
            raise _Fatal(f"{item.location}: {item.error}")
        graphs.append(item.graph)
    if len(graphs) != 1:
        raise _Fatal(f"this command needs exactly one input graph, got {len(graphs)}")
    return graphs[0]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(parser, args)
    except SystemExit as exc:  # parser.error inside dispatch
        return exc.code if isinstance(exc.code, int) else 2
    except _Fatal as exc:
        print(f"kronkit: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"kronkit: {exc}", file=sys.stderr)
        return 2


def _dispatch(parser: argparse.ArgumentParser, args) -> int:
    command = args.command
    if command == "gen":
        lines = []
        if args.family == "complete":
            lines.append(encode_graph6(make_complete(args.order)))
        elif args.family == "cycle":
            lines.append(encode_graph6(make_cycle(args.order)))
        else:
            for i in range(args.count):
                lines.append(encode_graph6(
                    random_graph(args.order, args.p, args.seed + i)))
        _write_lines(lines, args.output)
        return 0

    if command == "product":
        if args.n < 2:
            parser.error("product needs --n >= 2")
        g = _single_graph(args)
        product = kronecker(g, make_complete(args.n))
        _write_lines([encode_graph6(product.graph)], args.output)
        if args.mapping:
            _write_lines(linearization_rows(product), args.mapping)
        return 0

    if command == "kappa":
        records = _records_for_graphs(args, _kappa_records)
    elif command == "super-kappa":
        records = _records_for_graphs(args, _super_kappa_records,
                                      _budget(parser, args))
    elif command == "cuts":
        budget = _budget(parser, args)
        records = _cuts_records(_single_graph(args), budget)
    elif command == "gstar":
        if args.n < 3:
            parser.error("gstar needs --n >= 3")
        if args.trials < 0:
            parser.error(f"gstar needs --trials >= 0, got {args.trials}")
        records = _records_for_graphs(args, _gstar_records, args.n, args.trials,
                                      args.seed)
    elif command in ("batch", "verify"):
        try:
            n_values = [int(part) for part in args.n.split(",") if part]
        except ValueError:
            parser.error(f"{command} needs integer --n values, got {args.n!r}")
        if any(n < 3 for n in n_values):
            parser.error("verification needs --n >= 3")
        if args.workers < 1:
            parser.error(f"{command} needs --workers >= 1, got {args.workers}")
        if args.all_graphs and args.max_order > MAX_CORPUS_ORDER:
            parser.error(f"--all-graphs needs --max-order <= {MAX_CORPUS_ORDER}, "
                         f"got {args.max_order}")
        filters = []
        for chunk in args.filter:
            filters.extend(part for part in chunk.split(",") if part)
        records = _verify_records(args, n_values, filters, _budget(parser, args))
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {command!r}")

    tally = {"violations": 0, "skips": 0, "parse_errors": 0}
    emit_report(_tallied(records, tally), args.format, args.output)
    return _exit_code(tally)


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
