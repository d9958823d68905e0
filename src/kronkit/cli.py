"""Command-line front end: corpus ingestion, subcommands, report emission.

Exit codes: 0 when all checks passed or an informational command completed,
1 when at least one violation record was emitted, 2 for usage or parse
errors, 3 when skip records (budget, size limit, empty factor) occurred
without violations.

JSON-lines output is byte-stable for fixed inputs, flags, and seed; pass
``--timing`` to include real runtimes (which breaks byte stability).  The
``KRONKIT_BUDGET`` environment variable overrides the default subset-scan
budget; an explicit ``--budget`` wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .connectivity import (
    connectivity_result,
    cut_record,
    enumerate_min_cuts,
    vertex_connectivity,
)
from .corpus import all_graphs
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


class _Fatal(Exception):
    """Unrecoverable input problem; maps to exit code 2."""


@dataclass
class RunConfig:
    inline: list[str] = field(default_factory=list)
    paths: list[str] = field(default_factory=list)
    n: int = 3
    seed: int = 0
    budget: int | None = None
    output: str | None = None
    fmt: str = "jsonl"
    workers: int = 1
    timing: bool = False


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


def _gather_inputs(config: RunConfig) -> Iterator[IngestItem]:
    for idx, text in enumerate(config.inline):
        try:
            yield IngestItem(f"arg:{idx}", parse_graph6(text))
        except Graph6Error as exc:
            raise _Fatal(f"inline graph6 argument {idx}: {exc}") from exc
    yield from ingest_corpus(config.paths)


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

def _records_for_graphs(config: RunConfig, per_graph) -> Iterator[dict]:
    for item in _gather_inputs(config):
        if item.error is not None:
            yield {"source": item.location, "error": item.error}
            continue
        yield from per_graph(item)


def _kappa_records(config: RunConfig) -> Iterator[dict]:
    def per_graph(item: IngestItem) -> Iterator[dict]:
        g = item.graph
        kappa = vertex_connectivity(g)
        yield {
            "graph6": encode_graph6(g),
            "kappa": kappa,
            "delta": g.min_degree,
            "maximally_connected": kappa == g.min_degree,
        }
    return _records_for_graphs(config, per_graph)


def _super_kappa_records(config: RunConfig) -> Iterator[dict]:
    def per_graph(item: IngestItem) -> Iterator[dict]:
        g = item.graph
        try:
            result = connectivity_result(g, budget=config.budget)
        except BudgetExceededError as exc:
            yield {"instance": {"graph6": encode_graph6(g)},
                   "skip": "size-limit", "detail": str(exc)}
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
    return _records_for_graphs(config, per_graph)


def _cuts_records(config: RunConfig, graph: Graph) -> Iterator[dict]:
    try:
        for cut in enumerate_min_cuts(graph, budget=config.budget):
            yield cut_record(cut)
    except BudgetExceededError as exc:
        yield {"instance": {"graph6": encode_graph6(graph)},
               "skip": "size-limit", "detail": str(exc)}
    except PreconditionError as exc:
        raise _Fatal(str(exc)) from exc


def _gstar_records(config: RunConfig, trials: int) -> Iterator[dict]:
    def per_graph(item: IngestItem) -> Iterator[dict]:
        g = item.graph
        try:
            records = check_gstar_connected(g, config.n, trials, config.seed)
            if not is_bipartite(g)[0]:
                records += check_residue_components(g, config.n, trials,
                                                    config.seed)
        except PreconditionError as exc:
            yield {"instance": {"graph6": encode_graph6(g), "n": config.n},
                   "error": str(exc)}
            return
        for rec in records:
            yield trial_record(rec)
    return _records_for_graphs(config, per_graph)


def _verify_records(config: RunConfig, n_values: list[int], filters: list[str],
                    use_all_graphs: bool, max_order: int) -> Iterator[dict]:
    corpus: list[Graph] = []
    if use_all_graphs:
        for order in range(1, max_order + 1):
            corpus.extend(all_graphs(order))
    for item in _gather_inputs(config):
        if item.error is not None:
            yield {"source": item.location, "error": item.error}
            continue
        corpus.append(item.graph)
    for record in batch_verify(corpus, n_values, filters=tuple(filters),
                               budget=config.budget, workers=config.workers):
        if isinstance(record, VerificationReport):
            yield report_record(record, with_timing=config.timing)
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

    def add_io(p: argparse.ArgumentParser, single: bool = False) -> None:
        p.add_argument("--g6", action="append", default=[], metavar="STRING",
                       help="inline graph6 string (repeatable)")
        p.add_argument("--input", action="append", default=[], metavar="PATH",
                       help="newline-delimited graph6 file (repeatable)")
        p.add_argument("--format", choices=("jsonl", "table"), default="jsonl")
        p.add_argument("--output", default=None, metavar="PATH",
                       help="destination file; default standard output")
        p.add_argument("--budget", type=int, default=None,
                       help="subset-scan budget (overrides KRONKIT_BUDGET)")
        p.add_argument("--timing", action="store_true",
                       help="include real runtimes (breaks byte stability)")

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
    add_io(product)
    product.add_argument("--n", type=int, required=True,
                         help="order of the complete second factor (>= 2)")
    product.add_argument("--mapping", default=None, metavar="PATH",
                         help="write 'linear_index factor1 factor2' rows")

    kappa = sub.add_parser("kappa", help="connectivity and minimum degree")
    add_io(kappa)

    cuts = sub.add_parser("cuts", help="enumerate all minimum separating sets")
    add_io(cuts)

    supk = sub.add_parser("super-kappa", help="super-connectivity verdict")
    add_io(supk)

    gstar = sub.add_parser("gstar", help="sampled residue-graph checks")
    add_io(gstar)
    gstar.add_argument("--n", type=int, required=True)
    gstar.add_argument("--trials", type=int, default=100)
    gstar.add_argument("--seed", type=int, default=0)

    batch = sub.add_parser(
        "batch", aliases=["verify"],
        help="verify the connectivity formula and super-connectivity")
    add_io(batch)
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


def _config_from(args) -> RunConfig:
    return RunConfig(
        inline=getattr(args, "g6", []),
        paths=getattr(args, "input", []),
        seed=getattr(args, "seed", 0),
        budget=_resolve_budget(getattr(args, "budget", None)),
        output=getattr(args, "output", None),
        fmt=getattr(args, "format", "jsonl"),
        workers=getattr(args, "workers", 1),
        timing=getattr(args, "timing", False),
    )


def _resolve_budget(flag_value: int | None) -> int | None:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("KRONKIT_BUDGET")
    return int(env) if env else None


def _single_graph(config: RunConfig) -> Graph:
    graphs = []
    for item in _gather_inputs(config):
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

    config = _config_from(args)
    tally = {"violations": 0, "skips": 0, "parse_errors": 0}

    if command == "product":
        if args.n < 2:
            parser.error("product needs --n >= 2")
        g = _single_graph(config)
        product = kronecker(g, make_complete(args.n))
        _write_lines([encode_graph6(product.graph)], config.output)
        if args.mapping:
            _write_lines(linearization_rows(product), args.mapping)
        return 0

    if command == "kappa":
        records = _kappa_records(config)
    elif command == "super-kappa":
        records = _super_kappa_records(config)
    elif command == "cuts":
        records = _cuts_records(config, _single_graph(config))
    elif command == "gstar":
        if args.n < 3:
            parser.error("gstar needs --n >= 3")
        config.n = args.n
        records = _gstar_records(config, args.trials)
    elif command in ("batch", "verify"):
        try:
            n_values = [int(part) for part in args.n.split(",") if part]
        except ValueError:
            parser.error(f"{command} needs integer --n values, got {args.n!r}")
        if any(n < 3 for n in n_values):
            parser.error("verification needs --n >= 3")
        filters = []
        for chunk in args.filter:
            filters.extend(part for part in chunk.split(",") if part)
        records = _verify_records(config, n_values, filters,
                                  args.all_graphs, args.max_order)
    else:  # pragma: no cover - argparse enforces the choices
        parser.error(f"unknown command {command!r}")

    emit_report(_tallied(records, tally), config.fmt, config.output)
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
