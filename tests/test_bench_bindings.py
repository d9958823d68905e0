"""The benchmark reaches into kronkit by module attribute; keep those names.

``bench/tracing.py`` rebinds each ``(module, attribute)`` in ``BINDINGS`` to
a timing wrapper, and ``bench/workloads.py`` loads more names directly.  A
rename in ``src/`` would otherwise surface only when the benchmark runs.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import kronkit.cli  # the tracer rebinds names in kronkit.cli too
from kronkit.graphs import make_cycle

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workload_names():
    """Every ``(module, attribute)`` that ``bench/workloads.py`` loads as
    ``alias.attribute`` from a module it imports ``from kronkit``."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "kronkit"
               for alias in node.names}
    return sorted({(modules[node.value.id], node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and isinstance(node.value, ast.Name) and node.value.id in modules})


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unresolved(names):
    return [f"{module}.{attr}" for module, attr in names
            if not callable(getattr(importlib.import_module(f"kronkit.{module}"),
                                    attr, None))]


def test_traced_bindings_resolve():
    bindings = _load_tracing().BINDINGS
    assert len(bindings) > 0
    assert _unresolved(bindings) == []


def test_workload_names_resolve():
    names = _workload_names()
    assert {module for module, _ in names} == {
        "cli", "connectivity", "corpus", "graphs", "products", "product_analysis"}
    assert _unresolved(names) == []
    from kronkit.product_analysis import BatchSummary
    assert [f.name for f in dataclasses.fields(BatchSummary)] == [
        "instances", "holds", "violations", "skips"]


def _traced_residue_calls(tracing):
    """The tracer's totals over one call of each residue checker on C_5 x K_3,
    with no draw cached."""
    kronkit.product_analysis._draw_trials.cache_clear()
    tracer = tracing.Tracer(kronkit)
    tracer.install()
    try:
        kronkit.product_analysis.check_gstar_connected(make_cycle(5), 3, 4, 0)
        kronkit.product_analysis.check_residue_components(make_cycle(5), 3, 4, 0)
    finally:
        tracer.uninstall()
        kronkit.product_analysis._draw_trials.cache_clear()
    return tracer.take()


def test_traced_residue_bindings_are_reached():
    # A binding the package calls past, such as a local alias of a checker,
    # would leave its self time at 0 without any warning.  The kernel
    # decides G* without build_gstar.
    tracing = _load_tracing()
    totals = _traced_residue_calls(tracing)
    assert totals.calls("product_analysis.check_gstar_connected") == 1
    assert totals.calls("product_analysis.check_residue_components") == 1
    assert totals.calls("product_analysis.build_gstar") == 0
