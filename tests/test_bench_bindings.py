"""The benchmark reaches into kronkit by module attribute; keep those names.

``bench/tracing.py`` rebinds each ``(module, attribute)`` in ``BINDINGS`` to
a timing wrapper, and the workloads call a few more names directly.  A
rename in ``src/`` would otherwise surface only when the benchmark runs.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Names the workloads use besides the traced ones.
WORKLOAD_NAMES = (
    ("cli", "ingest_corpus"), ("cli", "report_record"), ("cli", "skip_record"),
    ("cli", "summary_record"), ("cli", "trial_record"),
    ("product_analysis", "batch_verify"), ("product_analysis", "SkipRecord"),
    ("product_analysis", "BatchSummary"),
)


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
    assert _unresolved(WORKLOAD_NAMES) == []
    from kronkit.product_analysis import BatchSummary
    assert [f.name for f in dataclasses.fields(BatchSummary)] == [
        "instances", "holds", "violations", "skips"]
