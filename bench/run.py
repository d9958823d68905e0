"""kronkit's benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload super-sweep --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``):

* ``super-sweep``    ``kronkit batch --filter connected,kd-equal`` at n=3 and 4
* ``formula-sweep``  the flow-only connectivity formula check at n=3, 4 and 5
* ``residue-trials`` the ``kronkit gstar`` residue-graph sampler at n=3 and 4

kronkit is imported from this checkout's ``src/``, at ``--workers 1``, in one
process.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
untraced passes, then traced ones, and prints the per-layer metrics and the
tracing overhead.  Outputs are checked outside the timed region; the run
exits 1 when any item failed.  Human-readable ``metric`` lines and a
``record`` line (with the machine's description, for ``compare.py``) come
before the last line, which is the JSON result.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # set-ups per run: this process plus fresh ones


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum measured time; whole passes are timed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print it (used for repeats)")
    return parser.parse_args(argv)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(load_1min: float) -> dict:
    import hashlib
    import platform
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "load_1min_at_start": load_1min,
    }


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    load_1min = os.getloadavg()[0]
    args = parse_args(argv)
    try:
        import harness
        import tracing
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import kronkit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed % workloads.VARIANTS,
                                                  harness.OUT_DIR)
    tracer = tracing.Tracer(workloads.kronkit) if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = harness.recorded_digest(workload)
    if expected is None:
        workload.setup_problems.append(f"no recorded digest for variant {workload.variant}")
    if tracer is None:
        run = harness.measure(workload, args.seconds, expected)
        setups = [setup_s] + [setup_in_fresh_process(args)
                              for _ in range(SETUP_REPEATS - 1)]
        metrics = harness.end_to_end(run, setups)
        wanted = spec["end_to_end"]
        attempted, failed, failures = run.attempted, run.failed, run.failures
    else:
        setup_totals = tracer.take()
        untraced = harness.measure(workload, args.seconds, expected)
        run = harness.measure(workload, args.seconds, expected, tracer)
        metrics = harness.per_layer(run, setup_totals, tracer.take(),
                                    workload.corpus_size, untraced.pass_s)
        tracer.write_spans(harness.OUT_DIR / f"spans-{workload.name}.jsonl")
        wanted = spec["per_layer"]
        attempted = untraced.attempted + run.attempted
        failed = untraced.failed + run.failed
        failures = untraced.failures + run.failures

    print(f"bench: workload {workload.name} seed {args.seed} variant {workload.variant} "
          f"items/pass {run.items_per_pass} passes {run.passes} "
          f"attempted {attempted} failed {failed}")
    for message in failures:
        print(f"bench: FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    record = {
        "record": "bench-run", "workload": workload.name, "seed": args.seed,
        "variant": workload.variant, "trace": args.trace, "seconds": args.seconds,
        "items_per_pass": run.items_per_pass, "passes": run.passes,
        "attempted": attempted, "failed": failed,
        "environment": environment(load_1min),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print("record " + json.dumps(record))
    result = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is in {unit}, BENCHMARK.json says "
                             f"{entry['unit']}")
        result[entry["name"]] = {"value": value, "unit": unit}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
