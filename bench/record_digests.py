"""Record the JSONL sha256 of one pass of every workload variant.

    python3 bench/record_digests.py [WORKLOAD ...]

Run only on a commit whose output is known to be right: the benchmark
counts every item of a pass as failed when its digest differs.  A variant
is recorded only when every item passes its own checks.
"""

import json
import sys

import harness
import workloads


def main(names) -> int:
    digests = json.loads(harness.DIGESTS.read_text()) if harness.DIGESTS.exists() else {}
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        recorded = {}
        for variant in range(workloads.VARIANTS):
            workload = workloads.WORKLOADS[name](variant, harness.OUT_DIR)
            workload.setup()
            run = harness.measure(workload, 0, None)
            if run.failed:
                print(f"{name} variant {variant}: {run.failed} failed items; "
                      f"first: {run.failures[:3]}", file=sys.stderr)
                return 1
            recorded[str(variant)] = run.digests[0]
            print(f"{name} variant {variant}: {run.digests[0]} "
                  f"({run.pass_s[0]:.2f} s a pass)", flush=True)
        digests[name] = recorded
    harness.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
