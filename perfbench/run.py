"""flexquant benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload desk_coquant --seed 0 --seconds 35 --trace 0

Run from the checkout root. Workloads (see README.md for why each exists):
desk_coquant, cnn_coquant, bundle_serve. With --trace 0 the last stdout
line is a JSON object with the end-to-end metrics listed in BENCHMARK.json
(the readable table before it prints three more); with --trace 1 it holds
the per-layer metrics from span wrappers, plus the tracing overhead. Lines
before it give the machine facts and a readable table with sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

# One process and one BLAS thread (never more than the CPU count): the
# figures should not depend on how many cores happen to be free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("desk_coquant", "cnn_coquant", "bundle_serve")

# p90 needs at least ten batches beyond it
MIN_BATCHES = 110
# extra set-ups after each unit (a training unit also times its own)
SETUPS_PER_UNIT = {"desk_coquant": 3, "cnn_coquant": 3, "bundle_serve": 1}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "flexquant")):
        print(f"error: no flexquant sources under {os.path.join(ROOT, 'src')}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)

    from measure import machine_facts, measure_e2e, measure_traced
    from workloads import WORK_DIR, make_workload, source_digest

    print("machine " + json.dumps(machine_facts(), sort_keys=True), flush=True)
    cache_dir = os.path.join(WORK_DIR, "cache", source_digest(ROOT))
    run_dir = os.path.join(WORK_DIR, "runs", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(cache_dir, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, ROOT, run_dir, cache_dir)
        try:
            if args.trace:
                trace_path = os.path.join(WORK_DIR, "traces",
                                          f"{args.workload}-seed{args.seed}.csv.gz")
                result = measure_traced(workload, args.workload, args.seconds, trace_path)
            else:
                result = measure_e2e(workload, args.workload, args.seconds, MIN_BATCHES,
                                     SETUPS_PER_UNIT[args.workload])
        finally:
            workload.close()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
