"""Repeat perfbench/run.py over seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads desk_coquant bundle_serve --seeds 0-9 --out sweep.json

Runs one benchmark process at a time (never in parallel, which would skew
the timings). For every workload and metric it prints the median, the
quartiles from statistics.quantiles(values, n=4), and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,7")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the per-run values and summaries as JSON")
    args = ap.parse_args(argv)
    if len(parse_seeds(args.seeds)) < 2:
        ap.error("quartiles need at least two seeds")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, **res})
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {}
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            summary[name] = {**summarize(values), "unit": runs[0]["metrics"][name]["unit"]}
            if args.trace == 0:
                s = summary[name]
                bound = bounds.get(name)
                flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
                print(f"  {name:<16} median {s['median']:.6g} {s['unit']} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                      f"bound {bound}{flag}", flush=True)
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs), "summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
