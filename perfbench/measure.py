"""Measurement loops and result assembly for perfbench/run.py."""

from __future__ import annotations

import os
import platform
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import Tracer
from workloads import REQUIRED_SPANS

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "samples_per_s": "samples/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# The metrics in the result line, listed in BENCHMARK.json. The others are
# only printed: on a shared host the CPU moves between fast and slow states
# every few seconds, and the share of fast time in a run moves medians and
# means by more than any useful bound, while p90 stays in the slow state.
GATED = ("setup_s", "batch_ms_p90", "peak_rss_mb")


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {v: os.environ.get(v) for v in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


@dataclass
class Measurement:
    setup_s: list[float] = field(default_factory=list)
    run_s: list[float] = field(default_factory=list)
    batch_s: list[float] = field(default_factory=list)
    samples: int = 0
    attempted: int = 0
    failed: int = 0
    artifact_bytes: list[int] = field(default_factory=list)


def run_units(workload, seconds: float, min_batches: int, fresh_setup: bool,
              tracer: Tracer | None = None, setups_per_unit: int = 0) -> Measurement:
    """Run whole units for about `seconds`: once `min_batches` batches are
    timed, start no unit expected to end after the deadline. Always runs at
    least one unit; stops at the first unit that fails.

    `setups_per_unit` extra set-ups follow each unit, so that set-up time is
    sampled across the whole run and not in one burst at its start.
    """
    m = Measurement()
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if m.failed or (m.attempted and len(m.batch_s) >= min_batches
                        and elapsed * (m.attempted + 1) / m.attempted > seconds):
            break
        if tracer is not None:
            tracer.unit = m.attempted
        m.attempted += 1
        try:
            res = workload.unit(m.attempted - 1, fresh_setup)
        except Exception:  # a unit that raises is counted as failed, not dropped
            traceback.print_exc()
            m.failed += 1
            continue
        if res.setup_s is not None:
            m.setup_s.append(res.setup_s)
        m.setup_s += [workload.setup() for _ in range(setups_per_unit)]
        m.run_s.append(res.run_s)
        m.batch_s += res.batch_s
        m.samples += res.samples
        m.artifact_bytes.append(res.artifact_bytes)
        if res.problems:
            print(f"unit {m.attempted - 1} failed its checks: " + "; ".join(res.problems),
                  file=sys.stderr)
            m.failed += 1
    return m


def _require_completed(m: Measurement) -> None:
    if not m.run_s:
        raise SystemExit(f"no unit completed ({m.failed} of {m.attempted} failed)")


def _result(m: Measurement, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def measure_e2e(workload, name: str, seconds: float, min_batches: int,
                setups_per_unit: int) -> dict:
    workload.setup()  # warm-up: first-call costs a user pays once per process
    m = run_units(workload, seconds, min_batches, fresh_setup=False,
                  setups_per_unit=setups_per_unit)
    _require_completed(m)
    setups = m.setup_s
    batch = np.asarray(m.batch_s)
    metrics = {
        "setup_s": float(np.median(setups)),
        "run_s": float(np.median(m.run_s)),
        "samples_per_s": m.samples / float(batch.sum()),
        "batch_ms_p50": float(np.percentile(batch, 50)) * 1e3,
        "batch_ms_p90": float(np.percentile(batch, 90)) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    counts = {"setup_s": len(setups), "run_s": len(m.run_s), "samples_per_s": m.samples,
              "batch_ms_p50": batch.size, "batch_ms_p90": batch.size, "peak_rss_mb": 1}
    print(f"{name}: {m.attempted} units, {batch.size} batches, "
          f"failed_frac {m.failed / m.attempted} ({m.failed}/{m.attempted})")
    for k, v in metrics.items():
        print(f"  {k:<16} {v:>14.6g} {E2E_UNITS[k]:<10} n={counts[k]}"
              + ("" if k in GATED else "  (printed only)"))
    return _result(m, {k: metrics[k] for k in GATED}, E2E_UNITS)


def _layer_unit(metric: str) -> str:
    if metric.endswith("_ms") or metric.endswith("_ms_p50"):
        return "ms"
    if metric.endswith(".s") or metric.endswith("self_s"):
        return "s"
    if metric.endswith("bytes"):
        return "B"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def measure_traced(workload, name: str, seconds: float, trace_path: str) -> dict:
    """A third of the time untraced, the rest traced; the difference in
    median batch time is the tracing overhead. Each traced unit sets up
    afresh, so every per-layer figure is per unit of set-up plus work."""
    base = run_units(workload, seconds / 3, min_batches=1, fresh_setup=False)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_units(workload, seconds * 2 / 3, min_batches=1, fresh_setup=True,
                           tracer=tracer)
    finally:
        tracer.uninstall()
    _require_completed(base)
    _require_completed(traced)
    calls = {k: v[2] for k, v in tracer.totals().items()}
    missing = [s for s in REQUIRED_SPANS[name] if not calls.get(s)]
    if missing:
        raise SystemExit(f"{name}: wrappers recorded no calls for {missing}; "
                         "a wrapper is bound to a name its caller no longer resolves")

    units = traced.attempted
    metrics = tracer.summary(units)
    size = float(np.mean(traced.artifact_bytes))
    metrics["checkpoint.bytes"] = size if name != "bundle_serve" else 0.0
    metrics["bundle.bytes"] = size if name == "bundle_serve" else 0.0
    untraced_p50 = float(np.percentile(base.batch_s, 50)) * 1e3
    traced_p50 = float(np.percentile(traced.batch_s, 50)) * 1e3
    metrics["trace.untraced_batch_ms_p50"] = untraced_p50
    metrics["trace.traced_batch_ms_p50"] = traced_p50
    metrics["trace.overhead_ms"] = traced_p50 - untraced_p50
    metrics["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
    metrics["trace.units"] = float(units)
    metrics["trace.spans_per_unit"] = len(tracer.rows) / units
    tracer.write(trace_path)

    print(f"{name}: {base.attempted} untraced + {units} traced units; spans in {trace_path}")
    print(f"  tracing overhead {metrics['trace.overhead_ms']:.4g} ms per batch "
          f"(p50 {untraced_p50:.4g} -> {traced_p50:.4g} ms, "
          f"n={len(base.batch_s)}/{len(traced.batch_s)})")
    print("  self time per unit by layer:")
    for layer in sorted((k for k in metrics if k.count(".") == 1 and k.endswith(".self_s")),
                        key=lambda k: -metrics[k]):
        print(f"    {layer:<22} {metrics[layer]:.6g} s")
    m = Measurement(attempted=base.attempted + traced.attempted,
                    failed=base.failed + traced.failed)
    return _result(m, metrics, {k: _layer_unit(k) for k in metrics})
