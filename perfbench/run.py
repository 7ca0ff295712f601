"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ep-rbd-recompute --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a run that interleaves traced and untraced steps.  The line
before last is a report with every metric, the correctness checks,
provenance and sample counts; the last line is the result as one JSON
object.  The exit code is non-zero when any correctness check fails.
"""

import os
import time

PROCESS_START = time.perf_counter()
# The installed OpenBLAS may start up to 64 threads; one thread per process
# keeps a 2-core host steady.  This must happen before numpy is imported, and
# only when run as a program: importing this module must not change the
# environment of the importing process.
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchcore  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-ups per run; ``setup_s`` reports their median.
SETUPS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "tokens_per_s": "1/s",
    "step_ms_mean": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "route.ms": "ms",
    "plan_cache.resolve.ms": "ms",
    "planner.build.ms": "ms",
    "dispatch.ms": "ms",
    "experts.ms": "ms",
    "combine.ms": "ms",
    "runtime.self.ms": "ms",
    "recompute.ms": "ms",
    "plan_cache.hit_rate": "ratio",
    "plan_cache.fused_frac": "ratio",
    "dispatch.rows": "count",
    "dispatch.rows_per_assignment": "ratio",
    "experts.gflops": "GFLOP/s",
    "comm.calls": "count",
    "comm.bytes": "B",
    "comm.inter_node_bytes": "B",
    "comm.ms": "ms",
    "forward.ms": "ms",
    "backward.ms": "ms",
    "grad_sync.ms": "ms",
    "grad_sync.buckets": "count",
    "grad_sync.bytes": "B",
    "optim.ms": "ms",
    "allgather.ms": "ms",
    "zero.state_mb": "MB",
    "serve.runtime.ms": "ms",
    "serve.engine.ms": "ms",
    "serve.idle_slot_frac": "ratio",
    "serve.tokens_per_step": "count",
    "serve.queue_depth_p90": "count",
    "serve.generator_late_ms_p90": "ms",
    "trace.overhead_frac": "ratio",
    "trace.coverage": "ratio",
}
EXTRA_UNITS = {
    "step_ms_p50": "ms",
    "loss_final": "nats",
    "ttft_ms_p50": "ms",
    "ttft_ms_p90": "ms",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "cache_hit_share": "ratio",
    "failed_frac": "ratio",
}


def pin_allocator() -> None:
    """Fix glibc malloc's thresholds so step time does not drift with history.

    By default glibc raises its mmap threshold as large blocks are freed and
    trims the heap top back to the OS, so whether a step's multi-megabyte
    arrays cost fresh page faults depends on the sizes earlier steps
    happened to allocate.  Fixed thresholds keep every such array on the
    heap and the heap resident, the same for every seed.  Non-glibc
    platforms keep their allocator's defaults.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return
    m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
    libc.mallopt(m_mmap_threshold, 32 << 20)
    libc.mallopt(m_trim_threshold, 1 << 30)
    libc.mallopt(m_top_pad, 64 << 20)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 *, min_steps: int | None = None, setups: int = SETUPS) -> dict:
    """Set up, measure and check one workload; return the full report."""
    imported = time.perf_counter() - PROCESS_START
    cls = WORKLOADS[name]
    setup_s = []
    workload = None
    for _ in range(setups):
        workload = None
        gc.collect()
        start = time.perf_counter()
        workload = cls(seed, min_steps)
        workload.build()
        setup_s.append(time.perf_counter() - start)
    rec = benchcore.SpanRecorder() if trace else None
    workload.measure(seconds, rec)
    attempted, failed, checks = workload.check()
    # A growing serve backlog invalidates the latencies but is not a wrong
    # output: it counts as failed without making the run incorrect.
    correct = failed - int(checks.get("backlog_grew", False)) == 0
    if trace:
        metrics = workload.per_layer()
        metrics.update(workload.trace_metrics())
        units = PER_LAYER_UNITS
    else:
        metrics = workload.end_to_end()
        metrics["setup_s"] = imported + benchcore.median(setup_s)
        metrics["peak_rss_mb"] = benchcore.peak_rss_mb()
        units = END_TO_END_UNITS
    metrics = {key: float(metrics.get(key, 0.0)) for key in units}
    extra = workload.extra()
    extra["step_ms_p50"] = benchcore.quantile(workload.step_s, 0.5) * 1e3
    extra["failed_frac"] = failed / attempted
    samples = {
        "setups": setups,
        "untraced_steps": len(workload.step_s),
        "traced_steps": len(workload.traced_step_s),
        "attempted": attempted,
    }
    return {
        "workload": name,
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "checks": checks,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": EXTRA_UNITS[k]} for k, v in extra.items()},
        "setup_s_samples": setup_s,
        "import_s": imported,
        "provenance": benchcore.provenance(seed, samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_allocator()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("report " + json.dumps(report, sort_keys=True))
    result = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
