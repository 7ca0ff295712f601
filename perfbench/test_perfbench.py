"""Tests of the benchmark itself: short runs of every workload.

Each run is cut to a few steps (``seconds=0`` with a small ``min_steps``),
so the whole file takes seconds.  It checks that every workload runs and
passes its correctness checks, that every per-layer count repeats exactly
for a fixed seed, and that the traced run attributes at least 90% of the
traced step wall time to named spans.
"""

import sys
from functools import lru_cache
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench_run  # noqa: E402

WORKLOAD_NAMES = ("train-zero2", "ep-rbd-recompute", "serve-poisson")
#: per-layer metrics that are counts of simulated work, not timings.
COUNTS = (
    "dispatch.rows",
    "dispatch.rows_per_assignment",
    "comm.calls",
    "comm.bytes",
    "comm.inter_node_bytes",
    "grad_sync.buckets",
    "grad_sync.bytes",
    "zero.state_mb",
    "plan_cache.hit_rate",
    "plan_cache.fused_frac",
)


def short_run(name: str, *, trace: bool, seed: int = 3) -> dict:
    return bench_run.run_workload(name, seed, 0.0, trace, min_steps=4, setups=1)


@lru_cache(maxsize=None)
def traced(name: str) -> dict:
    return short_run(name, trace=True)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_complete(name):
    report = short_run(name, trace=False)
    assert report["correct"], report["checks"]
    assert report["failed"] == 0
    assert report["attempted"] >= 4
    metrics = report["metrics"]
    assert set(metrics) == set(bench_run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert report["provenance"]["machine_fingerprint"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_run_reports_every_per_layer_metric(name):
    report = traced(name)
    assert report["correct"], report["checks"]
    assert set(report["metrics"]) == set(bench_run.PER_LAYER_UNITS)


@pytest.mark.parametrize("name", ("train-zero2", "ep-rbd-recompute"))
def test_per_layer_counts_repeat_for_a_seed(name):
    # Serving batches depend on wall-clock arrival timing, so only the
    # closed-loop workloads have a seed-determined step sequence.
    first = traced(name)["metrics"]
    second = short_run(name, trace=True)["metrics"]
    counts = {k: first[k]["value"] for k in COUNTS}
    assert counts == {k: second[k]["value"] for k in COUNTS}
    assert any(counts.values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_spans_cover_the_traced_step(name):
    assert traced(name)["metrics"]["trace.coverage"]["value"] >= 0.9


def test_cache_hits_on_recompute_only():
    ep = traced("ep-rbd-recompute")["metrics"]["plan_cache.hit_rate"]["value"]
    serve = traced("serve-poisson")["metrics"]["plan_cache.hit_rate"]["value"]
    assert ep == pytest.approx(0.5)
    assert serve < 0.05
