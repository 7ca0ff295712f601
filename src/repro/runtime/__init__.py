"""repro.runtime — the shared, rank-batched step execution layer.

One :class:`StepRuntime` drives ``route_batch → to_pfts → plan → dispatch →
run_experts → combine`` for **all ranks of an EP group at once**.
Validation (:func:`repro.xmoe.trainer.run_routing_validation` and
:meth:`~repro.xmoe.trainer.SimulatedTrainer.validate_routing`), the
dispatch/router benchmarks, the tuner's end-to-end acceptance leg, serving,
and the training examples are all thin consumers of this one loop.

The batched stages live next to the objects they batch —
:meth:`repro.routing.policies.RouterPolicy.route_batch` (one stacked
projection + vectorized top-k per distinct per-rank row count) and
:func:`repro.xmoe.pft.build_pft_flat_batched` (all ranks' PFTs in one
argsort/bincount pass).  They are the only routing and PFT code in the
package; the gate-driven layers call them with one rank.  A per-rank test
oracle (``tests/helpers.py``) checks them bit for bit.
:class:`StepWorkspace` reuses the stacked buffers across steps, and
:class:`StepTrace` hooks give telemetry and byte accounting one uniform
attachment point.  ``benchmarks/test_step_runtime_micro.py`` records the
per-rank-oracle vs batched wall-clock trajectory.
"""

from repro.runtime.step import (
    StepResult,
    StepRuntime,
    StepTrace,
    StepWorkspace,
    TraceHook,
)

__all__ = [
    "StepResult",
    "StepRuntime",
    "StepTrace",
    "StepWorkspace",
    "TraceHook",
]
