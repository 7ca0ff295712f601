"""Continuous-batch scheduling: slot management + pluggable admission.

:class:`ContinuousBatchScheduler` owns the engine's serving slots — one
per EP rank of the underlying :class:`~repro.runtime.StepRuntime` group.
Each engine iteration it retires completed requests and admits queued ones
into the freed slots, so new requests join in-flight batches the moment
capacity exists instead of waiting for a batch barrier.  *Which* queued
requests enter is delegated to an :class:`AdmissionPolicy`:

* :class:`FCFSAdmission` — fill every free slot in strict arrival order;
  the continuous-batching default (starvation-free by construction, the
  property suite proves the bound).
* :class:`MemoryBudgetAdmission` — FCFS capped by a concurrency budget
  derived from :class:`~repro.xmoe.memory_model.MoEMemoryModel`: the
  device headroom left after model states, divided by the activation
  footprint of one in-flight request.
* :class:`StaticBatchAdmission` — the fixed-batch *baseline*: admits only
  when every slot is idle, so a whole batch runs to completion before the
  next forms.  This is the strawman the serving benchmark beats.

One request maps to one slot (= one EP rank) for its whole service time.
That mapping is what makes continuous batching *provably* output-invariant
here: the runtime's rank-batched route/PFT path gives each rank exactly
the decision and PFT it would get routed alone (ranks are grouped by row
count and every group draws the same ``(seed, step)`` noise), so a
request's routing — and therefore its tokens — never depends on which
other requests share the step.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.serving.queue import RequestQueue
from repro.serving.request import RequestState, RequestStatus

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.xmoe.memory_model import MoEMemoryModel


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides which queued requests enter the freed slots this step."""

    name: str

    def admit(
        self, queue: RequestQueue, free_slots: int, *, running: int, step: int
    ) -> list[RequestState]:
        """Pop and return the requests to admit (at most ``free_slots``)."""
        ...


class FCFSAdmission:
    """First-come-first-served: fill every free slot in arrival order."""

    name = "fcfs"

    def admit(
        self, queue: RequestQueue, free_slots: int, *, running: int, step: int
    ) -> list[RequestState]:
        """Pop the oldest queued requests, one per free slot."""
        return queue.pop(free_slots)


class StaticBatchAdmission:
    """Fixed-batch baseline: admit only into a fully idle engine.

    Classic static batching — a batch is formed, runs until its *last*
    member completes, and only then does the next batch form.  Slots freed
    by short requests sit idle while long ones finish, which is exactly
    the throughput loss continuous batching removes
    (``benchmarks/test_serving_bench.py`` measures the gap).
    """

    name = "static"

    def admit(
        self, queue: RequestQueue, free_slots: int, *, running: int, step: int
    ) -> list[RequestState]:
        """Pop a fresh batch only when nothing is running."""
        if running > 0:
            return []
        return queue.pop(free_slots)


class MemoryBudgetAdmission:
    """FCFS admission capped by a memory-derived concurrency budget.

    The budget is computed once from a
    :class:`~repro.xmoe.memory_model.MoEMemoryModel`: the HBM headroom
    left after model states, divided by the activation bytes one in-flight
    request (one micro-batch sequence) costs.  Serving then never admits
    more concurrent requests than the device could actually hold
    activations for, no matter how many slots the EP group offers.
    """

    name = "memory-budget"

    def __init__(self, memory_model: "MoEMemoryModel", *, max_slots: int | None = None):
        report = memory_model.report()
        per_request = report.activation_bytes / max(
            1, memory_model.parallel.micro_batch_size
        )
        headroom = report.capacity_bytes - report.model_states_bytes
        budget = int(headroom // per_request) if per_request > 0 else 0
        #: concurrent requests the device headroom supports (>= 1 so the
        #: engine can always make progress, even on an undersized device).
        self.slot_budget = max(1, budget)
        if max_slots is not None:
            self.slot_budget = min(self.slot_budget, max_slots)

    def admit(
        self, queue: RequestQueue, free_slots: int, *, running: int, step: int
    ) -> list[RequestState]:
        """Pop FCFS up to the free slots left under the memory budget."""
        allowed = max(0, min(free_slots, self.slot_budget - running))
        return queue.pop(allowed)


class ContinuousBatchScheduler:
    """Packs admitted requests into the EP group's serving slots.

    ``num_slots`` equals the step runtime's EP group size; slot *i* feeds
    rank *i*'s batch.  The scheduler mutates request states on admission
    (slot binding, status, admitted step) and on retirement (slot
    release); the engine drives it once per step via :meth:`admit` /
    :meth:`retire`.
    """

    def __init__(
        self,
        num_slots: int,
        queue: RequestQueue,
        admission: AdmissionPolicy | None = None,
    ):
        if num_slots < 1:
            raise ValueError("num_slots must be >= 1")
        self.num_slots = num_slots
        self.queue = queue
        self.admission = admission if admission is not None else FCFSAdmission()
        self.slots: list[RequestState | None] = [None] * num_slots

    # ------------------------------------------------------------------
    @property
    def running(self) -> list[tuple[int, RequestState]]:
        """Occupied slots as ``(slot, state)`` pairs, slot order."""
        return [(i, s) for i, s in enumerate(self.slots) if s is not None]

    @property
    def free_slots(self) -> list[int]:
        """Indices of unoccupied slots, ascending."""
        return [i for i, s in enumerate(self.slots) if s is None]

    # ------------------------------------------------------------------
    def admit(self, *, step: int) -> list[RequestState]:
        """Admit queued requests into free slots (policy decides which).

        Admitted requests are bound to the lowest free slots in pop order
        — deterministic, so two runs over the same trace make identical
        placements.
        """
        free = self.free_slots
        admitted = self.admission.admit(
            self.queue, len(free), running=self.num_slots - len(free), step=step
        )
        if len(admitted) > len(free):  # pragma: no cover - policy bug guard
            raise RuntimeError(
                f"admission policy returned {len(admitted)} requests for "
                f"{len(free)} free slots"
            )
        import time

        for slot, state in zip(free, admitted):
            state.slot = slot
            state.status = RequestStatus.PREFILL
            state.admitted_step = step
            state.wall["admitted"] = time.perf_counter()
            self.slots[slot] = state
        return admitted

    def retire(self, state: RequestState) -> None:
        """Release a completed request's slot (the engine marks terminal)."""
        if state.slot is None or self.slots[state.slot] is not state:
            raise ValueError(f"request {state.request_id!r} is not bound to a slot")
        self.slots[state.slot] = None
        state.slot = None
