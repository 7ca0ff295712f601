"""The rank-batched step runtime: one vectorized drive loop for every workload.

:class:`StepRuntime` pushes tokens through ``route_batch → to_pfts → plan →
dispatch → run_experts → combine`` **for all ranks at once**:

* routing runs through :meth:`~repro.routing.policies.RouterPolicy.route_batch`
  — one stacked ``(num_ranks * tokens, hidden)`` projection plus one
  vectorized top-k (ragged ranks: one per distinct row count);
* PFT construction runs through
  :meth:`~repro.routing.policies.RoutingDecision.to_pfts` — every rank's
  capacity rule and canonical ordering in one argsort/bincount pass;
* the plan build, dispatch, expert execution, and combine stages drive the
  :class:`~repro.routing.engine.Dispatcher` protocol.

These two calls are the repo's only routing and PFT code.  They are
property-tested bit for bit against a per-rank oracle (``tests/helpers.py``)
in ``tests/test_step_runtime.py``, so a rank's routing never depends on
how many ranks share its step.

:class:`StepWorkspace` owns the reusable stacked buffers (hidden block,
router logits, and named scratch arenas) so steady-state steps stop
re-allocating them, and :class:`StepTrace` is the uniform attachment point
for telemetry, byte accounting, and future tracing consumers: every
executed step emits one trace object to every registered hook.

With a :class:`~repro.routing.plan_cache.PlanCache` attached
(``plan_cache=``), the runtime additionally skips the PFT build + plan
compile on warm steps and — once a cache entry is reused after its
first cold execution, which is when the cache compiles its fused
:class:`~repro.routing.plan_cache.ExecProgram` — runs the whole
dispatch/experts/combine back half through a handful of whole-array
gathers and segmented folds, bit-identical to the engine path (comm
accounting is replayed from the captured event templates).  The fused path only engages for float64 payloads on worlds
without memory tracking; anything else transparently runs the engine.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import tracer as obs
from repro.routing.engine import Dispatcher
from repro.routing.plan_cache import PlanCache, Resolution
from repro.routing.policies import RouterPolicy, RoutingDecision, _PolicyBase
from repro.routing.telemetry import RoutingTelemetry

logger = logging.getLogger(__name__)


class StepWorkspace:
    """Reusable stacked buffers for the rank-batched route path.

    The runtime routes through one ``(num_ranks * tokens, hidden)`` block
    and one matching logits block per step; this workspace keeps both
    allocations alive across steps (they are re-used in place whenever the
    requested shape matches, and transparently re-grown when it does not),
    so a steady-state drive loop performs no per-step buffer allocation for
    the stacked route stage.
    """

    def __init__(self) -> None:
        self._hidden: np.ndarray | None = None
        self._logits: np.ndarray | None = None
        self._scratch: dict[str, np.ndarray] = {}
        self.hidden_reuses = 0
        self.logits_reuses = 0
        self.scratch_reuses = 0

    def _buffer(self, current: np.ndarray | None, rows: int, cols: int):
        shape = (rows, cols)
        if current is not None and current.shape == shape:
            return current, True
        return np.empty(shape, dtype=np.float64), False

    def stacked_hidden(self, rows: int, cols: int) -> np.ndarray:
        """The ``(rows, cols)`` stacked hidden-state buffer (reused)."""
        self._hidden, reused = self._buffer(self._hidden, rows, cols)
        self.hidden_reuses += int(reused)
        return self._hidden

    def stacked_logits(self, rows: int, cols: int) -> np.ndarray:
        """The ``(rows, cols)`` stacked router-logits buffer (reused)."""
        self._logits, reused = self._buffer(self._logits, rows, cols)
        self.logits_reuses += int(reused)
        return self._logits

    def scratch(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A named reusable scratch arena (re-grown on shape/dtype change).

        The fused plan-cache execution path parks its per-step intermediate
        blocks here (stacked tokens, expert-output stack, fold values) so
        warm steps stop re-allocating them; contents are unspecified until
        the caller fills the array.
        """
        buf = self._scratch.get(name)
        if buf is not None and buf.shape == tuple(shape) and buf.dtype == dtype:
            self.scratch_reuses += 1
            return buf
        buf = np.empty(shape, dtype=dtype)
        self._scratch[name] = buf
        return buf


@dataclass
class StepTrace:
    """Everything one executed step exposes to tracing consumers.

    Emitted by :meth:`StepRuntime.run_step` to every registered trace hook
    (and embedded in the returned :class:`StepResult`), so telemetry, byte
    accounting, and future tracing consumers all attach through the same
    object instead of re-deriving step state from scratch.
    """

    step: int | None
    num_ranks: int
    tokens_per_rank: list[int]
    row_bytes: int
    decisions: list[RoutingDecision]
    pfts: list
    plan: object  # DispatchPlan
    seconds: float
    #: plan-cache resolution for this step ("hit" / "weight_patch" /
    #: "patch" / "miss"), or None when the runtime has no cache attached.
    cache_outcome: str | None = None
    #: snapshot of the cache's cumulative counters after this step.
    cache_stats: dict = field(default_factory=dict)
    #: whether the back half ran through the fused ExecProgram.
    fused: bool = False

    @property
    def dispatched_rows(self) -> int:
        """Surviving routed assignments entering the dispatch stage.

        This counts the assignment population, not wire traffic: RBD moves
        fewer rows (dedup) and hierarchical dispatch moves rows over
        several hops — read ``plan.sent_rows()`` / ``plan.stats_dict()``
        for what the collectives actually carried.
        """
        return int(sum(pft.num_routed_tokens for pft in self.pfts))

    @property
    def dispatch_bytes(self) -> int:
        """Payload bytes of the surviving assignments (``row_bytes`` each)."""
        return self.dispatched_rows * self.row_bytes

    def policy_drops_by_rank(self) -> list[int]:
        """Assignments the router policy dropped, per rank.

        Rank-granular so consumers that map ranks to higher-level units —
        the serving engine maps one request per rank slot — can attribute
        drops to the unit that suffered them instead of a step-wide total.
        """
        return [int(d.num_dropped) for d in self.decisions]

    def capacity_drops_by_rank(self) -> list[int]:
        """Assignments PFT capacity truncation dropped, per rank."""
        return [int(p.dropped_assignments) for p in self.pfts]


#: a trace consumer: called once per executed step with the step's trace.
TraceHook = Callable[[StepTrace], None]


@dataclass
class StepResult:
    """The outputs of one runtime step, plus its :class:`StepTrace`."""

    trace: StepTrace
    expert_inputs: list[np.ndarray]
    expert_outputs: list[np.ndarray]
    outputs: list[np.ndarray]

    @property
    def plan(self):
        """The step's :class:`~repro.routing.plan.DispatchPlan`."""
        return self.trace.plan

    @property
    def decisions(self) -> list[RoutingDecision]:
        """Per-rank routing decisions (batched route, bit-identical)."""
        return self.trace.decisions

    @property
    def pfts(self) -> list:
        """Per-rank PFTs compiled by the batched builder."""
        return self.trace.pfts


class StepRuntime:
    """Executes one MoE step for every rank of an EP group at once.

    Parameters
    ----------
    policy:
        The :class:`~repro.routing.policies.RouterPolicy` that routes each
        step (must carry its own router weight).
    dispatcher:
        Any :class:`~repro.routing.engine.Dispatcher` — flat, RBD, or
        hierarchical; the runtime is agnostic.
    capacity:
        Per-expert token cap applied during PFT construction, or ``None``
        for no cap.  :meth:`capacity_for` computes the standard
        ``ceil(capacity_factor * S * k / E)`` rule.
    expert_weights:
        Optional ``(per_rank_w1, per_rank_w2)`` expert parameter lists; when
        given, :meth:`run_step` executes the real grouped expert GEMMs.
        Without them the runtime runs *identity experts* (each expert
        returns its input), which is exactly what the validation drivers
        need to exercise dispatch + combine.
    telemetry:
        Optional :class:`~repro.routing.telemetry.RoutingTelemetry`; the
        runtime records every step into it (decisions, PFTs, plan, payload
        bytes derived from the actual token dtype).
    trace_hooks:
        Iterable of callables invoked with the :class:`StepTrace` of every
        executed step.
    plan_cache:
        Optional :class:`~repro.routing.plan_cache.PlanCache`.  When given,
        each step's routing decisions are fingerprinted and resolved
        through the cache (exact hit / weight patch / incremental patch /
        cold build) instead of always rebuilding PFTs and the plan, and
        warm steps with a compiled fused executor skip the engine's
        dispatch/combine entirely — bit-identically.
    """

    def __init__(
        self,
        policy: RouterPolicy,
        dispatcher: Dispatcher,
        *,
        capacity: int | None = None,
        expert_weights: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
        activation: str = "silu",
        telemetry: RoutingTelemetry | None = None,
        trace_hooks: tuple[TraceHook, ...] = (),
        plan_cache: PlanCache | None = None,
    ):
        self.policy = policy
        self.dispatcher = dispatcher
        self.capacity = capacity
        self.expert_weights = expert_weights
        self.activation = activation
        self.telemetry = telemetry
        self.trace_hooks: list[TraceHook] = list(trace_hooks)
        self.plan_cache = plan_cache
        self.workspace = StepWorkspace()
        self.steps_run = 0

    # ------------------------------------------------------------------
    @staticmethod
    def capacity_for(
        tokens_per_rank: int, top_k: int, num_experts: int, capacity_factor: float
    ) -> int:
        """The standard per-expert cap: ``ceil(c * S * k / E)``, at least 1."""
        return max(
            1, math.ceil(capacity_factor * tokens_per_rank * top_k / num_experts)
        )

    def add_trace_hook(self, hook: TraceHook) -> None:
        """Register another per-step trace consumer."""
        self.trace_hooks.append(hook)

    # ------------------------------------------------------------------
    def run_step(
        self, per_rank_hidden: list[np.ndarray], *, step: int | None = None
    ) -> StepResult:
        """Execute route_batch → to_pfts → plan → dispatch → experts → combine.

        ``per_rank_hidden`` holds one ``[S, H]`` batch per EP-group rank.
        Returns the per-rank combined outputs along with every intermediate
        artifact, records the step into the attached telemetry, and emits a
        :class:`StepTrace` to every registered hook.
        """
        start = time.perf_counter()
        with obs.span("step", "step", step=step) as step_span:
            # The payload keeps its own dtype (routing casts to float64
            # internally): byte accounting below must see what actually moves.
            arrays = [np.asarray(h) for h in per_rank_hidden]
            if not arrays:
                raise ValueError("need at least one rank's hidden states")

            with obs.span("route_batch", "step"):
                decisions = self.policy.route_batch(
                    arrays, step=step, workspace=self.workspace
                )
            resolution: Resolution | None = None
            if self.plan_cache is None:
                with obs.span("to_pfts", "step"):
                    pfts = RoutingDecision.to_pfts(decisions, self.capacity)
                with obs.span("plan_build", "step"):
                    plan = self.dispatcher.plan(pfts, step=step)
            else:
                with obs.span("plan_resolve", "step") as resolve_span:
                    resolution = self.plan_cache.resolve(
                        decisions,
                        dispatcher=self.dispatcher,
                        capacity=self.capacity,
                        tokens_per_rank=[int(h.shape[0]) for h in arrays],
                        row_signature=(int(arrays[0].shape[1]), arrays[0].dtype.str),
                        step=step,
                    )
                    resolve_span.set(cache_tier=resolution.outcome)
                pfts, plan = resolution.pfts, resolution.plan

            fusable = resolution is not None and self._fusable(arrays)
            if fusable and resolution.exec_program is not None:
                with obs.span("fused_replay", "step"):
                    expert_inputs, expert_outputs, outputs = self._run_fused(
                        resolution.exec_program, arrays, plan
                    )
                fused = True
            else:
                stats = self.dispatcher.group.world.stats
                events_before = len(stats.events)
                with obs.span("dispatch", "step"):
                    expert_inputs, _ = self.dispatcher.dispatch(
                        arrays, pfts, plan=plan, step=step
                    )
                with obs.span("experts", "step"):
                    if self.expert_weights is not None:
                        per_rank_w1, per_rank_w2 = self.expert_weights
                        expert_outputs = self.dispatcher.run_experts(
                            expert_inputs, plan, per_rank_w1, per_rank_w2,
                            activation=self.activation,
                        )
                    else:
                        # Identity experts: exercises dispatch + combine with
                        # the dispatched rows (the validation drivers' mode).
                        expert_outputs = [buf.copy() for buf in expert_inputs]
                with obs.span("combine", "step"):
                    outputs = self.dispatcher.combine(
                        expert_outputs, plan, [h.shape[0] for h in arrays]
                    )
                fused = False
                if fusable:
                    # Capture the step's comm events as the entry's replay
                    # templates; the cache compiles the fused program only
                    # when the entry is reused.
                    self.plan_cache.attach_comm(
                        resolution.entry, stats.events[events_before:]
                    )

            with obs.span("finalize", "step"):
                # Payload sizing derives from the actual token dtype — a
                # float32 payload halves the byte accounting instead of
                # silently lying.
                row_bytes = int(arrays[0].shape[1] * arrays[0].dtype.itemsize)
                trace = StepTrace(
                    step=step,
                    num_ranks=len(arrays),
                    tokens_per_rank=[int(h.shape[0]) for h in arrays],
                    row_bytes=row_bytes,
                    decisions=decisions,
                    pfts=pfts,
                    plan=plan,
                    seconds=time.perf_counter() - start,
                    cache_outcome=(
                        resolution.outcome if resolution is not None else None
                    ),
                    cache_stats=(
                        self.plan_cache.stats() if self.plan_cache is not None else {}
                    ),
                    fused=fused,
                )
                step_span.set(
                    num_ranks=trace.num_ranks,
                    fused=fused,
                    cache_tier=trace.cache_outcome,
                    dispatched_rows=trace.dispatched_rows,
                    dispatch_bytes=trace.dispatch_bytes,
                )
                if self.telemetry is not None:
                    self.telemetry.record(
                        decisions,
                        pfts=pfts,
                        plan=plan,
                        row_bytes=row_bytes,
                        cache_outcome=trace.cache_outcome,
                    )
                for hook in self.trace_hooks:
                    # Hooks are observers: a broken one must not abort the
                    # step (or starve the hooks registered after it).
                    try:
                        hook(trace)
                    except Exception:
                        logger.exception(
                            "trace hook %r failed on step %r; continuing", hook, step
                        )
        self.steps_run += 1
        return StepResult(
            trace=trace,
            expert_inputs=expert_inputs,
            expert_outputs=expert_outputs,
            outputs=outputs,
        )

    # ------------------------------------------------------------------
    def _fusable(self, arrays: list[np.ndarray]) -> bool:
        """Whether this step may run through the fused cached executor.

        The fused path gathers float64 rows verbatim and replays comm
        accounting from event templates, so it requires a float64 payload
        (routing's internal dtype — anything else would change what the
        engine dispatches) and a world without memory tracking (replay does
        not charge simulated device buffers).
        """
        return all(a.dtype == np.float64 for a in arrays) and not (
            self.dispatcher.group.world.track_memory
        )

    def _stacked_tokens(self, arrays: list[np.ndarray]) -> np.ndarray:
        """The step's ``(total_tokens, hidden)`` stack for the fused gather.

        When this step's batched route just filled the workspace's stacked
        hidden buffer (shipped policies with uniform batches), that buffer
        *is* the stack and is reused as-is; otherwise the rows are
        concatenated into a scratch arena.
        """
        rows = sum(int(a.shape[0]) for a in arrays)
        cols = int(arrays[0].shape[1])
        uniform = all(a.shape[0] == arrays[0].shape[0] for a in arrays)
        hidden = self.workspace._hidden
        if (
            uniform
            and hidden is not None
            and hidden.shape == (rows, cols)
            and type(self.policy).route_batch is _PolicyBase.route_batch
        ):
            return hidden
        stacked = self.workspace.scratch("fused_stacked_tokens", (rows, cols))
        np.concatenate(arrays, axis=0, out=stacked)
        return stacked

    def _run_fused(self, program, arrays: list[np.ndarray], plan):
        """Drive one warm step through the cached fused executor."""
        expert_inputs, big = program.run_dispatch(self._stacked_tokens(arrays))
        if self.expert_weights is not None:
            per_rank_w1, per_rank_w2 = self.expert_weights
            expert_outputs = self.dispatcher.run_experts(
                expert_inputs, plan, per_rank_w1, per_rank_w2,
                activation=self.activation,
            )
            stacked_out = self.workspace.scratch("fused_expert_outputs", big.shape)
            for d, buf in enumerate(expert_outputs):
                stacked_out[program.dest_off[d] : program.dest_off[d + 1]] = buf
        else:
            stacked_out = big.copy()
            expert_outputs = [
                stacked_out[program.dest_off[d] : program.dest_off[d + 1]]
                for d in range(len(arrays))
            ]
        outputs = program.run_combine(stacked_out, workspace=self.workspace)
        program.replay_comm(self.dispatcher.group.world.stats)
        return expert_inputs, expert_outputs, outputs
