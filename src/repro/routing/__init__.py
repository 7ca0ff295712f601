"""repro.routing — routing policies, plans, and the dispatch engine.

This package owns everything between "hidden states" and "tokens sitting in
front of their experts", split into two orthogonal layers:

**Policies — what the router decides** (:mod:`repro.routing.policies`)
    A :class:`RouterPolicy` maps hidden states to a :class:`RoutingDecision`:
    flat ``(token, expert, score, dropped)`` assignment arrays plus aux/z
    losses and the full probability matrix.  Four policies ship with the
    repo — softmax top-k (the paper's router, bit-identical to the legacy
    ``TopKGate`` path), Switch top-1 with exploration noise and
    capacity-factor dropping, noisy top-k with z-loss, and expert-choice
    routing (experts pick tokens; load balance by construction).  Policies
    are the *experimental axis*: swap one in via ``ModelConfig.router``,
    `make_policy`, or the ``--router`` CLI flag.  Every policy routes
    through one rank-batched path (``route_batch`` / ``decide_batch``): one
    stacked projection + vectorized selection for a whole EP group (a
    single rank is ``R=1``; ragged ranks are grouped by row count) — the
    path behind :class:`repro.runtime.StepRuntime` and the gate alike.

**Planners + engine — how the decision is executed**
    (:mod:`repro.routing.plan`, :mod:`repro.routing.planner`,
    :mod:`repro.routing.engine`)
    Decisions become PFTs (``RoutingDecision.to_pfts``), per-rank PFTs are
    compiled by :class:`FlatPlanner` (single uneven all-to-all; the
    correctness oracle) or :class:`RBDPlanner` (two-stage
    redundancy-bypassing dispatch) into a :class:`DispatchPlan` — all
    dispatch/combine bookkeeping as flat numpy arrays, built once per step —
    and :class:`PlanDispatcher` executes the plan behind the
    :class:`Dispatcher` protocol (``plan → dispatch → run_experts →
    combine``).  Policy-dropped tokens never enter the plan, so their
    combine rows are exactly zero on both paths; flat and RBD outputs are
    bit-identical.

**Plan cache — skip the work when routing barely changes**
    (:mod:`repro.routing.plan_cache`)
    :class:`PlanCache` fingerprints each step's assignment multiset
    (order-insensitive digests over the stacked decision arrays) and
    resolves it against a bounded LRU: exact hit, weight-only patch,
    incremental structural patch, or cold build — every tier bit-identical
    to building from scratch.  Warm entries carry a fused
    :class:`ExecProgram` that replaces the engine's dispatch + combine
    with whole-array gathers and strided folds; wire it in via
    ``StepRuntime(plan_cache=...)``.

**Telemetry — what actually happened** (:mod:`repro.routing.telemetry`)
    :class:`RoutingTelemetry` accumulates per-expert load histograms, drop
    rates, normalized balance entropy, dispatched bytes, and redundancy,
    step over step; ``benchmarks/test_router_policies.py`` sweeps every
    policy over flat and RBD dispatch and prints the comparison table.

The legacy classes :class:`repro.xmoe.pipeline.DistributedMoEDispatcher`
and :class:`repro.xmoe.rbd.RBDDispatcher` are thin wrappers over this
engine, and :class:`repro.moe.gating.TopKGate` delegates its selection to a
policy (``DropPolicy`` maps onto the default policy's score-threshold knob).
"""

from repro.routing.plan import DispatchPlan
from repro.routing.planner import (
    FlatPlanner,
    HierarchicalPlanner,
    RBDPlan,
    RBDPlanner,
    select_pilots,
)
from repro.routing.engine import (
    DISPATCH_KINDS,
    DISPATCH_OPS,
    Dispatcher,
    PlanDispatcher,
    make_dispatcher,
)
from repro.routing.plan_cache import (
    ExecProgram,
    PlanCache,
    Resolution,
    StepSignature,
    decision_fingerprint,
)
from repro.routing.policies import (
    ROUTER_POLICIES,
    ROUTER_POLICY_NAMES,
    ExpertChoicePolicy,
    NoisyTopKPolicy,
    RouterPolicy,
    RoutingDecision,
    SoftmaxTopKPolicy,
    SwitchTop1Policy,
    make_policy,
    skewed_router_tokens,
)
from repro.routing.telemetry import RoutingTelemetry, load_balance_entropy

__all__ = [
    "DISPATCH_KINDS",
    "DISPATCH_OPS",
    "DispatchPlan",
    "Dispatcher",
    "ExecProgram",
    "ExpertChoicePolicy",
    "FlatPlanner",
    "HierarchicalPlanner",
    "NoisyTopKPolicy",
    "PlanCache",
    "PlanDispatcher",
    "RBDPlan",
    "RBDPlanner",
    "Resolution",
    "StepSignature",
    "ROUTER_POLICIES",
    "ROUTER_POLICY_NAMES",
    "RouterPolicy",
    "RoutingDecision",
    "RoutingTelemetry",
    "SoftmaxTopKPolicy",
    "SwitchTop1Policy",
    "decision_fingerprint",
    "load_balance_entropy",
    "make_dispatcher",
    "make_policy",
    "select_pilots",
    "skewed_router_tokens",
]
