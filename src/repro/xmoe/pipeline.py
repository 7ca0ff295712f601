"""The padding-free MoE pipeline.

Two implementations live here:

* :class:`PaddingFreeMoELayer` — the single-process autograd version that
  plugs into :class:`~repro.moe.transformer.MoETransformerLM`.  It follows
  Listing 1 exactly: gating → PFT construction → gather → sequential GEMM →
  weighted scatter, with no zero padding anywhere.  It trains the
  loss-validation model (Fig. 15) against the padded baseline.
* :class:`DistributedMoEDispatcher` — the multi-rank (numpy) version that
  performs the real uneven all-to-all exchanges over a
  :class:`~repro.comm.process_group.ProcessGroup`.  It is a thin wrapper
  over the vectorized routing-plan engine (:mod:`repro.routing`) with a
  :class:`~repro.routing.planner.FlatPlanner`, and doubles as the
  correctness oracle RBD is compared against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.deepspeed_moe import compute_capacity
from repro.comm.process_group import ProcessGroup
from repro.moe.experts import ExpertBank
from repro.moe.gating import TopKGate
from repro.routing.engine import PlanDispatcher
from repro.routing.plan import DispatchPlan
from repro.routing.planner import FlatPlanner
from repro.routing.policies import RoutingDecision
from repro.tensor import ops
from repro.tensor.autograd import Tensor
from repro.xmoe.pft import PFT


@dataclass
class PaddingFreeStats:
    """Bookkeeping from one padding-free forward pass."""

    num_tokens: int
    num_routed_tokens: int
    capacity: int
    num_experts: int
    hidden_size: int
    dropped_assignments: int
    dtype_bytes: int = 8

    @property
    def dispatch_buffer_bytes(self) -> int:
        """Bytes of the padding-free dispatched token buffer (``B * H``)."""
        return self.num_routed_tokens * self.hidden_size * self.dtype_bytes

    @property
    def alltoall_bytes(self) -> int:
        """Bytes one dispatch all-to-all moves (only real tokens travel)."""
        return self.dispatch_buffer_bytes

    @property
    def padding_fraction(self) -> float:
        """Always zero — kept for symmetry with the padded baseline stats."""
        return 0.0


class PaddingFreeMoELayer:
    """Single-process functional X-MoE layer (Listing 1 semantics)."""

    def __init__(
        self,
        gate: TopKGate,
        experts: ExpertBank,
        capacity_factor: float = 1.25,
    ):
        if gate.num_experts != experts.num_experts:
            raise ValueError("gate and expert bank disagree on the expert count")
        self.gate = gate
        self.experts = experts
        self.capacity_factor = capacity_factor
        self.last_stats: PaddingFreeStats | None = None
        self.last_pft: PFT | None = None
        self._step = 0  # decorrelates router exploration noise across calls

    def parameters(self) -> list[Tensor]:
        """All trainable tensors: gate weight plus expert banks."""
        return self.gate.parameters() + self.experts.parameters()

    def __call__(self, tokens: Tensor) -> tuple[Tensor, Tensor]:
        """Forward ``[S, H]`` tokens; returns ``(output, aux_loss)``."""
        gate_out = self.gate(tokens, step=self._step)
        self._step += 1
        s, h = tokens.shape
        e = self.gate.num_experts
        k = self.gate.top_k
        capacity = compute_capacity(s, k, e, self.capacity_factor)

        # Policy drops are filtered inside to_pfts, then the standard
        # capacity rule applies.
        pft = RoutingDecision.to_pfts([gate_out.decision], capacity)[0]
        self.last_pft = pft

        # Dispatch: gather routed tokens into an expert-grouped buffer.
        dispatched = ops.gather_rows(tokens, pft.token_ids)
        # Experts: one GEMM per expert over exactly its tokens.
        expert_out = self.experts.forward_sequential(dispatched, pft.tokens_per_expert)
        # Combine: scatter back to sequence positions, scaled by gate probs.
        combine_weights = gate_out.probs[pft.token_ids, pft.expert_ids]
        output = ops.scatter_rows(expert_out, pft.token_ids, s, weights=combine_weights)

        self.last_stats = PaddingFreeStats(
            num_tokens=s,
            num_routed_tokens=pft.num_routed_tokens,
            capacity=capacity,
            num_experts=e,
            hidden_size=h,
            dropped_assignments=pft.dropped_assignments,
        )
        return output, gate_out.aux_loss


# ----------------------------------------------------------------------
# Distributed (multi-rank) dispatch over a ProcessGroup
# ----------------------------------------------------------------------
class DistributedMoEDispatcher:
    """Uneven all-to-all dispatch/combine of PFT buffers across EP ranks.

    Compatibility wrapper over the vectorized routing-plan engine: a
    :class:`repro.routing.FlatPlanner` compiles every PFT into a
    :class:`repro.routing.DispatchPlan` and a
    :class:`repro.routing.PlanDispatcher` executes it.  The flat plan also
    serves as the correctness oracle for RBD — both planners produce
    canonically ordered expert inputs and identical combine fold orders, so
    :class:`~repro.xmoe.rbd.RBDDispatcher` outputs match this dispatcher
    bit for bit.

    Accounting note: the pre-refactor implementation exchanged per-row
    expert ids in a second ``dispatch_meta_a2a`` collective (8 bytes per
    routed assignment); the plan engine derives all arrival metadata from
    the plan instead, so only the token payload is charged.  This matches
    how the RBD path always treated routing metadata (carried out of band,
    negligible per the paper) and makes the two paths' recorded traffic
    directly comparable.

    Parameters
    ----------
    group:
        The expert-parallel process group.
    num_experts:
        Global number of experts in the layer.
    expert_to_rank:
        Length-``num_experts`` array mapping each expert to the group-local
        rank that hosts it (defaults to a contiguous block mapping).
    """

    def __init__(
        self,
        group: ProcessGroup,
        num_experts: int,
        expert_to_rank: np.ndarray | None = None,
    ):
        self.planner = FlatPlanner(group, num_experts, expert_to_rank)
        self.engine = PlanDispatcher(group, self.planner)
        self.group = group
        self.num_experts = num_experts
        self.expert_to_rank = self.planner.expert_to_rank

    def experts_on_rank(self, local_rank: int) -> np.ndarray:
        """Global ids of the experts hosted by a group-local rank."""
        return self.planner.experts_on_rank(local_rank)

    # ------------------------------------------------------------------
    def plan(self, per_rank_pfts: list[PFT], *, step: int | None = None) -> DispatchPlan:
        """Build the flat routing plan — exactly what :meth:`dispatch` uses."""
        return self.engine.plan(per_rank_pfts, step=step)

    # ------------------------------------------------------------------
    def dispatch(
        self,
        per_rank_tokens: list[np.ndarray],
        per_rank_pfts: list[PFT],
        *,
        plan: DispatchPlan | None = None,
        step: int | None = None,
    ) -> tuple[list[np.ndarray], DispatchPlan]:
        """Route every rank's PFT tokens to the ranks hosting their experts.

        Returns ``(expert_inputs, plan)`` where ``expert_inputs[r]`` is the
        ``[B_r, H]`` buffer of tokens rank ``r``'s experts must process,
        grouped by (local) expert id, and ``plan`` carries all the metadata
        the combine stage needs.
        """
        return self.engine.dispatch(per_rank_tokens, per_rank_pfts, plan=plan, step=step)

    # ------------------------------------------------------------------
    def combine(
        self,
        per_rank_expert_outputs: list[np.ndarray],
        plan: DispatchPlan,
        num_tokens_per_rank: list[int],
    ) -> list[np.ndarray]:
        """Return expert outputs to their source ranks and sequence slots."""
        return self.engine.combine(per_rank_expert_outputs, plan, num_tokens_per_rank)

    # ------------------------------------------------------------------
    def run_experts(
        self,
        expert_inputs: list[np.ndarray],
        plan: DispatchPlan,
        per_rank_w1: list[np.ndarray],
        per_rank_w2: list[np.ndarray],
        *,
        activation: str = "silu",
    ) -> list[np.ndarray]:
        """Run each rank's local experts over its grouped input buffer."""
        return self.engine.run_experts(
            expert_inputs, plan, per_rank_w1, per_rank_w2, activation=activation
        )
