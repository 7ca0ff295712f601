"""DeepSpeed-MoE / GShard style zero-padded MoE layer.

This is the conventional pipeline of §3.1 and Appendix B.1: the gate builds
a dense dispatch mapping, every expert gets a fixed-capacity ``C`` buffer,
unused slots are zero-padded, excess tokens are dropped, and the padded
``[E, C, H]`` buffers travel through an *even* all-to-all, the batched
expert GEMM, and a second even all-to-all.  Two properties matter for the
reproduction:

* the zero padding inflates both activation memory and communication volume
  (the padded buffer is ``E*C*H`` regardless of how many tokens are real);
* the token-dropping policy drops an assignment whose raw routing score is
  negative even if capacity remains (§5.6), which is why its loss curve sits
  slightly above X-MoE's.

:class:`PaddedMoELayer` is the single-process functional version used by the
loss-validation experiment and the kernel-level comparisons; the memory and
throughput models in :mod:`repro.xmoe` reuse its buffer-size accounting via
:class:`PaddedDispatchStats`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.moe.experts import ExpertBank
from repro.moe.gating import GateOutput, TopKGate
from repro.tensor import ops
from repro.tensor.autograd import Tensor


@dataclass
class PaddedDispatchStats:
    """Bookkeeping from one padded dispatch."""

    num_tokens: int
    num_assignments: int
    capacity: int
    num_experts: int
    hidden_size: int
    kept_assignments: int
    dropped_by_score: int
    dropped_by_capacity: int
    dtype_bytes: int = 8

    @property
    def padded_slots(self) -> int:
        """Total expert-buffer slots allocated (``E * C``)."""
        return self.num_experts * self.capacity

    @property
    def padding_fraction(self) -> float:
        """Fraction of expert-buffer slots that hold zero padding."""
        if self.padded_slots == 0:
            return 0.0
        return 1.0 - self.kept_assignments / self.padded_slots

    @property
    def dispatch_buffer_bytes(self) -> int:
        """Bytes of the padded ``[E, C, H]`` dispatch buffer."""
        return self.padded_slots * self.hidden_size * self.dtype_bytes

    @property
    def dispatch_mask_bytes(self) -> int:
        """Bytes of the ``[S, E, C]`` dispatch mask the baseline materializes."""
        return self.num_tokens * self.num_experts * self.capacity * self.dtype_bytes

    @property
    def alltoall_bytes(self) -> int:
        """Bytes moved by one even all-to-all (the full padded buffer)."""
        return self.dispatch_buffer_bytes


def compute_capacity(num_tokens: int, top_k: int, num_experts: int, capacity_factor: float) -> int:
    """GShard expert capacity: ``ceil(c * S * k / E)``."""
    if num_tokens <= 0:
        raise ValueError("num_tokens must be positive")
    return max(1, math.ceil(capacity_factor * num_tokens * top_k / num_experts))


class PaddedMoELayer:
    """Single-process functional DeepSpeed-MoE style layer.

    Implements the :class:`~repro.moe.transformer.MoELayerProtocol` so it can
    be plugged into :class:`~repro.moe.transformer.MoETransformerLM`.
    """

    def __init__(
        self,
        gate: TopKGate,
        experts: ExpertBank,
        capacity_factor: float = 1.25,
        *,
        combine_dtype_bytes: int = 2,
    ):
        if gate.num_experts != experts.num_experts:
            raise ValueError("gate and expert bank disagree on the expert count")
        self.gate = gate
        self.experts = experts
        self.capacity_factor = capacity_factor
        self.combine_dtype_bytes = combine_dtype_bytes
        self.last_stats: PaddedDispatchStats | None = None
        self._step = 0  # decorrelates router exploration noise across calls

    def parameters(self) -> list[Tensor]:
        return self.gate.parameters() + self.experts.parameters()

    # ------------------------------------------------------------------
    def __call__(self, tokens: Tensor) -> tuple[Tensor, Tensor]:
        """Forward ``[S, H]`` tokens through gate → padded dispatch →
        batched experts → weighted combine."""
        gate_out = self.gate(tokens, step=self._step)
        self._step += 1
        s, h = tokens.shape
        e = self.gate.num_experts
        k = self.gate.top_k
        capacity = compute_capacity(s, k, e, self.capacity_factor)

        plan = self._plan_dispatch(gate_out, capacity)
        (token_idx, expert_idx, positions, dropped_score, dropped_cap) = plan

        dest_rows = expert_idx * capacity + positions
        gathered = ops.gather_rows(tokens, token_idx)
        dispatched_flat = ops.scatter_rows(gathered, dest_rows, e * capacity)
        dispatched = dispatched_flat.reshape(e, capacity, h)

        expert_out = self.experts.forward_padded(dispatched)
        expert_out_flat = expert_out.reshape(e * capacity, h)

        per_assignment = ops.gather_rows(expert_out_flat, dest_rows)
        combine_weights = gate_out.probs[token_idx, expert_idx]
        output = ops.scatter_rows(per_assignment, token_idx, s, weights=combine_weights)

        self.last_stats = PaddedDispatchStats(
            num_tokens=s,
            num_assignments=gate_out.decision.num_assignments,
            capacity=capacity,
            num_experts=e,
            hidden_size=h,
            kept_assignments=int(token_idx.size),
            dropped_by_score=int(dropped_score),
            dropped_by_capacity=int(dropped_cap),
        )
        return output, gate_out.aux_loss

    # ------------------------------------------------------------------
    def _plan_dispatch(self, gate_out: GateOutput, capacity: int):
        """Compute kept (token, expert, slot) assignments under the baseline's
        dropping rules: policy-level drops first (negative-score under the
        default router, capacity-factor under switch-top-1), then capacity in
        token order (GShard semantics).

        Works from the gate's :class:`RoutingDecision`, so any router
        policy, including assignment-level expert-choice routing, can drive
        the padded baseline.
        """
        token_idx = gate_out.decision.token_ids
        expert_idx = gate_out.decision.expert_ids
        drop_score = gate_out.decision.dropped

        keep_after_score = ~drop_score
        dropped_score = int(drop_score.sum())

        token_idx = token_idx[keep_after_score]
        expert_idx = expert_idx[keep_after_score]

        # Position of each surviving assignment within its expert, in token
        # order (stable sort preserves token order inside each expert group).
        order = np.argsort(expert_idx, kind="stable")
        sorted_experts = expert_idx[order]
        counts = np.bincount(sorted_experts, minlength=self.gate.num_experts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        positions_sorted = np.arange(sorted_experts.size) - starts[sorted_experts]
        positions = np.empty_like(positions_sorted)
        positions[order] = positions_sorted

        within_capacity = positions < capacity
        dropped_cap = int((~within_capacity).sum())

        return (
            token_idx[within_capacity],
            expert_idx[within_capacity],
            positions[within_capacity],
            dropped_score,
            dropped_cap,
        )
