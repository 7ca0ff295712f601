"""Megablocks-style block-sparse dispatcher.

Megablocks avoids token dropping by representing expert computation as
block-sparse matrix multiplication, but its kernels require each expert's
token group to be padded up to a multiple of the GEMM block size (typically
128 rows).  For conventional MoEs this padding is negligible; for
expert-specialized MoEs with hundreds of small experts the per-expert
groups are short, so rounding every group up to the block size re-creates a
large padding overhead (§2 "Existing MoE Training Frameworks").

:class:`MegablocksDispatcher` reproduces that accounting and provides a
functional grouped execution path so its outputs can be checked against the
padding-free pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.moe.experts import ExpertBank
from repro.moe.gating import TopKGate
from repro.tensor import ops
from repro.tensor.autograd import Tensor


@dataclass
class BlockPaddingStats:
    """Padding introduced by rounding expert groups to block multiples."""

    block_size: int
    real_rows: int
    padded_rows: int

    @property
    def padding_fraction(self) -> float:
        if self.padded_rows == 0:
            return 0.0
        return 1.0 - self.real_rows / self.padded_rows

    @property
    def wasted_rows(self) -> int:
        return self.padded_rows - self.real_rows


class MegablocksDispatcher:
    """Groups tokens by expert and pads every group to a block multiple."""

    def __init__(
        self,
        gate: TopKGate,
        experts: ExpertBank,
        capacity_factor: float = 1.25,
        *,
        block_size: int = 128,
    ):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if gate.num_experts != experts.num_experts:
            raise ValueError("gate and expert bank disagree on the expert count")
        self.gate = gate
        self.experts = experts
        self.block_size = block_size
        self.last_stats: BlockPaddingStats | None = None
        self._step = 0  # decorrelates router exploration noise across calls

    def parameters(self) -> list[Tensor]:
        return self.gate.parameters() + self.experts.parameters()

    # ------------------------------------------------------------------
    def plan_assignments(
        self, token_idx: np.ndarray, expert_idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, BlockPaddingStats]:
        """Sort assignments by expert and compute block padding.

        Works for any router policy, including expert-choice routing's
        non-rectangular selections.  Returns ``(sorted_token_idx,
        sorted_expert_idx, stats)``.
        """
        order = np.argsort(expert_idx, kind="stable")
        token_idx = token_idx[order]
        expert_idx = expert_idx[order]
        counts = np.bincount(expert_idx, minlength=self.gate.num_experts)
        padded_counts = (
            np.ceil(counts / self.block_size).astype(np.int64) * self.block_size
        )
        # Experts with zero tokens launch no blocks (no padding charged).
        padded_counts[counts == 0] = 0
        stats = BlockPaddingStats(
            block_size=self.block_size,
            real_rows=int(counts.sum()),
            padded_rows=int(padded_counts.sum()),
        )
        return token_idx, expert_idx, stats

    def __call__(self, tokens: Tensor) -> tuple[Tensor, Tensor]:
        """Functional forward (no-drop, block-padded grouped execution)."""
        gate_out = self.gate(tokens, step=self._step)
        self._step += 1
        s, h = tokens.shape
        # Megablocks itself never drops, but policy-level drops (switch
        # top-1's capacity rule) are routing decisions made upstream of any
        # dispatcher, so they are respected here too.
        keep = ~gate_out.decision.dropped
        token_idx, expert_idx, stats = self.plan_assignments(
            gate_out.decision.token_ids[keep], gate_out.decision.expert_ids[keep]
        )
        self.last_stats = stats

        counts = np.bincount(expert_idx, minlength=self.gate.num_experts)
        gathered = ops.gather_rows(tokens, token_idx)
        expert_out = self.experts.forward_sequential(gathered, counts)
        combine_weights = gate_out.probs[token_idx, expert_idx]
        output = ops.scatter_rows(expert_out, token_idx, s, weights=combine_weights)
        return output, gate_out.aux_loss

    # ------------------------------------------------------------------
    def padded_buffer_bytes(self, hidden_size: int, dtype_bytes: int = 2) -> int:
        """Bytes of the block-padded dispatch buffer for the last call."""
        if self.last_stats is None:
            raise RuntimeError("call the dispatcher before asking for buffer sizes")
        return self.last_stats.padded_rows * hidden_size * dtype_bytes
