"""Banks of fine-grained expert FFNs.

An :class:`ExpertBank` holds the weights of all (local) experts of one MoE
layer as stacked arrays ``w1: [E, H, F]`` and ``w2: [E, F, H]`` so that both
execution styles the paper compares can run on the same weights:

* **Padded batched matmul** (baseline): a single ``[E, C, H] @ [E, H, F]``
  batched GEMM over fixed-capacity buffers, zero-padding included.
* **Sequential GEMM** (X-MoE, §4.1.2): one GEMM per expert over exactly the
  tokens routed to it, no padding.  The whole expert stage is one autograd
  node with parents ``(tokens, w1, w2)``, whatever the expert count: its
  backward loops over the same experts and writes each expert's weight
  gradients and its rows of the token gradient in place into three arrays
  allocated once.  Slicing ``tokens``/``w1``/``w2`` into per-expert tape
  nodes instead would cost a full-size zero array and an ``np.add.at`` per
  slice in backward, and a tape that grows with the expert count.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.autograd import Tensor
from repro.tensor import ops


class ExpertBank:
    """Weights and execution helpers for the experts of one MoE layer."""

    def __init__(
        self,
        num_experts: int,
        hidden_size: int,
        ffn_hidden_size: int,
        *,
        rng: np.random.Generator | None = None,
        activation: str = "silu",
    ):
        if num_experts <= 0:
            raise ValueError("num_experts must be positive")
        rng = rng or np.random.default_rng(0)
        self.num_experts = num_experts
        self.hidden_size = hidden_size
        self.ffn_hidden_size = ffn_hidden_size
        self.activation = activation
        std_in = 1.0 / np.sqrt(hidden_size)
        std_out = 1.0 / np.sqrt(ffn_hidden_size)
        self.w1 = Tensor(
            rng.normal(0.0, std_in, size=(num_experts, hidden_size, ffn_hidden_size)),
            requires_grad=True,
        )
        self.w2 = Tensor(
            rng.normal(0.0, std_out, size=(num_experts, ffn_hidden_size, hidden_size)),
            requires_grad=True,
        )

    def parameters(self) -> list[Tensor]:
        return [self.w1, self.w2]

    @property
    def params_per_expert(self) -> int:
        return 2 * self.hidden_size * self.ffn_hidden_size

    # ------------------------------------------------------------------
    def forward_padded(self, expert_inputs: Tensor) -> Tensor:
        """Batched execution over fixed-capacity buffers ``[E, C, H]``.

        Zero-padded rows produce zero outputs (before bias-free projections),
        reproducing the baseline's wasted FLOPs without changing results.
        """
        if expert_inputs.ndim != 3 or expert_inputs.shape[0] != self.num_experts:
            raise ValueError(
                f"expected [E={self.num_experts}, C, H] inputs, got {expert_inputs.shape}"
            )
        h = expert_inputs @ self.w1  # [E, C, F]
        h = ops.activate(h, self.activation)
        return h @ self.w2  # [E, C, H]

    def forward_sequential(
        self, tokens: Tensor, tokens_per_expert: np.ndarray
    ) -> Tensor:
        """Sequential-GEMM execution over a padding-free token buffer.

        ``tokens`` is ``[B, H]`` with tokens grouped by expert id (ascending)
        and ``tokens_per_expert[e]`` gives each group's length.  Only experts
        with at least one token launch a GEMM, exactly like the loop in
        §4.1.2 of the paper.

        The result is one tape node with parents ``(tokens, w1, w2)``.  The
        forward writes every expert's ``act(x @ w1[e]) @ w2[e]`` into one
        ``[B, H]`` output and keeps each expert's pre-activation values; the
        backward differentiates each expert's GEMMs and adds ``gw2[e]``,
        ``gw1[e]`` and ``gx[lo:hi]`` into zero arrays of the parents' shapes.
        Its expressions are those of ``Tensor.__matmul__`` and the
        activation pairs of :mod:`repro.tensor.ops`, so outputs and
        gradients are bit-identical to chaining those ops per expert.
        ``xmoe.kernels.sequential_gemm`` is not reused here: it writes SiLU
        as ``x / (1 + exp(-x))``, which rounds differently.  An empty buffer
        returns a constant ``[0, H]`` tensor with no tape node.
        """
        value, derivative = ops.activation_pair(self.activation)
        tokens_per_expert = np.asarray(tokens_per_expert, dtype=np.int64)
        if tokens_per_expert.size != self.num_experts:
            raise ValueError(
                f"tokens_per_expert has {tokens_per_expert.size} entries, "
                f"expected {self.num_experts}"
            )
        if tokens_per_expert.sum() != tokens.shape[0]:
            raise ValueError(
                f"tokens_per_expert sums to {tokens_per_expert.sum()} but buffer "
                f"has {tokens.shape[0]} rows"
            )
        if tokens.shape[0] == 0:
            return Tensor(np.zeros((0, self.hidden_size)))
        offsets = np.concatenate([[0], np.cumsum(tokens_per_expert)])
        x, w1, w2 = tokens.data, self.w1.data, self.w2.data
        out = np.empty((x.shape[0], self.hidden_size))
        # Per non-empty expert: (e, lo, hi, pre-activation, activation state,
        # activation output), everything the backward needs.
        saved = []
        for e in np.flatnonzero(tokens_per_expert):
            lo, hi = offsets[e], offsets[e + 1]
            h = x[lo:hi] @ w1[e]
            a, state = value(h)
            out[lo:hi] = a @ w2[e]
            saved.append((e, lo, hi, h, state, a))

        def backward(grad):
            # ``+=`` into zeros, not assignment: the same sums a per-expert
            # chain of slice ops produces, down to 0.0 + -0.0 == +0.0.
            gx, gw1, gw2 = np.zeros_like(x), np.zeros_like(w1), np.zeros_like(w2)
            for e, lo, hi, h, state, a in saved:
                g = grad[lo:hi]
                ga = g @ np.swapaxes(w2[e], -1, -2)
                gw2[e] += np.swapaxes(a, -1, -2) @ g
                gh = ga * derivative(h, state)
                gx[lo:hi] += gh @ np.swapaxes(w1[e], -1, -2)
                gw1[e] += np.swapaxes(x[lo:hi], -1, -2) @ gh
            return gx, gw1, gw2

        return Tensor.from_op(out, (tokens, self.w1, self.w2), backward)
