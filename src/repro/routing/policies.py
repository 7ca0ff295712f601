"""Pluggable router policies: *what* the router emits, behind one protocol.

The planners in :mod:`repro.routing.planner` consume per-rank PFTs; a PFT is
just a flat list of (token, expert, weight) assignments.  This module makes
the step that *produces* those assignments pluggable: a
:class:`RouterPolicy` maps hidden states to a :class:`RoutingDecision` — the
flat-numpy routing form every downstream consumer (PFT construction, the
flat/RBD planners, the padded baselines, telemetry) already understands.

Four policies ship with the repo:

* :class:`SoftmaxTopKPolicy` — the paper's softmax top-k router, factored
  out of :class:`repro.moe.gating.TopKGate`.  Bit-identical to the legacy
  gate path (the oracle test in ``tests/test_router_policies.py`` checks
  this), including the optional DeepSpeed-MoE negative-score drop rule.
* :class:`SwitchTop1Policy` — Switch-Transformer top-1 routing with
  multiplicative exploration noise on the logits and capacity-factor token
  dropping decided *inside* the policy (``drops_early``).
* :class:`NoisyTopKPolicy` — top-k over additively perturbed logits
  (Shazeer-style exploration) with a router z-loss.
* :class:`ExpertChoicePolicy` — experts pick tokens: each expert takes its
  top-``capacity`` tokens by router probability, so per-expert load is
  balanced *by construction* (never more than one token apart).

Determinism mirrors the planners: every noisy policy derives a fresh
generator from ``(seed, step)`` on each :meth:`RouterPolicy.decide_batch`
call, so the same ``(seed, step)`` always produces the same decision and
there is no hidden RNG state mutating across calls.

One routing path
----------------
:meth:`RouterPolicy.route_batch` is the only way hidden states become
decisions, and a single rank is simply ``R=1``.  It stacks the per-rank
``[S, H]`` batches into one ``[R, S, H]`` block, projects it with one
matmul, and hands the ``[R, S, E]`` logits to the policy's
:meth:`~RouterPolicy.decide_batch`, which vectorizes softmax, top-k,
capacity drops and losses across the rank axis.  Ragged batches (serving
slots hold 0, 1 or many rows) are grouped by row count: one stacked
projection and one :meth:`decide_batch` per group, decisions returned in
rank order.  Each group draws exploration noise from the same fresh
``(seed, step)`` generator, so a rank's decision never depends on which
other ranks share its call.  ``tests/helpers.py`` keeps a short per-rank
oracle of every policy, and ``tests/test_step_runtime.py`` checks the
batched path against it bit for bit, ragged and 0-row ranks included.
:meth:`RoutingDecision.to_pfts` is the matching PFT compiler: all ranks'
PFTs from the stacked assignment arrays in one argsort/bincount pass.  The
gate (:class:`repro.moe.gating.TopKGate`) and the
:class:`~repro.runtime.StepRuntime` drive the same two calls.

Dropped tokens and bit-exact combine
------------------------------------
A policy marks dropped assignments in ``RoutingDecision.dropped``;
:meth:`RoutingDecision.to_pfts` filters them out *before* planning, so a
dropped token simply never enters the :class:`~repro.routing.plan.DispatchPlan`
and its combine output row stays exactly zero (the combine scatter starts
from a zero buffer).  Because flat and RBD plans share the canonical fold
orders, the zero rows — like every other row — are bit-identical between
the two dispatch paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.routing.telemetry import load_balance_entropy


def _softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable softmax, bit-identical to ``repro.tensor.ops.softmax``.

    ``out`` optionally receives the result (the batched path streams blocks
    into a preallocated stacked array); the values are identical either way.
    """
    shifted = logits - logits.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    denom = shifted.sum(axis=-1, keepdims=True)
    if out is None:
        shifted /= denom
        return shifted
    np.divide(shifted, denom, out=out)
    return out


#: per-block working-set budget for the stacked route path: large enough to
#: amortize numpy call overhead, small enough that one block's softmax /
#: top-k temporaries stay cache-resident instead of streaming through DRAM.
_ROUTE_BLOCK_BYTES = 1 << 20


def _row_blocks(num_rows: int, num_cols: int):
    """Split ``num_rows`` into cache-sized blocks of ``num_cols``-wide rows.

    Every op on the stacked route path is row-local, so evaluating it block
    by block produces bit-identical results while keeping each block's
    temporaries in cache.
    """
    rows = max(1, _ROUTE_BLOCK_BYTES // max(1, num_cols * 8))
    for start in range(0, num_rows, rows):
        yield start, min(num_rows, start + rows)


def _stacked_softmax(flat_logits: np.ndarray) -> np.ndarray:
    """Softmax over stacked ``[N, E]`` logits, streamed block by block.

    Row-local, so the result equals one whole-array :func:`_softmax` call
    bit for bit while each block's temporaries stay cache-resident.
    """
    n, e = flat_logits.shape
    probs = np.empty_like(flat_logits)
    for b0, b1 in _row_blocks(n, e):
        _softmax(flat_logits[b0:b1], out=probs[b0:b1])
    return probs


def _stacked_softmax_topk(
    flat_logits: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Softmax + top-k over stacked ``[N, E]`` logits, block by block.

    Returns ``(probs, top_scores, top_experts)`` exactly as computing the
    whole array at once would — both ops are row-local — while each block's
    temporaries stay cache-resident, which is where the batched path's
    speedup over the per-rank loop comes from at large rank counts.
    """
    n, e = flat_logits.shape
    probs = np.empty_like(flat_logits)
    top_scores = np.empty((n, k), dtype=np.float64)
    top_experts = np.empty((n, k), dtype=np.int64)
    scratch: np.ndarray | None = None
    for b0, b1 in _row_blocks(n, e):
        block = _softmax(flat_logits[b0:b1], out=probs[b0:b1])
        # Inlined ``repro.tensor.ops.topk`` (same ops on the same values,
        # so the selection is bit-identical), with the negation running in
        # a reused scratch buffer instead of a fresh temporary per block.
        if scratch is None or scratch.shape != block.shape:
            scratch = np.empty_like(block)
        np.negative(block, out=scratch)
        idx = np.argpartition(scratch, kth=k - 1, axis=-1)[:, :k]
        part = np.take_along_axis(block, idx, axis=-1)
        order = np.argsort(-part, axis=-1, kind="stable")
        top_experts[b0:b1] = np.take_along_axis(idx, order, axis=-1)
        top_scores[b0:b1] = np.take_along_axis(part, order, axis=-1)
    return probs, top_scores, top_experts


def _segmented_capacity_drop(
    segment_key: np.ndarray, scores: np.ndarray, capacity: int, num_segments: int
) -> np.ndarray:
    """Drop mask keeping only each segment's ``capacity`` best scores.

    Segments are ranked by descending score with ties broken by original
    position (stable sort), the same rule PFT construction applies.
    :class:`SwitchTop1Policy` keys segments by composite ``rank * E +
    expert``, so one pass drops every rank's overflow independently.
    """
    order = np.lexsort((-scores, segment_key))
    sorted_key = segment_key[order]
    counts = np.bincount(sorted_key, minlength=num_segments)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank_in_segment = np.arange(sorted_key.size) - starts[sorted_key]
    drop = np.zeros(segment_key.size, dtype=bool)
    drop[order] = rank_in_segment >= capacity
    return drop


def _batched_z_loss(logits: np.ndarray) -> np.ndarray:
    """Per-rank router z-loss over stacked ``[R, S, E]`` logits.

    The z-loss is the mean squared log-partition of a rank's logits (it
    keeps them small); one vector pass covers every rank.
    """
    r = logits.shape[0]
    if logits.size == 0:
        return np.zeros(r)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.max(axis=-1)
    return np.mean(lse**2, axis=-1)


def _batched_aux_loss(
    probs: np.ndarray, expert_ids: np.ndarray, coef: float
) -> np.ndarray:
    """Per-rank Switch balance loss over stacked arrays, one bincount pass.

    ``probs`` is ``[R, S, E]`` and ``expert_ids`` any ``[R, ...]`` integer
    selection; the per-expert counts of all ranks come from a single
    bincount over composite ``rank * E + expert`` keys.  Each entry is
    ``E * sum_e(f_e * P_e)``, the same formula as ``TopKGate``'s
    differentiable loss.
    """
    r, s, e = probs.shape
    offsets = np.arange(r, dtype=np.int64) * e
    counts = (
        np.bincount(
            (expert_ids.reshape(r, -1) + offsets[:, None]).reshape(-1),
            minlength=r * e,
        )
        .reshape(r, e)
        .astype(np.float64)
    )
    fraction = counts / max(1, expert_ids[0].size)
    # sum/s rather than mean(): bit-identical for s > 0, and 0.0 instead of
    # a NaN-with-warning for zero-token ranks (idle serving slots).
    mean_probs = probs.sum(axis=1) / max(1, s)
    return (mean_probs * fraction).sum(axis=1) * (coef * e)


# ----------------------------------------------------------------------
# The decision object
# ----------------------------------------------------------------------
@dataclass
class RoutingDecision:
    """Everything a router policy decided for one batch of tokens.

    The canonical form is *assignment-level* flat arrays (``token_ids``,
    ``expert_ids``, ``scores``, ``dropped``, all of length ``A``) because not
    every policy emits a rectangular ``[S, k]`` selection (expert-choice
    routing assigns a variable number of experts per token).  Token-choice
    policies additionally provide the familiar ``[S, k]`` views
    (``top_experts`` / ``top_scores`` / ``drop_mask``); these are ``None``
    for assignment-level policies.

    ``dropped`` marks assignments the *policy itself* discards (score
    threshold, policy-level capacity); everything else survives until the
    capacity rule of PFT construction.
    """

    num_tokens: int
    num_experts: int
    token_ids: np.ndarray  # [A] int64, token-major for token-choice policies
    expert_ids: np.ndarray  # [A] int64
    scores: np.ndarray  # [A] float64 combine weights
    dropped: np.ndarray  # [A] bool — dropped by the policy, never dispatched
    probs: np.ndarray  # [S, E] router probabilities (telemetry / analysis)
    aux_loss: float
    z_loss: float
    top_experts: np.ndarray | None = None  # [S, k] view (token-choice only)
    top_scores: np.ndarray | None = None
    drop_mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def num_assignments(self) -> int:
        """Total (token, expert) assignments, dropped ones included."""
        return int(self.token_ids.size)

    @property
    def num_dropped(self) -> int:
        """Assignments the policy itself discarded."""
        return int(self.dropped.sum())

    @property
    def drop_rate(self) -> float:
        """Policy-dropped assignments as a fraction of all assignments."""
        if self.num_assignments == 0:
            return 0.0
        return self.num_dropped / self.num_assignments

    def expert_load(self) -> np.ndarray:
        """Surviving (policy-kept) assignments per expert."""
        return np.bincount(
            self.expert_ids[~self.dropped], minlength=self.num_experts
        ).astype(np.int64)

    def balance_entropy(self) -> float:
        """Normalized entropy of the per-expert load (1.0 = perfectly even)."""
        return load_balance_entropy(self.expert_load())

    # ------------------------------------------------------------------
    @staticmethod
    def to_pfts(
        decisions: "list[RoutingDecision]", max_token_count: int | None = None
    ) -> list:
        """Compile every rank's decision into planner-ready PFTs, one pass.

        Policy-dropped assignments are filtered here, *before* planning, so
        they never enter a :class:`~repro.routing.plan.DispatchPlan`: a
        fully dropped token's combine output row stays exactly zero on both
        the flat and the RBD path.  The surviving assignments of all ranks
        are stacked — tagged with their rank id — and handed to
        :func:`repro.xmoe.pft.build_pft_flat_batched`, which applies the
        capacity rule (``max_token_count``; ``None`` for no cap) and the
        canonical (expert, token) ordering for every rank at once.  A
        single decision is ``to_pfts([decision])[0]``.
        """
        from repro.xmoe.pft import build_pft_flat_batched

        if not decisions:
            return []
        num_experts = decisions[0].num_experts
        for decision in decisions:
            if decision.num_experts != num_experts:
                raise ValueError("all decisions must share num_experts")
        # Stack first, filter the policy-dropped assignments once globally
        # (skipping the filter entirely when no policy drops exist).
        counts = np.array([d.token_ids.size for d in decisions])
        rank_ids = np.repeat(np.arange(len(decisions), dtype=np.int64), counts)
        token_ids = np.concatenate([d.token_ids for d in decisions])
        expert_ids = np.concatenate([d.expert_ids for d in decisions])
        scores = np.concatenate([d.scores for d in decisions])
        if any(d.dropped.any() for d in decisions):
            keep = ~np.concatenate([d.dropped for d in decisions])
            rank_ids, token_ids = rank_ids[keep], token_ids[keep]
            expert_ids, scores = expert_ids[keep], scores[keep]
        return build_pft_flat_batched(
            max_token_count if max_token_count is not None else 2**62,
            rank_ids,
            token_ids,
            expert_ids,
            scores,
            num_experts,
            [d.num_tokens for d in decisions],
        )

    def validate(self) -> None:
        """Internal-consistency checks (used by the test suite)."""
        a = self.token_ids.size
        if not (self.expert_ids.size == self.scores.size == self.dropped.size == a):
            raise AssertionError("assignment arrays disagree on length")
        if a and (self.token_ids.min() < 0 or self.token_ids.max() >= self.num_tokens):
            raise AssertionError("token_ids out of range")
        if a and (self.expert_ids.min() < 0 or self.expert_ids.max() >= self.num_experts):
            raise AssertionError("expert_ids out of range")
        if self.probs.shape != (self.num_tokens, self.num_experts):
            raise AssertionError("probs must be [num_tokens, num_experts]")


# ----------------------------------------------------------------------
# The policy protocol and its implementations
# ----------------------------------------------------------------------
@runtime_checkable
class RouterPolicy(Protocol):
    """A router policy: hidden states in, :class:`RoutingDecision` out.

    ``drops_early`` declares whether the policy discards assignments itself
    (score-threshold or policy-level capacity) — the single invariant
    :class:`repro.moe.gating.TopKGate` asserts on every call.
    """

    name: str
    num_experts: int
    drops_early: bool

    def route_batch(
        self,
        per_rank_hidden: list[np.ndarray],
        step: int | None = None,
        *,
        workspace=None,
    ) -> list[RoutingDecision]:
        """Route every rank's ``[S, H]`` batch (uses the policy's own weight)."""
        ...

    def decide_batch(
        self, logits: np.ndarray, step: int | None = None
    ) -> list[RoutingDecision]:
        """Route from stacked ``[R, S, E]`` logits, one decision per rank.

        The gate-driven entry point: :class:`repro.moe.gating.TopKGate`
        passes its own ``[1, S, E]`` logits.
        """
        ...


class _PolicyBase:
    """Weight/RNG/aux-loss bookkeeping shared by the shipped policies."""

    name: str = ""
    drops_early: bool = False

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        *,
        weight: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        aux_loss_coef: float = 0.01,
        z_loss_coef: float = 0.0,
        seed: int = 0,
    ):
        if num_experts <= 0:
            raise ValueError("num_experts must be positive")
        self.hidden_size = hidden_size
        self.num_experts = num_experts
        self.aux_loss_coef = aux_loss_coef
        self.z_loss_coef = z_loss_coef
        self.seed = seed
        if weight is None and rng is not None:
            std = 1.0 / np.sqrt(hidden_size)
            weight = rng.normal(0.0, std, size=(hidden_size, num_experts))
        self.weight = weight  # None = selection-only (driven by a gate's logits)

    # -- determinism: same (seed, step) -> same generator ---------------
    def _rng(self, step: int | None) -> np.random.Generator:
        if step is None:
            return np.random.default_rng(self.seed)
        return np.random.default_rng((self.seed, int(step)))

    @staticmethod
    def _stacked(logits: np.ndarray) -> tuple[np.ndarray, int, int, int]:
        """``(logits, R, S, E)`` for a stacked ``[R, S, E]`` logits block."""
        logits = np.asarray(logits, dtype=np.float64)
        if logits.ndim != 3:
            raise ValueError(f"expected [R, S, E] logits, got {logits.shape}")
        return (logits, *logits.shape)

    def route_batch(
        self,
        per_rank_hidden: list[np.ndarray],
        step: int | None = None,
        *,
        workspace=None,
    ) -> list[RoutingDecision]:
        """Route every rank's batch through stacked router projections.

        The only routing entry point; one rank is ``R=1``.  Ranks are
        grouped by row count.  Each group's ``[S, H]`` batches are stacked
        into one ``[R_g, S, H]`` block, projected with a single matmul, and
        :meth:`decide_batch` runs the policy's selection vectorized across
        the group's ranks; the decisions come back in rank order.  A rank's
        decision depends only on its own batch and ``(seed, step)``, never
        on which ranks share the call.

        ``workspace`` optionally supplies reusable stacked buffers (any
        object with ``stacked_hidden(rows, cols)`` / ``stacked_logits(rows,
        cols)`` — see :class:`repro.runtime.StepWorkspace`).  Only uniform
        batches (a single group) project into them; the runtime's fused
        warm path reuses the filled hidden buffer as its token stack.
        """
        if self.weight is None:
            raise ValueError(
                f"{type(self).__name__} has no router weight; construct it with "
                "weight=/rng= or drive it from a gate's logits via decide_batch()"
            )
        arrays = [np.asarray(h, dtype=np.float64) for h in per_rank_hidden]
        for hidden in arrays:
            if hidden.ndim != 2 or hidden.shape[1] != self.hidden_size:
                raise ValueError(
                    f"expected [S, {self.hidden_size}] hidden, got {hidden.shape}"
                )
        if not arrays:
            return []
        sizes = [h.shape[0] for h in arrays]
        if len(set(sizes)) == 1:
            return self._route_group(arrays, step, workspace)
        decisions: list[RoutingDecision | None] = [None] * len(arrays)
        for size in dict.fromkeys(sizes):
            ranks = [r for r, s in enumerate(sizes) if s == size]
            group = self._route_group([arrays[r] for r in ranks], step, None)
            for r, decision in zip(ranks, group):
                decisions[r] = decision
        return decisions

    def _route_group(
        self, arrays: list[np.ndarray], step: int | None, workspace
    ) -> list[RoutingDecision]:
        """One stacked projection + :meth:`decide_batch` over equal-size batches."""
        num_ranks, tokens = len(arrays), arrays[0].shape[0]
        rows = num_ranks * tokens
        # One np.matmul over the stacked [R, S, H] block.  The batched axes
        # keep each rank's projection on the exact (S, H) @ (H, E) kernel a
        # single-rank projection hits, so the logits are bit-identical on any
        # BLAS (a flattened (R*S, H) GEMM may pick a different kernel for
        # degenerate shapes and drift in the last ulp).
        if workspace is not None:
            stacked = workspace.stacked_hidden(rows, self.hidden_size)
            np.concatenate(arrays, axis=0, out=stacked)
            out = workspace.stacked_logits(rows, self.num_experts)
        else:
            stacked = np.concatenate(arrays, axis=0)
            out = np.empty((rows, self.num_experts))
        logits = np.matmul(
            stacked.reshape(num_ranks, tokens, self.hidden_size),
            self.weight,
            out=out.reshape(num_ranks, tokens, self.num_experts),
        )
        return self.decide_batch(logits, step=step)

    def _topk_decisions(
        self,
        probs: np.ndarray,
        top_experts: np.ndarray,
        top_scores: np.ndarray,
        drop_mask: np.ndarray,
        z_logits: np.ndarray | None,
        r: int,
        s: int,
    ) -> list[RoutingDecision]:
        """Per-rank decisions from stacked ``[R*S, k]`` top-k arrays.

        Each rank's ``[S, k]`` selection is flattened row-major (token-major
        assignments).  One dtype conversion, one composite-key bincount (aux
        losses), and one vectorized z-loss cover every rank, so assembling R
        decisions costs R dataclass constructions — not R rounds of numpy
        small-ops.  The per-rank arrays are views into the stacked ones.
        """
        e, k = self.num_experts, top_experts.shape[-1]
        probs3 = probs.reshape(r, s, e)
        experts3 = top_experts.reshape(r, s, k)
        scores3 = top_scores.reshape(r, s, k)
        drops3 = drop_mask.reshape(r, s, k)
        experts_flat = top_experts.reshape(r, s * k).astype(np.int64, copy=False)
        scores_flat = top_scores.reshape(r, s * k).astype(np.float64, copy=False)
        drops_flat = drop_mask.reshape(r, s * k).astype(bool, copy=False)
        # One (read-only) token-id pattern shared by every rank's view.
        token_ids = np.repeat(np.arange(s, dtype=np.int64), k)
        aux = _batched_aux_loss(probs3, experts3, self.aux_loss_coef)
        if self.z_loss_coef and z_logits is not None:
            z = self.z_loss_coef * _batched_z_loss(z_logits)
        else:
            z = np.zeros(r)
        return [
            RoutingDecision(
                num_tokens=s,
                num_experts=e,
                token_ids=token_ids,
                expert_ids=experts_flat[i],
                scores=scores_flat[i],
                dropped=drops_flat[i],
                probs=probs3[i],
                aux_loss=float(aux[i]),
                z_loss=float(z[i]),
                top_experts=experts3[i],
                top_scores=scores3[i],
                drop_mask=drops3[i],
            )
            for i in range(r)
        ]


class SoftmaxTopKPolicy(_PolicyBase):
    """The paper's router: softmax over logits, top-k selection.

    With ``score_threshold=True`` the policy additionally marks assignments
    whose *raw* (pre-softmax) logit is negative as dropped — DeepSpeed-MoE's
    rule (§5.6).  With the default ``score_threshold=False`` it never drops
    anything itself: all dropping is capacity-only, applied later during PFT
    construction.  This is the invariant behind
    :class:`repro.moe.gating.DropPolicy`.
    """

    name = "softmax-topk"

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        top_k: int,
        *,
        score_threshold: bool = False,
        **kwargs,
    ):
        super().__init__(hidden_size, num_experts, **kwargs)
        if not (1 <= top_k <= num_experts):
            raise ValueError(f"top_k={top_k} must be in [1, {num_experts}]")
        self.top_k = top_k
        self.score_threshold = score_threshold
        self.drops_early = bool(score_threshold)

    def decide_batch(
        self, logits: np.ndarray, step: int | None = None
    ) -> list[RoutingDecision]:
        """Stacked softmax + top-k over all ranks' logits at once."""
        logits, r, s, e = self._stacked(logits)
        flat = logits.reshape(r * s, e)
        probs, top_scores, top_experts = _stacked_softmax_topk(flat, self.top_k)
        if self.score_threshold:
            drop_mask = np.take_along_axis(flat, top_experts, axis=-1) < 0.0
        else:
            drop_mask = np.zeros_like(top_experts, dtype=bool)
        return self._topk_decisions(
            probs, top_experts, top_scores, drop_mask, logits, r, s
        )


class SwitchTop1Policy(_PolicyBase):
    """Switch-Transformer top-1 routing with exploration noise and capacity.

    Multiplicative noise sampled from ``[1 - eps, 1 + eps)`` perturbs the
    logits before selection (exploration); combine scores still come from
    the noisy softmax, matching the Switch recipe.  Each expert keeps only
    its ``ceil(capacity_factor * S / E)`` best-scoring tokens; the overflow
    is dropped *by the policy* (``drops_early=True``), before any plan is
    built.
    """

    name = "switch-top1"
    drops_early = True

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        *,
        capacity_factor: float = 1.25,
        eps: float = 0.1,
        **kwargs,
    ):
        kwargs.setdefault("z_loss_coef", 1e-3)
        super().__init__(hidden_size, num_experts, **kwargs)
        if capacity_factor <= 0:
            raise ValueError("capacity_factor must be positive")
        self.capacity_factor = capacity_factor
        self.eps = eps

    def decide_batch(
        self, logits: np.ndarray, step: int | None = None
    ) -> list[RoutingDecision]:
        """Stacked noisy top-1 with per-(rank, expert) capacity dropping.

        The exploration noise is drawn once from a fresh ``(seed, step)``
        generator and broadcast across ranks, so every rank sees the same
        values it would see routed alone.  Capacity dropping runs over
        composite ``rank * E + expert`` segments so one lexsort/bincount
        pass covers every rank.
        """
        logits, r, s, e = self._stacked(logits)
        noise = 1.0 - self.eps + self._rng(step).random((s, e)) * (2.0 * self.eps)
        noisy = logits * noise[None, :, :]
        probs, top_scores, top_experts = _stacked_softmax_topk(
            noisy.reshape(r * s, e), 1
        )

        capacity = max(1, math.ceil(self.capacity_factor * s / self.num_experts))
        segment = (
            np.repeat(np.arange(r, dtype=np.int64), s) * self.num_experts
            + top_experts.reshape(-1)
        )
        drop_mask = _segmented_capacity_drop(
            segment, top_scores.reshape(-1), capacity, r * self.num_experts
        )
        return self._topk_decisions(
            probs, top_experts, top_scores, drop_mask.reshape(r * s, 1), noisy, r, s
        )


class NoisyTopKPolicy(_PolicyBase):
    """Top-k over additively perturbed logits, with a router z-loss.

    Shazeer-style exploration: per-(token, expert) Gaussian noise is added
    to the logits before the softmax and top-k selection.  No policy-level
    dropping — like the default router, all dropping is capacity-only.
    """

    name = "noisy-topk"
    drops_early = False

    def __init__(
        self,
        hidden_size: int,
        num_experts: int,
        top_k: int,
        *,
        noise_std: float = 1.0,
        **kwargs,
    ):
        kwargs.setdefault("z_loss_coef", 1e-3)
        super().__init__(hidden_size, num_experts, **kwargs)
        if not (1 <= top_k <= num_experts):
            raise ValueError(f"top_k={top_k} must be in [1, {num_experts}]")
        self.top_k = top_k
        self.noise_std = noise_std

    def decide_batch(
        self, logits: np.ndarray, step: int | None = None
    ) -> list[RoutingDecision]:
        """Stacked noisy top-k: one perturbation draw, one top-k, all ranks.

        Every rank's additive noise comes from a fresh ``(seed, step)``
        generator — drawn once here and broadcast.
        """
        logits, r, s, e = self._stacked(logits)
        noise = self._rng(step).normal(0.0, self.noise_std, size=(s, e))
        noisy = logits + noise[None, :, :]
        probs, top_scores, top_experts = _stacked_softmax_topk(
            noisy.reshape(r * s, e), self.top_k
        )
        return self._topk_decisions(
            probs,
            top_experts,
            top_scores,
            np.zeros_like(top_experts, dtype=bool),
            noisy,
            r,
            s,
        )


class ExpertChoicePolicy(_PolicyBase):
    """Expert-choice routing: experts pick tokens, load balance guaranteed.

    The assignment budget is ``S * top_k`` (the same budget a token-choice
    top-k router spends).  It is split across experts so capacities differ
    by at most one token, and every expert takes its top-``capacity`` tokens
    by router probability — so the per-expert load is *never* more than one
    token apart and never exceeds ``ceil(S * top_k / E)``, no matter how
    skewed the token distribution is.  No aux loss is needed: balance holds
    by construction.
    """

    name = "expert-choice"
    drops_early = False

    def __init__(self, hidden_size: int, num_experts: int, top_k: int, **kwargs):
        super().__init__(hidden_size, num_experts, **kwargs)
        if top_k < 1:
            raise ValueError(f"top_k={top_k} must be >= 1")
        self.top_k = top_k

    def decide_batch(
        self, logits: np.ndarray, step: int | None = None
    ) -> list[RoutingDecision]:
        """Stacked expert choice: one token-axis argsort covers every rank.

        The per-expert token ranking runs as a single stable argsort along
        the token axis, so each (rank, expert) column sorts independently
        (ties broken by token id); capacities depend only on the (shared)
        token count, so the same mask selects every rank's assignments.
        """
        logits, r, s, e = self._stacked(logits)
        probs = _stacked_softmax(logits.reshape(r * s, e)).reshape(r, s, e)

        budget = s * self.top_k
        caps = np.full(e, budget // e, dtype=np.int64)
        caps[: budget % e] += 1
        np.minimum(caps, s, out=caps)

        order = np.argsort(-probs, axis=1, kind="stable")  # [R, S, E]
        max_cap = int(caps.max()) if caps.size else 0
        picked = order[:, :max_cap, :].transpose(0, 2, 1)  # [R, E, max_cap]
        mask = np.arange(max_cap)[None, :] < caps[:, None]  # [E, max_cap]
        token_ids = picked[:, mask].astype(np.int64)  # [R, A]
        # Shared (read-only) across ranks: the capacities are identical.
        expert_ids = np.repeat(np.arange(e, dtype=np.int64), caps)  # [A]
        scores = probs[np.arange(r)[:, None], token_ids, expert_ids[None, :]]
        dropped = np.zeros((r, token_ids.shape[1]), dtype=bool)
        if self.z_loss_coef:
            z = self.z_loss_coef * _batched_z_loss(logits)
        else:
            z = np.zeros(r)

        return [
            RoutingDecision(
                num_tokens=s,
                num_experts=e,
                token_ids=token_ids[i],
                expert_ids=expert_ids,
                scores=scores[i],
                dropped=dropped[i],
                probs=probs[i],
                aux_loss=0.0,  # balance holds by construction
                z_loss=float(z[i]),
            )
            for i in range(r)
        ]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
ROUTER_POLICIES: dict[str, type] = {
    SoftmaxTopKPolicy.name: SoftmaxTopKPolicy,
    SwitchTop1Policy.name: SwitchTop1Policy,
    NoisyTopKPolicy.name: NoisyTopKPolicy,
    ExpertChoicePolicy.name: ExpertChoicePolicy,
}

ROUTER_POLICY_NAMES: tuple[str, ...] = tuple(ROUTER_POLICIES)


def make_policy(
    name: str,
    hidden_size: int,
    num_experts: int,
    top_k: int,
    *,
    capacity_factor: float = 1.25,
    weight: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    seed: int = 0,
    **knobs,
) -> RouterPolicy:
    """Build a registered router policy by name.

    ``weight`` / ``rng`` control the policy's own router projection (leave
    both ``None`` for a selection-only policy driven by a gate's logits).
    Policy-specific knobs (``score_threshold``, ``eps``, ``noise_std``,
    ``aux_loss_coef``, ``z_loss_coef``) pass through ``**knobs``.
    """
    key = name.lower()
    if key not in ROUTER_POLICIES:
        raise KeyError(
            f"unknown router policy {name!r}; available: {sorted(ROUTER_POLICIES)}"
        )
    common = dict(weight=weight, rng=rng, seed=seed, **knobs)
    if key == SwitchTop1Policy.name:
        return SwitchTop1Policy(
            hidden_size, num_experts, capacity_factor=capacity_factor, **common
        )
    return ROUTER_POLICIES[key](hidden_size, num_experts, top_k, **common)


# ----------------------------------------------------------------------
# Workload generation shared by analysis / benchmarks / tests
# ----------------------------------------------------------------------
def skewed_router_tokens(
    rng: np.random.Generator,
    num_tokens: int,
    weight: np.ndarray,
    *,
    skew: float = 1.2,
    boost: float = 4.0,
) -> np.ndarray:
    """Hidden states whose router logits are Zipf-skewed across experts.

    Each token is nudged toward one expert's weight column, with the target
    expert drawn from a Zipf distribution of exponent ``skew`` (``skew=0``
    is uniform).  Token-choice routers concentrate load on the popular
    experts under this workload; expert-choice routing stays balanced.
    """
    hidden_size, num_experts = weight.shape
    hidden = rng.normal(size=(num_tokens, hidden_size))
    if boost == 0.0:
        return hidden
    ranks = np.arange(1, num_experts + 1, dtype=np.float64)
    popularity = ranks ** -float(skew)
    popularity /= popularity.sum()
    targets = rng.choice(num_experts, size=num_tokens, p=popularity)
    directions = weight[:, targets].T  # [S, H]
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return hidden + boost * directions / norms
