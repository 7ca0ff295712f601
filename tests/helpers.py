"""Plain (non-conftest) helpers shared by test modules.

Besides small accounting helpers this module holds the repo's one routing
test oracle: a short per-rank reference for each shipped router policy
(:func:`reference_route` / :func:`reference_decide`) and for PFT
construction (:func:`reference_pft`, plus :func:`build_pft_reference`, the
direct translation of the paper's Listing 1).  Production code routes and
builds PFTs only through the rank-batched ``route_batch`` / ``decide_batch``
/ ``RoutingDecision.to_pfts`` path; the tests check that path against this
oracle bit for bit, and ``benchmarks/test_step_runtime_micro.py`` times the
oracle's per-rank loop as its baseline.

It also holds the expert-stage oracle: :func:`reference_forward_sequential`
runs a padding-free buffer through an :class:`~repro.moe.ExpertBank` as a
chain of per-expert autograd ops (slice, GEMM, activation, GEMM, concat),
against which the bank's one-node ``forward_sequential`` is checked bit for
bit.

And the combine oracle: :func:`reference_combine` folds weighted expert
outputs token by token in plain Python loops, sharing no code with the
``SegmentFold`` that both the engine and the fused executor run.
"""

from __future__ import annotations

import math

import numpy as np

from repro.routing.policies import RoutingDecision
from repro.tensor import Tensor, ops
from repro.tensor.ops import topk
from repro.xmoe.pft import PFT


def inter_node_bytes(stats, op_names) -> float:
    """Bytes the named ops moved over inter-node (or cross-rack) links."""
    from repro.cluster.topology import LinkTier

    total = 0.0
    for event in stats.events:
        if event.op in op_names:
            total += event.bytes_by_tier.get(LinkTier.INTER_NODE, 0.0)
            total += event.bytes_by_tier.get(LinkTier.CROSS_RACK, 0.0)
    return total


# ----------------------------------------------------------------------
# Routing oracle: one rank at a time
# ----------------------------------------------------------------------
def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=-1, keepdims=True)
    return shifted


def _aux_loss(policy, probs: np.ndarray, expert_ids: np.ndarray) -> float:
    """Switch balance loss ``coef * E * sum_e(f_e * P_e)`` of one rank."""
    counts = np.bincount(
        expert_ids.reshape(-1), minlength=policy.num_experts
    ).astype(np.float64)
    fraction = counts / max(1, expert_ids.size)
    mean_probs = probs.sum(axis=0) / max(1, probs.shape[0])
    return float((mean_probs * fraction).sum() * (policy.aux_loss_coef * policy.num_experts))


def _z_loss(policy, logits: np.ndarray) -> float:
    """``coef * mean(logsumexp(logits) ** 2)`` of one rank (0 when coef is 0)."""
    if not policy.z_loss_coef or logits.size == 0:
        return 0.0
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1)) + logits.max(axis=-1)
    return policy.z_loss_coef * float(np.mean(lse**2))


def _topk_decision(policy, probs, top_experts, top_scores, drop_mask, z_logits):
    """Flatten a rectangular ``[S, k]`` selection row-major into a decision."""
    s, k = top_experts.shape
    return RoutingDecision(
        num_tokens=s,
        num_experts=policy.num_experts,
        token_ids=np.repeat(np.arange(s, dtype=np.int64), k),
        expert_ids=top_experts.reshape(-1).astype(np.int64),
        scores=top_scores.reshape(-1).astype(np.float64),
        dropped=drop_mask.reshape(-1).astype(bool),
        probs=probs,
        aux_loss=_aux_loss(policy, probs, top_experts),
        z_loss=_z_loss(policy, z_logits),
        top_experts=top_experts,
        top_scores=top_scores,
        drop_mask=drop_mask,
    )


def reference_decide(policy, logits: np.ndarray, step: int | None = None):
    """One rank's :class:`RoutingDecision` from its ``[S, E]`` logits.

    Per-rank versions of the four shipped policies' selection rules, with
    noise drawn from the policy's fresh ``(seed, step)`` generator.
    """
    logits = np.asarray(logits, dtype=np.float64)
    s, e = logits.shape
    if policy.name == "softmax-topk":
        probs = _softmax(logits)
        top_scores, top_experts = topk(probs, policy.top_k, axis=-1)
        if policy.score_threshold:
            drop_mask = np.take_along_axis(logits, top_experts, axis=-1) < 0.0
        else:
            drop_mask = np.zeros_like(top_experts, dtype=bool)
        return _topk_decision(policy, probs, top_experts, top_scores, drop_mask, logits)

    if policy.name == "switch-top1":
        noise = 1.0 - policy.eps + policy._rng(step).random(logits.shape) * (
            2.0 * policy.eps
        )
        noisy = logits * noise
        probs = _softmax(noisy)
        top_scores, top_experts = topk(probs, 1, axis=-1)
        # Each expert keeps its ceil(c * S / E) best scores (ties: position).
        capacity = max(1, math.ceil(policy.capacity_factor * s / e))
        experts, scores = top_experts.reshape(-1), top_scores.reshape(-1)
        order = np.lexsort((-scores, experts))
        starts = np.concatenate([[0], np.cumsum(np.bincount(experts, minlength=e))])
        rank_in_expert = np.arange(s) - starts[experts[order]]
        drop_mask = np.zeros(s, dtype=bool)
        drop_mask[order] = rank_in_expert >= capacity
        return _topk_decision(
            policy, probs, top_experts, top_scores, drop_mask.reshape(s, 1), noisy
        )

    if policy.name == "noisy-topk":
        noisy = logits + policy._rng(step).normal(0.0, policy.noise_std, size=logits.shape)
        probs = _softmax(noisy)
        top_scores, top_experts = topk(probs, policy.top_k, axis=-1)
        drop_mask = np.zeros_like(top_experts, dtype=bool)
        return _topk_decision(policy, probs, top_experts, top_scores, drop_mask, noisy)

    if policy.name == "expert-choice":
        probs = _softmax(logits)
        budget = s * policy.top_k
        caps = np.minimum(np.full(e, budget // e) + (np.arange(e) < budget % e), s)
        order = np.argsort(-probs, axis=0, kind="stable")  # each expert's ranking
        token_ids = np.concatenate(
            [order[: caps[x], x] for x in range(e)]
        ).astype(np.int64)
        expert_ids = np.repeat(np.arange(e, dtype=np.int64), caps)
        return RoutingDecision(
            num_tokens=s,
            num_experts=e,
            token_ids=token_ids,
            expert_ids=expert_ids,
            scores=probs[token_ids, expert_ids],
            dropped=np.zeros(token_ids.size, dtype=bool),
            probs=probs,
            aux_loss=0.0,
            z_loss=_z_loss(policy, logits),
        )

    raise ValueError(f"no reference for router policy {policy.name!r}")


def reference_route(policy, hidden: np.ndarray, step: int | None = None):
    """One rank's decision: its own ``[S, H] @ [H, E]`` projection, then decide."""
    return reference_decide(policy, np.asarray(hidden, dtype=np.float64) @ policy.weight, step)


# ----------------------------------------------------------------------
# PFT oracle: one rank at a time
# ----------------------------------------------------------------------
def _assemble_pft(token_ids, expert_ids, weights, keep, num_experts, num_source_tokens):
    """Drop the non-kept assignments and order the survivors by (expert, token)."""
    dropped = int((~keep).sum())
    token_ids, expert_ids, weights = token_ids[keep], expert_ids[keep], weights[keep]
    order = np.lexsort((token_ids, expert_ids))
    expert_ids = expert_ids[order]
    return PFT(
        token_ids=token_ids[order],
        expert_ids=expert_ids,
        tokens_per_expert=np.bincount(expert_ids, minlength=num_experts).astype(np.int64),
        combine_weights=weights[order],
        num_source_tokens=num_source_tokens,
        dropped_assignments=dropped,
    )


def reference_pft_flat(
    max_token_count, token_ids, expert_ids, weights, num_experts, num_source_tokens
):
    """One rank's PFT from flat assignment arrays (capacity-only dropping).

    Within each expert, assignments rank by descending weight (ties by
    position) and only the best ``max_token_count`` survive.
    """
    if max_token_count <= 0:
        raise ValueError("max_token_count must be positive")
    token_ids = np.asarray(token_ids, dtype=np.int64)
    expert_ids = np.asarray(expert_ids, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (token_ids.shape == expert_ids.shape == weights.shape) or token_ids.ndim != 1:
        raise ValueError("assignment arrays must be 1-D and of equal length")
    order = np.lexsort((-weights, expert_ids))
    sorted_experts = expert_ids[order]
    counts = np.bincount(sorted_experts, minlength=num_experts)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    rank_in_expert = np.arange(sorted_experts.size) - starts[sorted_experts]
    keep = np.zeros(expert_ids.size, dtype=bool)
    keep[order] = rank_in_expert < max_token_count
    return _assemble_pft(token_ids, expert_ids, weights, keep, num_experts, num_source_tokens)


def reference_pft(decision, max_token_count: int | None = None):
    """One rank's PFT from its decision: policy drops first, then capacity."""
    keep = ~decision.dropped
    return reference_pft_flat(
        max_token_count if max_token_count is not None else 2**62,
        decision.token_ids[keep],
        decision.expert_ids[keep],
        decision.scores[keep],
        decision.num_experts,
        decision.num_tokens,
    )


def build_pft_reference(max_token_count, top_experts, combine_weights, num_experts):
    """Direct translation of Listing 1's ``PFT_construction`` for ``[S, k]`` input.

    Assignments are ranked by descending gate score, a one-hot cumsum down
    the ranked list gives each assignment's rank within its expert, and
    only the best ``max_token_count`` per expert are retained.
    """
    if max_token_count <= 0:
        raise ValueError("max_token_count must be positive")
    top_experts = np.asarray(top_experts, dtype=np.int64)
    s, k = top_experts.shape
    token_ids = np.repeat(np.arange(s, dtype=np.int64), k)
    expert_ids = top_experts.reshape(-1)
    weights = np.asarray(combine_weights, dtype=np.float64).reshape(-1)

    order = np.argsort(-weights, kind="stable")
    sorted_experts = expert_ids[order]
    one_hot = np.zeros((sorted_experts.size, num_experts), dtype=np.int64)
    one_hot[np.arange(sorted_experts.size), sorted_experts] = 1
    rank_in_expert = one_hot.cumsum(axis=0)[np.arange(sorted_experts.size), sorted_experts]
    keep = np.zeros(expert_ids.size, dtype=bool)
    keep[order] = rank_in_expert <= max_token_count
    return _assemble_pft(token_ids, expert_ids, weights, keep, num_experts, s)


# ----------------------------------------------------------------------
# Expert-stage oracle: one autograd chain per expert
# ----------------------------------------------------------------------
def reference_forward_expert(bank, expert_id: int, tokens: Tensor) -> Tensor:
    """Run one expert's two-layer FFN over ``tokens`` ``[n, H]``."""
    h = tokens @ bank.w1[expert_id]
    h = ops.activate(h, bank.activation)
    return h @ bank.w2[expert_id]


def reference_forward_sequential(bank, tokens: Tensor, tokens_per_expert) -> Tensor:
    """``bank.forward_sequential`` as per-expert slices joined by ``concat``."""
    tokens_per_expert = np.asarray(tokens_per_expert, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(tokens_per_expert)])
    outputs: list[Tensor] = []
    for e in range(bank.num_experts):
        lo, hi = int(offsets[e]), int(offsets[e + 1])
        if hi == lo:
            continue
        outputs.append(reference_forward_expert(bank, e, tokens[lo:hi]))
    if not outputs:
        return Tensor(np.zeros((0, bank.hidden_size)))
    return ops.concat(outputs, axis=0)


# ----------------------------------------------------------------------
# Combine oracle: one Python loop per source token
# ----------------------------------------------------------------------
def reference_combine(
    pfts, expert_output, num_tokens_per_rank, hidden, expert_to_rank, rank_to_node
) -> list[np.ndarray]:
    """Fold weighted expert outputs into tokens, one source token at a time.

    ``expert_output(rank, token, expert)`` returns the expert's ``[hidden]``
    output row for that source token.  Each token adds its per-node
    partials in ascending node order; each partial sums ``y * w`` over the
    token's experts on that node in ascending expert order; every sum
    starts from ``+0.0``.  This is the association order every dispatch
    kind promises, written without plans, permutations or folds.
    """
    outputs = []
    for rank, (pft, num_tokens) in enumerate(zip(pfts, num_tokens_per_rank)):
        routed: dict[int, dict[int, list]] = {}
        for t, e, w in zip(pft.token_ids, pft.expert_ids, pft.combine_weights):
            node = int(rank_to_node[expert_to_rank[e]])
            routed.setdefault(int(t), {}).setdefault(node, []).append((int(e), w))
        out = np.zeros((num_tokens, hidden))
        for token, by_node in routed.items():
            total = np.zeros(hidden)
            for node in sorted(by_node):
                partial = np.zeros(hidden)
                for e, w in sorted(by_node[node]):
                    partial = partial + expert_output(rank, token, e) * w
                total = total + partial
            out[token] = total
        outputs.append(out)
    return outputs
