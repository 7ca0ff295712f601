"""The Padding-Free Token buffer (PFT) and its construction routine.

The PFT (§4.1.1, Listing 1) replaces the dense ``[S, E, C]`` dispatch mask
and fixed-capacity expert buffers with

* a token buffer ``x`` holding **only** routed tokens, grouped by expert id,
  and
* the *Expert Routing Information arrays* (ERI-arrays):

  - ``token_ids[i]`` — original sequence position of the ``i``-th routed
    token (``dispatch_in[i] = gate_out[token_ids[i]]``),
  - ``expert_ids[i]`` — the expert the ``i``-th routed token goes to,
  - ``tokens_per_expert[e]`` — how many routed tokens target expert ``e``,
  - ``combine_weights[i]`` — the gate probability used to scale this
    token's expert output in the combine stage.

Token dropping is *capacity-only*: within each expert the assignments are
ranked by their gate score and only the top ``max_token_count`` survive —
unlike DeepSpeed-MoE, no assignment is dropped merely for having a negative
raw score (§5.6).

One builder serves every caller: :func:`build_pft_flat_batched` compiles
all ranks' PFTs from stacked assignment arrays in one sort pass, in the
spirit of Appendix B.2's data-layout change (the paper's transposed one-hot
+ outer-axis cumsum gave a 10x speedup of gating + construction; here one
composite-key sort plus a segmented ``arange`` replaces the per-expert
cumsum).  A single rank is the same call with one rank, and
:func:`build_pft` only flattens a rectangular ``[S, k]`` selection in front
of it.  The direct translation of Listing 1 lives in ``tests/helpers.py``
as the test oracle the builder is checked against bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PFT:
    """Padding-Free Token buffer with ERI-arrays.

    ``x`` starts as ``None`` and is assigned by the dispatch / MLP / combine
    stages as the pipeline progresses, mirroring Listing 1 where each stage
    re-binds ``pft.x``.
    """

    token_ids: np.ndarray
    expert_ids: np.ndarray
    tokens_per_expert: np.ndarray
    combine_weights: np.ndarray
    num_source_tokens: int
    x: np.ndarray | None = None
    dropped_assignments: int = 0

    def __post_init__(self) -> None:
        b = self.token_ids.shape[0]
        if self.expert_ids.shape[0] != b or self.combine_weights.shape[0] != b:
            raise ValueError("ERI-arrays must all have the same length B")
        if self.tokens_per_expert.sum() != b:
            raise ValueError(
                f"tokens_per_expert sums to {self.tokens_per_expert.sum()} "
                f"but there are {b} routed tokens"
            )
        if b and not np.all(np.diff(self.expert_ids) >= 0):
            raise ValueError("PFT must be sorted by expert id")

    @classmethod
    def _trusted(
        cls,
        token_ids: np.ndarray,
        expert_ids: np.ndarray,
        tokens_per_expert: np.ndarray,
        combine_weights: np.ndarray,
        num_source_tokens: int,
        dropped_assignments: int,
    ) -> "PFT":
        """Construct without re-checking invariants the caller guarantees.

        Used by :func:`build_pft_flat_batched`, whose output ordering and
        counts hold by construction (and are property-tested against the
        per-rank oracle in ``tests/helpers.py``); the ``__post_init__``
        validation would re-scan every array per rank, which is exactly the
        per-rank overhead the batched builder exists to remove.
        """
        pft = cls.__new__(cls)
        pft.token_ids = token_ids
        pft.expert_ids = expert_ids
        pft.tokens_per_expert = tokens_per_expert
        pft.combine_weights = combine_weights
        pft.num_source_tokens = num_source_tokens
        pft.x = None
        pft.dropped_assignments = dropped_assignments
        return pft

    @property
    def num_routed_tokens(self) -> int:
        """``B``: the number of surviving (token, expert) assignments."""
        return int(self.token_ids.shape[0])

    @property
    def num_experts(self) -> int:
        """Number of experts the ERI-arrays are sized for."""
        return int(self.tokens_per_expert.shape[0])

    def expert_offsets(self) -> np.ndarray:
        """Start offsets of each expert's segment in the token buffer."""
        return np.concatenate([[0], np.cumsum(self.tokens_per_expert)])

    def buffer_bytes(self, hidden_size: int, dtype_bytes: int = 2) -> int:
        """Bytes of the (padding-free) dispatched token buffer."""
        return self.num_routed_tokens * hidden_size * dtype_bytes

    def eri_bytes(self) -> int:
        """Bytes of the ERI metadata arrays."""
        return int(
            self.token_ids.nbytes
            + self.expert_ids.nbytes
            + self.tokens_per_expert.nbytes
            + self.combine_weights.nbytes
        )

    def validate(self) -> None:
        """Check internal consistency (used by property-based tests)."""
        counts = np.bincount(self.expert_ids, minlength=self.num_experts)
        if not np.array_equal(counts, self.tokens_per_expert):
            raise AssertionError("tokens_per_expert does not match expert_ids")
        if self.token_ids.size and (
            self.token_ids.min() < 0 or self.token_ids.max() >= self.num_source_tokens
        ):
            raise AssertionError("token_ids out of range")


def build_pft(
    max_token_count: int,
    top_experts: np.ndarray,
    combine_weights: np.ndarray,
    num_experts: int,
) -> PFT:
    """PFT construction from a rectangular ``[S, k]`` routing selection.

    Flattens the selection row-major (token ``t``'s ``k`` assignments are
    consecutive) and builds it as a single rank with
    :func:`build_pft_flat_batched`.
    """
    top_experts = np.asarray(top_experts, dtype=np.int64)
    combine_weights = np.asarray(combine_weights, dtype=np.float64)
    if top_experts.shape != combine_weights.shape:
        raise ValueError(
            f"top_experts {top_experts.shape} and combine_weights "
            f"{combine_weights.shape} must have the same [S, k] shape"
        )
    s, k = top_experts.shape
    return build_pft_flat_batched(
        max_token_count,
        np.zeros(s * k, dtype=np.int64),
        np.repeat(np.arange(s, dtype=np.int64), k),
        top_experts.reshape(-1),
        combine_weights.reshape(-1),
        num_experts,
        [s],
    )[0]


def build_pft_flat_batched(
    max_token_count: int,
    rank_ids: np.ndarray,
    token_ids: np.ndarray,
    expert_ids: np.ndarray,
    combine_weights: np.ndarray,
    num_experts: int,
    num_source_tokens: list[int],
) -> list[PFT]:
    """All ranks' PFTs from stacked assignment arrays, in one sort pass.

    Every rank's assignments arrive concatenated, tagged with their
    group-local rank in ``rank_ids``.  Token dropping is capacity-only:
    within each (rank, expert) segment the assignments are ranked by
    descending combine weight (ties by position) and only the best
    ``max_token_count`` survive.  The survivors are ordered by (expert,
    token), ties by position.  Both the capacity rule and the ordering run
    **once** over composite ``rank * num_experts + expert`` segments
    instead of once per rank; because the rank is the most significant sort
    key and every sort is stable, each rank's PFT is exactly what building
    it alone would give (property-tested against the per-rank oracle in
    ``tests/test_step_runtime.py``).  ``num_source_tokens`` gives each
    rank's source token count (its length fixes the number of ranks, so
    trailing ranks with zero assignments still get an empty PFT).
    """
    if max_token_count <= 0:
        raise ValueError("max_token_count must be positive")
    num_ranks = len(num_source_tokens)
    rank_ids = np.asarray(rank_ids, dtype=np.int64)
    token_ids = np.asarray(token_ids, dtype=np.int64)
    expert_ids = np.asarray(expert_ids, dtype=np.int64)
    weights = np.asarray(combine_weights, dtype=np.float64)
    if (
        not (rank_ids.shape == token_ids.shape == expert_ids.shape == weights.shape)
        or rank_ids.ndim != 1
    ):
        raise ValueError("assignment arrays must be 1-D and of equal length")
    if rank_ids.size and (rank_ids.min() < 0 or rank_ids.max() >= num_ranks):
        raise ValueError("rank_ids out of range for num_source_tokens")

    # ---- capacity rule over composite (rank, expert) segments ----------
    # Equivalent to ``np.lexsort((-weights, segment))`` but much faster:
    # numpy's *stable* sorts (which lexsort uses per key) are timsort for
    # float64/int64, while the default introsort is ~5x quicker — and on an
    # *injective* integer key introsort is deterministic, so stability is
    # reconstructed exactly by folding the tie-break index into the key.
    segment = rank_ids * num_experts + expert_ids
    num_segments = num_ranks * num_experts
    n = segment.size
    if n:
        # Descending weights with ties broken by index.  Introsort is ~5x
        # faster than a stable sort here and agrees with it whenever all
        # weights are distinct; equal weights (adjacent after sorting, so
        # one vectorized compare detects them) fall back to the stable sort.
        neg = -weights
        worder = np.argsort(neg)
        sorted_neg = neg[worder]
        if np.any(sorted_neg[1:] == sorted_neg[:-1]):
            worder = np.argsort(neg, kind="stable")
        if num_segments <= 2**62 // max(n, 1):
            # (segment, position-in-worder) as one injective int64 key.
            order = worder[np.argsort(segment[worder] * n + np.arange(n))]
        else:  # pathological segment counts: keep the exact slow path
            order = np.lexsort((-weights, segment))
        sorted_segments = segment[order]
        seg_counts = np.bincount(sorted_segments, minlength=num_segments)
        starts = np.concatenate([[0], np.cumsum(seg_counts)[:-1]])
        rank_in_expert = np.arange(n) - starts[sorted_segments]
        keep = np.zeros(n, dtype=bool)
        keep[order] = rank_in_expert < max_token_count
    else:
        keep = np.zeros(0, dtype=bool)
    dropped_per_rank = np.bincount(rank_ids[~keep], minlength=num_ranks)

    # ---- canonical (rank, expert, token) ordering, one sort ------------
    kept_idx = np.flatnonzero(keep)
    kept_segment = segment[kept_idx]
    kept_token = token_ids[kept_idx]
    token_span = int(max(num_source_tokens)) + 1 if num_source_tokens else 1
    in_range = not kept_token.size or (
        kept_token.min() >= 0 and kept_token.max() < token_span
    )
    final: np.ndarray | None = None
    if in_range and num_segments <= 2**62 // max(token_span, 1):
        key = kept_segment * token_span + kept_token
        final = np.argsort(key)  # injective unless (rank, expert, token) repeats
        sorted_key = key[final]
        if kept_token.size and np.any(sorted_key[1:] == sorted_key[:-1]):
            final = None  # duplicate assignments: need the stable tie-break
    if final is None:
        final = np.lexsort((kept_token, kept_segment))
    ordered = kept_idx[final]  # one composed gather per array
    kept_segment = kept_segment[final]
    kept_token = kept_token[final]
    kept_expert = expert_ids[ordered]
    kept_weight = weights[ordered]

    tokens_per_expert = (
        np.bincount(kept_segment, minlength=num_segments)
        .astype(np.int64)
        .reshape(num_ranks, num_experts)
    )
    offsets = np.concatenate([[0], np.cumsum(tokens_per_expert.sum(axis=1))])

    return [
        PFT._trusted(
            token_ids=kept_token[offsets[r] : offsets[r + 1]],
            expert_ids=kept_expert[offsets[r] : offsets[r + 1]],
            tokens_per_expert=tokens_per_expert[r],
            combine_weights=kept_weight[offsets[r] : offsets[r + 1]],
            num_source_tokens=int(num_source_tokens[r]),
            dropped_assignments=int(dropped_per_rank[r]),
        )
        for r in range(num_ranks)
    ]
