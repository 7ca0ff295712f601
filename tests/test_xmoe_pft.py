"""Tests for the PFT data structure and its construction (Listing 1)."""

import numpy as np
import pytest

from repro.xmoe import build_pft
from repro.xmoe.pft import PFT
from tests.helpers import build_pft_reference


def random_routing(rng, s=64, e=16, k=4):
    """Random top-k routing decisions with distinct experts per token."""
    top_experts = np.stack(
        [rng.choice(e, size=k, replace=False) for _ in range(s)], axis=0
    )
    weights = rng.uniform(0.01, 1.0, size=(s, k))
    return top_experts, weights


class TestPFTConstruction:
    def test_reference_and_optimized_agree(self, rng):
        top_experts, weights = random_routing(rng)
        for cap in (1, 3, 8, 100):
            a = build_pft(cap, top_experts, weights, 16)
            b = build_pft_reference(cap, top_experts, weights, 16)
            np.testing.assert_array_equal(a.token_ids, b.token_ids)
            np.testing.assert_array_equal(a.expert_ids, b.expert_ids)
            np.testing.assert_array_equal(a.tokens_per_expert, b.tokens_per_expert)
            np.testing.assert_allclose(a.combine_weights, b.combine_weights)

    def test_no_drops_with_large_capacity(self, rng):
        top_experts, weights = random_routing(rng, s=32, e=8, k=3)
        pft = build_pft(1000, top_experts, weights, 8)
        assert pft.num_routed_tokens == 32 * 3
        assert pft.dropped_assignments == 0

    def test_capacity_enforced_per_expert(self, rng):
        top_experts, weights = random_routing(rng, s=128, e=4, k=2)
        pft = build_pft(10, top_experts, weights, 4)
        assert (pft.tokens_per_expert <= 10).all()

    def test_dropping_keeps_highest_scores(self):
        """Within an expert, surviving tokens are those with the highest
        combine weights — X-MoE ranks by gate score before dropping."""
        top_experts = np.zeros((6, 1), dtype=np.int64)  # all to expert 0
        weights = np.array([[0.1], [0.9], [0.5], [0.7], [0.2], [0.8]])
        pft = build_pft(3, top_experts, weights, 4)
        assert pft.num_routed_tokens == 3
        assert set(pft.token_ids.tolist()) == {1, 5, 3}

    def test_sorted_by_expert(self, rng):
        top_experts, weights = random_routing(rng, s=100, e=12, k=4)
        pft = build_pft(20, top_experts, weights, 12)
        assert (np.diff(pft.expert_ids) >= 0).all()

    def test_tokens_per_expert_matches_histogram(self, rng):
        top_experts, weights = random_routing(rng)
        pft = build_pft(5, top_experts, weights, 16)
        np.testing.assert_array_equal(
            pft.tokens_per_expert, np.bincount(pft.expert_ids, minlength=16)
        )

    def test_combine_weights_follow_token_expert_pairs(self, rng):
        top_experts, weights = random_routing(rng, s=20, e=8, k=2)
        pft = build_pft(100, top_experts, weights, 8)
        for i in range(pft.num_routed_tokens):
            t, e = pft.token_ids[i], pft.expert_ids[i]
            slot = np.flatnonzero(top_experts[t] == e)[0]
            assert pft.combine_weights[i] == pytest.approx(weights[t, slot])

    def test_empty_routing(self):
        pft = build_pft(4, np.zeros((0, 2), dtype=int), np.zeros((0, 2)), 8)
        assert pft.num_routed_tokens == 0
        assert pft.tokens_per_expert.sum() == 0

    def test_invalid_capacity_rejected(self, rng):
        top_experts, weights = random_routing(rng)
        with pytest.raises(ValueError):
            build_pft(0, top_experts, weights, 16)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            build_pft(4, np.zeros((4, 2), dtype=int), np.zeros((4, 3)), 8)


class TestPFTObject:
    def test_validate_passes_on_constructed(self, rng):
        top_experts, weights = random_routing(rng)
        pft = build_pft(6, top_experts, weights, 16)
        pft.validate()

    def test_buffer_and_eri_bytes(self, rng):
        top_experts, weights = random_routing(rng, s=16, e=8, k=2)
        pft = build_pft(100, top_experts, weights, 8)
        assert pft.buffer_bytes(hidden_size=64, dtype_bytes=2) == 32 * 64 * 2
        assert pft.eri_bytes() > 0
        # The ERI metadata is tiny relative to the token buffer.
        assert pft.eri_bytes() < pft.buffer_bytes(64)

    def test_expert_offsets(self, rng):
        top_experts, weights = random_routing(rng)
        pft = build_pft(100, top_experts, weights, 16)
        offsets = pft.expert_offsets()
        assert offsets[0] == 0
        assert offsets[-1] == pft.num_routed_tokens
        np.testing.assert_array_equal(np.diff(offsets), pft.tokens_per_expert)

    def test_inconsistent_pft_rejected(self):
        with pytest.raises(ValueError):
            PFT(
                token_ids=np.array([0, 1]),
                expert_ids=np.array([1, 0]),  # not sorted
                tokens_per_expert=np.array([1, 1]),
                combine_weights=np.array([0.5, 0.5]),
                num_source_tokens=2,
            )
        with pytest.raises(ValueError):
            PFT(
                token_ids=np.array([0, 1]),
                expert_ids=np.array([0, 1]),
                tokens_per_expert=np.array([1, 2]),  # sums to 3 != 2
                combine_weights=np.array([0.5, 0.5]),
                num_source_tokens=2,
            )
