"""Tests for the expert bank's padded and sequential execution paths.

``forward_sequential`` is one autograd node; it is checked against finite
differences and, bit for bit, against the per-expert chain of autograd ops
in ``tests/helpers.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.moe import ExpertBank, MoETransformerLM, SyntheticLMDataset, TransformerConfig
from repro.tensor import Tensor
from repro.xmoe.pipeline import PaddingFreeMoELayer
from tests.helpers import reference_forward_expert, reference_forward_sequential
from tests.test_tensor_autograd import numerical_grad

ACTIVATIONS = ("silu", "relu", "gelu")


@pytest.fixture
def bank():
    return ExpertBank(4, 8, 6, rng=np.random.default_rng(0))


class TestExpertBank:
    def test_param_shapes(self, bank):
        assert bank.w1.shape == (4, 8, 6)
        assert bank.w2.shape == (4, 6, 8)
        assert bank.params_per_expert == 2 * 8 * 6

    def test_forward_expert_matches_manual(self, bank, rng):
        x = rng.normal(size=(5, 8))
        out = reference_forward_expert(bank, 1, Tensor(x)).data
        h = x @ bank.w1.data[1]
        h = h / (1 + np.exp(-h))
        np.testing.assert_allclose(out, h @ bank.w2.data[1])

    def test_padded_and_sequential_agree(self, bank, rng):
        """The padded batched path and the sequential path must produce the
        same outputs for the same token-to-expert assignment."""
        capacity = 3
        counts = np.array([2, 0, 3, 1])
        tokens = rng.normal(size=(int(counts.sum()), 8))
        # Build padded [E, C, H] buffer.
        padded = np.zeros((4, capacity, 8))
        offset = 0
        for e, c in enumerate(counts):
            padded[e, :c] = tokens[offset : offset + c]
            offset += c
        padded_out = bank.forward_padded(Tensor(padded)).data
        seq_out = bank.forward_sequential(Tensor(tokens), counts).data
        offset = 0
        for e, c in enumerate(counts):
            np.testing.assert_allclose(
                seq_out[offset : offset + c], padded_out[e, :c], atol=1e-12
            )
            offset += c

    def test_sequential_requires_matching_counts(self, bank, rng):
        tokens = Tensor(rng.normal(size=(5, 8)))
        with pytest.raises(ValueError):
            bank.forward_sequential(tokens, np.array([1, 1, 1, 1]))  # sums to 4
        with pytest.raises(ValueError):
            bank.forward_sequential(tokens, np.array([5, 0, 0]))  # wrong length

    def test_padded_shape_validation(self, bank, rng):
        with pytest.raises(ValueError):
            bank.forward_padded(Tensor(rng.normal(size=(3, 2, 8))))

    def test_empty_experts_skip_gemm(self, bank, rng):
        counts = np.array([0, 4, 0, 0])
        tokens = Tensor(rng.normal(size=(4, 8)))
        out = bank.forward_sequential(tokens, counts)
        assert out.shape == (4, 8)

    def test_all_empty_returns_empty(self, bank):
        out = bank.forward_sequential(Tensor(np.zeros((0, 8))), np.zeros(4, dtype=int))
        assert out.shape == (0, 8)

    def test_activation_options(self, rng):
        counts = np.array([2, 1])
        for act in ACTIVATIONS:
            bank = ExpertBank(2, 4, 3, rng=np.random.default_rng(0), activation=act)
            out = bank.forward_sequential(Tensor(rng.normal(size=(3, 4))), counts)
            assert out.shape == (3, 4)
        bank = ExpertBank(2, 4, 3, activation="bogus")
        with pytest.raises(ValueError):
            bank.forward_sequential(Tensor(rng.normal(size=(3, 4))), counts)


def _run(forward, bank, tokens0, counts, upstream):
    """Output bytes and the bytes of the grads of (tokens, w1, w2), None if unset."""
    bank.w1.grad = bank.w2.grad = None
    tokens = Tensor(tokens0.copy(), requires_grad=True)
    out = forward(bank, tokens, counts)
    loss = (out * Tensor(upstream)).sum()
    if loss.requires_grad:
        loss.backward()
    grads = (tokens.grad, bank.w1.grad, bank.w2.grad)
    return out.data.tobytes(), [None if g is None else g.tobytes() for g in grads]


class TestFusedSequentialNode:
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_gradients_match_finite_differences(self, rng, activation):
        """Empty experts at both ends and in the middle of the buffer."""
        counts = np.array([0, 2, 0, 0, 3, 1, 0])
        bank = ExpertBank(7, 4, 3, rng=np.random.default_rng(5), activation=activation)
        tokens = Tensor(rng.normal(size=(int(counts.sum()), 4)), requires_grad=True)
        upstream = rng.normal(size=tokens.shape)

        def loss_value():
            out = bank.forward_sequential(Tensor(tokens.data), counts)
            return float((out.data * upstream).sum())

        (bank.forward_sequential(tokens, counts) * Tensor(upstream)).sum().backward()
        for param in (tokens, bank.w1, bank.w2):
            numeric = numerical_grad(lambda _: loss_value(), param.data)
            np.testing.assert_allclose(param.grad, numeric, atol=1e-6, rtol=1e-5)
        # Experts without tokens get exactly zero weight gradients.
        for e in np.flatnonzero(counts == 0):
            assert not bank.w1.grad[e].any() and not bank.w2.grad[e].any()

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 4), min_size=1, max_size=6),
        activation=st.sampled_from(ACTIVATIONS),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_per_expert_chain(self, counts, activation, seed):
        """Output and all three gradients equal the oracle byte for byte,
        including zero-token experts and the all-empty buffer."""
        rng = np.random.default_rng(seed)
        counts = np.array(counts)
        bank = ExpertBank(len(counts), 5, 3, rng=rng, activation=activation)
        tokens0 = rng.normal(size=(int(counts.sum()), 5))
        upstream = rng.normal(size=tokens0.shape)
        fused = _run(ExpertBank.forward_sequential, bank, tokens0, counts, upstream)
        reference = _run(reference_forward_sequential, bank, tokens0, counts, upstream)
        assert fused == reference

    def test_one_node_with_tokens_and_weights_as_parents(self, bank, rng):
        tokens = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
        out = bank.forward_sequential(tokens, np.array([2, 0, 3, 1]))
        assert len(out._parents) == 3
        assert all(p is q for p, q in zip(out._parents, (tokens, bank.w1, bank.w2)))

    def test_loss_tape_size_does_not_grow_with_expert_count(self):
        """Timing-free guard: the number of tensors reachable from the LM
        loss is the same for 8, 32 and 64 experts."""

        def tape_size(num_experts):
            config = TransformerConfig(
                vocab_size=32,
                hidden_size=16,
                ffn_hidden_size=8,
                num_experts=num_experts,
                top_k=2,
                num_layers=2,
                seq_length=32,
            )
            model = MoETransformerLM(
                config, lambda g, e, c: PaddingFreeMoELayer(g, e, c), seed=0
            )
            loss, _ = model.loss(SyntheticLMDataset(32, 32, seed=1).sample_sequence())
            seen, stack = set(), [loss]
            while stack:
                node = stack.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    stack.extend(node._parents)
            return len(seen)

        sizes = [tape_size(e) for e in (8, 32, 64)]
        assert sizes[0] == sizes[1] == sizes[2], sizes
