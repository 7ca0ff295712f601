"""Tests for the autograd engine: gradients checked against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, no_grad


def numerical_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued function of an array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = fn(x)
        flat[i] = orig - eps
        f_minus = fn(x)
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_gradient(build_loss, x0: np.ndarray, atol=1e-5):
    """Compare autograd gradient to numerical gradient."""
    x = Tensor(x0.copy(), requires_grad=True)
    loss = build_loss(x)
    loss.backward()
    analytic = x.grad

    def scalar_fn(arr):
        return float(build_loss(Tensor(arr)).data)

    numeric = numerical_grad(scalar_fn, x0.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=1e-4)


class TestBasicOps:
    def test_add_mul_grad(self, rng):
        x0 = rng.normal(size=(3, 4))
        check_gradient(lambda x: ((x * 3.0 + 1.0) * x).sum(), x0)

    def test_matmul_grad(self, rng):
        x0 = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        check_gradient(lambda x: (x @ Tensor(w)).sum(), x0)

    def test_div_pow_grad(self, rng):
        x0 = rng.normal(size=(5,)) + 3.0
        check_gradient(lambda x: ((x**2) / 7.0).sum(), x0)

    def test_broadcast_add_grad(self, rng):
        x0 = rng.normal(size=(1, 4))
        other = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: (x + other).sum(), x0)

    def test_getitem_grad(self, rng):
        x0 = rng.normal(size=(6, 3))
        idx = np.array([0, 2, 2, 5])
        check_gradient(lambda x: (x[idx] ** 2).sum(), x0)

    def test_reshape_transpose_grad(self, rng):
        x0 = rng.normal(size=(4, 6))
        check_gradient(lambda x: (x.reshape(2, 12).T * 2.0).sum(), x0)

    @pytest.mark.parametrize("axes", [(0, -1, 1), (0, -1, -2)])
    def test_transpose_negative_axes_grad(self, rng, axes):
        x0 = rng.normal(size=(2, 3, 4))
        weights = rng.normal(size=x0.transpose(axes).shape)
        check_gradient(lambda x: (x.transpose(*axes) * weights).sum(), x0)

    def test_exp_log_tanh_grad(self, rng):
        x0 = np.abs(rng.normal(size=(4,))) + 0.5
        check_gradient(lambda x: (x.exp() + x.log() + x.tanh()).sum(), x0)

    def test_mean_grad(self, rng):
        x0 = rng.normal(size=(3, 5))
        check_gradient(lambda x: x.mean(), x0)

    def test_sum_axis_keepdims(self, rng):
        x0 = rng.normal(size=(3, 5))
        check_gradient(lambda x: (x.sum(axis=1, keepdims=True) ** 2).sum(), x0)


class TestEngineBehaviour:
    def test_grad_accumulates_across_backward_calls(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x * 2.0).sum().backward()
        first = x.grad.copy()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_shared_subexpression_grad(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = x * 2.0
        loss = (y * y).sum()
        loss.backward()
        np.testing.assert_allclose(x.grad, 8.0 * x.data)

    def test_backward_on_nonscalar_requires_grad_arg(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()
        y.backward(np.ones((2, 2)))
        np.testing.assert_allclose(x.grad, 2.0)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 5.0).sum()
        assert not y.requires_grad

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 3.0).detach()
        assert not y.requires_grad

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_zero_grad(self):
        x = Tensor(np.ones(2), requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None


class TestGradHooks:
    """Observe-only backward hooks (the mechanism ZeRO's reducer keys on)."""

    def test_hook_fires_with_final_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        seen = []
        x.register_grad_hook(lambda g: seen.append(g.copy()))
        y = x * 2.0
        (y + y).sum().backward()  # x consumed twice: hook must see the sum
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], 4.0)
        np.testing.assert_allclose(seen[0], x.grad)

    def test_remove_unregisters(self):
        x = Tensor(np.ones(2), requires_grad=True)
        seen = []
        handle = x.register_grad_hook(lambda g: seen.append(g))
        handle.remove()
        handle.remove()  # idempotent
        (x * 3.0).sum().backward()
        assert seen == []

    def test_requires_grad_required(self):
        with pytest.raises(RuntimeError):
            Tensor(np.ones(2)).register_grad_hook(lambda g: None)


def _build_random_graph(seed: int, plan: list[tuple[int, int, int]]):
    """A reproducible random DAG of elementwise ops over three leaves.

    ``plan`` entries ``(op, i, j)`` combine two existing nodes (by index,
    modulo the current node count), so shared subexpressions and diamond
    shapes arise naturally.  Returns (leaves, all nodes, scalar loss).
    """
    arrays = np.random.default_rng(seed).normal(size=(3, 2, 2))
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    nodes = list(leaves)
    for op, i, j in plan:
        a = nodes[i % len(nodes)]
        b = nodes[j % len(nodes)]
        if op % 3 == 0:
            nodes.append(a + b)
        elif op % 3 == 1:
            nodes.append(a * b)
        else:
            nodes.append(a - b)
    loss = nodes[-1].sum()
    nodes.append(loss)
    return leaves, nodes, loss


class TestGradHookProperties:
    """Hypothesis: hook order is reverse-topological; grads are untouched."""

    plans = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=0, max_value=30),
        ),
        min_size=1,
        max_size=12,
    )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), plans)
    def test_hooks_fire_in_reverse_topological_order(self, seed, plan):
        _, nodes, loss = _build_random_graph(seed, plan)
        order: list[int] = []
        for node in nodes:
            node.register_grad_hook(
                lambda _grad, ident=id(node): order.append(ident)
            )
        loss.backward()
        position = {ident: k for k, ident in enumerate(order)}
        # Only nodes the loss depends on participate in backward, and ops
        # like ``-`` desugar through intermediates that carry no hook.
        reachable: dict[int, Tensor] = {}
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) in reachable:
                continue
            reachable[id(node)] = node
            stack.extend(node._parents)
        hooked = {id(node) for node in nodes}
        # Every hooked, reachable node fired exactly once...
        assert len(order) == len(set(order))
        assert set(position) == hooked & set(reachable)
        # ...and every node fired before all of its hooked ancestors (its
        # inputs, transitively): a node's gradient is only final once all
        # its consumers have contributed.
        for node in reachable.values():
            if id(node) not in position:
                continue
            ancestors, stack = set(), list(node._parents)
            while stack:
                parent = stack.pop()
                if id(parent) in ancestors:
                    continue
                ancestors.add(id(parent))
                stack.extend(parent._parents)
            for ident in ancestors & set(position):
                assert position[id(node)] < position[ident]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1), plans)
    def test_hook_registration_leaves_gradients_untouched(self, seed, plan):
        bare_leaves, _, bare_loss = _build_random_graph(seed, plan)
        bare_loss.backward()
        hooked_leaves, hooked_nodes, hooked_loss = _build_random_graph(seed, plan)
        for node in hooked_nodes:
            node.register_grad_hook(lambda g: None)
        hooked_loss.backward()
        for bare, hooked in zip(bare_leaves, hooked_leaves):
            assert np.array_equal(bare.grad, hooked.grad)  # bitwise
