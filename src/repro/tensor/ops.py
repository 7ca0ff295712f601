"""Neural-network operations on :class:`~repro.tensor.autograd.Tensor`.

These free functions build the pieces of the MoE transformer: activations,
normalization, embeddings, the cross-entropy loss, and the row gather /
scatter primitives the MoE dispatch and combine stages are built from.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.autograd import Tensor


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


# ----------------------------------------------------------------------
# Linear algebra / activations
# ----------------------------------------------------------------------
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product ``a @ b``."""
    return _as_tensor(a) @ _as_tensor(b)


# Each activation is one (value, derivative) pair of numpy functions:
# ``value(x)`` returns ``(out, saved)`` and ``derivative(x, saved)`` returns
# ``d out / d x``, where ``saved`` is what the forward already computed.
# The autograd ops below and the expert bank's fused sequential-GEMM node
# both use these pairs, so an activation has exactly one formula.
def _relu_value(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mask = (x > 0).astype(x.dtype)
    return x * mask, mask


def _relu_derivative(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return mask


def _silu_value(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, sig


def _silu_derivative(x: np.ndarray, sig: np.ndarray) -> np.ndarray:
    return sig * (1.0 + x * (1.0 - sig))


_GELU_C = np.sqrt(2.0 / np.pi)


def _gelu_value(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tanh_inner = np.tanh(_GELU_C * (x + 0.044715 * x**3))
    return 0.5 * x * (1.0 + tanh_inner), tanh_inner


def _gelu_derivative(x: np.ndarray, tanh_inner: np.ndarray) -> np.ndarray:
    sech2 = 1.0 - tanh_inner**2
    d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
    return 0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * d_inner


#: name -> (value, derivative) for every activation an FFN may use.
_ACTIVATIONS = {
    "relu": (_relu_value, _relu_derivative),
    "silu": (_silu_value, _silu_derivative),
    "gelu": (_gelu_value, _gelu_derivative),
}


def activation_pair(name: str):
    """The ``(value, derivative)`` pair of activation ``name``."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


def activate(x: Tensor, name: str) -> Tensor:
    """Apply activation ``name`` (``"relu"``, ``"silu"`` or ``"gelu"``) to ``x``."""
    value, derivative = activation_pair(name)
    x = _as_tensor(x)
    out, saved = value(x.data)

    def backward(grad):
        return (grad * derivative(x.data, saved),)

    return Tensor.from_op(out, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return activate(x, "relu")


def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation, the FFN activation used by DeepSeek models."""
    return activate(x, "silu")


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GeLU."""
    return activate(x, "gelu")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out).sum(axis=axis, keepdims=True)
        return (out * (grad - dot),)

    return Tensor.from_op(out, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Log-softmax along ``axis``."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - logsumexp
    soft = np.exp(out)

    def backward(grad):
        return (grad - soft * grad.sum(axis=axis, keepdims=True),)

    return Tensor.from_op(out, (x,), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last dimension."""
    x = _as_tensor(x)
    weight = _as_tensor(weight)
    bias = _as_tensor(bias)
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    out = x_hat * weight.data + bias.data
    n = x.data.shape[-1]

    def backward(grad):
        g_weight = (grad * x_hat).reshape(-1, n).sum(axis=0)
        g_bias = grad.reshape(-1, n).sum(axis=0)
        g_xhat = grad * weight.data
        g_x = (
            inv_std
            / n
            * (
                n * g_xhat
                - g_xhat.sum(axis=-1, keepdims=True)
                - x_hat * (g_xhat * x_hat).sum(axis=-1, keepdims=True)
            )
        )
        return (g_x, g_weight.reshape(weight.shape), g_bias.reshape(bias.shape))

    return Tensor.from_op(out, (x, weight, bias), backward)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with gradient scatter-add."""
    weight = _as_tensor(weight)
    indices = np.asarray(indices, dtype=np.int64)
    out = weight.data[indices]

    def backward(grad):
        g = np.zeros_like(weight.data)
        np.add.at(g, indices, grad)
        return (g,)

    return Tensor.from_op(out, (weight,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean token-level cross entropy.

    ``logits`` is ``[N, V]`` (or any leading shape flattened to N) and
    ``targets`` an integer array of shape ``[N]``.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    flat = logits.data.reshape(-1, logits.data.shape[-1])
    n, v = flat.shape
    if targets.shape[0] != n:
        raise ValueError(f"targets has {targets.shape[0]} entries, expected {n}")
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - logsumexp
    nll = -log_probs[np.arange(n), targets]
    loss = nll.mean()
    probs = np.exp(log_probs)

    def backward(grad):
        g = probs.copy()
        g[np.arange(n), targets] -= 1.0
        g *= float(grad) / n
        return (g.reshape(logits.shape),)

    return Tensor.from_op(np.asarray(loss), (logits,), backward)


# ----------------------------------------------------------------------
# Routing primitives (row gather / scatter, top-k)
# ----------------------------------------------------------------------
def gather_rows(x: Tensor, row_ids: np.ndarray) -> Tensor:
    """``out[i, :] = x[row_ids[i], :]`` — the dispatch gather.

    The gradient scatters (adds) back into the source rows, which is exactly
    the behaviour the Triton gather kernel's backward needs.
    """
    x = _as_tensor(x)
    row_ids = np.asarray(row_ids, dtype=np.int64)
    out = x.data[row_ids]

    def backward(grad):
        g = np.zeros_like(x.data)
        np.add.at(g, row_ids, grad)
        return (g,)

    return Tensor.from_op(out, (x,), backward)


def scatter_rows(
    x: Tensor,
    row_ids: np.ndarray,
    num_rows: int,
    weights: np.ndarray | Tensor | None = None,
) -> Tensor:
    """``out[row_ids[i], :] += weights[i] * x[i, :]`` — the combine scatter.

    ``weights`` (optional, per-source-row scalars) are the combine weights;
    gradients flow to both ``x`` and ``weights``.
    """
    x = _as_tensor(x)
    row_ids = np.asarray(row_ids, dtype=np.int64)
    if row_ids.ndim != 1 or row_ids.shape[0] != x.data.shape[0]:
        raise ValueError("row_ids must be a 1-D array matching x's first dimension")
    if weights is None:
        weighted = x.data
        out = np.zeros((num_rows,) + x.data.shape[1:], dtype=x.data.dtype)
        np.add.at(out, row_ids, weighted)

        def backward(grad):
            return (grad[row_ids],)

        return Tensor.from_op(out, (x,), backward)

    w = weights if isinstance(weights, Tensor) else Tensor(np.asarray(weights, dtype=np.float64))
    w_col = w.data.reshape(-1, *([1] * (x.data.ndim - 1)))
    weighted = x.data * w_col
    out = np.zeros((num_rows,) + x.data.shape[1:], dtype=x.data.dtype)
    np.add.at(out, row_ids, weighted)

    def backward(grad):
        gx = grad[row_ids] * w_col
        gw = (grad[row_ids] * x.data).reshape(x.data.shape[0], -1).sum(axis=1)
        return (gx, gw.reshape(w.shape))

    return Tensor.from_op(out, (x, w), backward)


def topk(x: np.ndarray | Tensor, k: int, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Non-differentiable top-k: returns ``(values, indices)`` sorted by
    descending value along ``axis`` (only the last axis is supported)."""
    data = x.data if isinstance(x, Tensor) else np.asarray(x)
    if axis not in (-1, data.ndim - 1):
        raise ValueError("topk only supports the last axis")
    if not (1 <= k <= data.shape[-1]):
        raise ValueError(f"k={k} out of range for axis size {data.shape[-1]}")
    idx = np.argpartition(-data, kth=k - 1, axis=-1)[..., :k]
    part = np.take_along_axis(data, idx, axis=-1)
    order = np.argsort(-part, axis=-1, kind="stable")
    idx_sorted = np.take_along_axis(idx, order, axis=-1)
    vals_sorted = np.take_along_axis(part, order, axis=-1)
    return vals_sorted, idx_sorted


# ----------------------------------------------------------------------
# Concatenation / stacking
# ----------------------------------------------------------------------
def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [_as_tensor(t) for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    split_points = np.cumsum(sizes)[:-1]

    def backward(grad):
        pieces = np.split(grad, split_points, axis=axis)
        return tuple(pieces)

    return Tensor.from_op(out, tuple(tensors), backward)


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [_as_tensor(t) for t in tensors]
    out = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad):
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(p.squeeze(axis=axis) for p in pieces)

    return Tensor.from_op(out, tuple(tensors), backward)
