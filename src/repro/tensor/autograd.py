"""A small reverse-mode automatic differentiation engine.

Tensors wrap a numpy array and remember how they were produced; calling
:meth:`Tensor.backward` on a scalar walks the tape in reverse topological
order and accumulates gradients into every tensor created with
``requires_grad=True``.  Broadcasting is handled by summing gradients back
to the original shape.  Only what the MoE transformer needs is implemented,
but the engine itself is generic.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (like torch.no_grad)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    """Whether new operations record themselves on the tape."""
    return _grad_enabled


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over broadcast dimensions of size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class GradHookHandle:
    """Removable registration of a gradient hook on one tensor."""

    __slots__ = ("_tensor", "_fn")

    def __init__(self, tensor: "Tensor", fn: Callable[[np.ndarray], None]):
        self._tensor = tensor
        self._fn = fn

    def remove(self) -> None:
        """Unregister the hook; safe to call more than once."""
        hooks = self._tensor._grad_hooks
        if hooks is not None and self._fn in hooks:
            hooks.remove(self._fn)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "_grad_hooks",
        "name",
    )
    __array_priority__ = 100  # so ndarray + Tensor defers to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64 if np.asarray(data).dtype.kind == "f" else None)
        if self.data.dtype.kind not in "fiu":
            raise TypeError(f"unsupported dtype {self.data.dtype}")
        if self.data.dtype.kind in "iu" and requires_grad:
            raise TypeError("integer tensors cannot require grad")
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_hooks: list[Callable[[np.ndarray], None]] | None = None
        self.name = name

    def register_grad_hook(self, fn: Callable[[np.ndarray], None]) -> GradHookHandle:
        """Register ``fn(grad)`` to observe this tensor's finalized gradient.

        During :meth:`backward`, once a tensor's gradient contribution is
        fully accumulated (its position in reverse topological order), every
        registered hook is called with that gradient array.  Hooks observe —
        they cannot replace the gradient — so registration never changes what
        ``backward`` computes.  For a leaf, ``.grad`` is already updated when
        its hooks fire.  Returns a handle whose ``remove()`` unregisters.
        """
        if not self.requires_grad:
            raise RuntimeError("cannot register a grad hook on a tensor without grad")
        if self._grad_hooks is None:
            self._grad_hooks = []
        self._grad_hooks.append(fn)
        return GradHookHandle(self, fn)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=np.float64))

    @classmethod
    def from_op(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a result tensor of an op, wiring the tape if enabled."""
        parents = tuple(parents)
        requires = _grad_enabled and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def numpy(self) -> np.ndarray:
        """The underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # Autograd engine
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        If this tensor is not a scalar, ``grad`` (an array of the same
        shape) must be provided.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)

        # Topological sort of the reachable graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None or not node._parents:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad
            else:
                parent_grads = node._backward(node_grad)
                if not isinstance(parent_grads, tuple):
                    parent_grads = (parent_grads,)
                if len(parent_grads) != len(node._parents):
                    raise RuntimeError(
                        f"backward returned {len(parent_grads)} grads for "
                        f"{len(node._parents)} parents"
                    )
                for parent, pgrad in zip(node._parents, parent_grads):
                    if pgrad is None or not parent.requires_grad:
                        continue
                    if id(parent) in grads:
                        grads[id(parent)] = grads[id(parent)] + pgrad
                    else:
                        grads[id(parent)] = pgrad
                # Interior nodes also expose .grad if they were marked leaf-like
                if node.grad is not None:
                    node.grad = node.grad + node_grad
            # The gradient reaching this node is final here (reverse topo
            # order guarantees every consumer has contributed), so observe
            # hooks fire now — this is what ZeRO's bucketed reducer keys on.
            if node._grad_hooks:
                for hook in tuple(node._grad_hooks):
                    hook(node_grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(grad):
            return (
                _unbroadcast(grad, self.shape),
                _unbroadcast(grad, other.shape),
            )

        return Tensor.from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            return (-grad,)

        return Tensor.from_op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(grad):
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return Tensor.from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(grad):
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data**2), other.shape),
            )

        return Tensor.from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor.from_op(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data @ other.data

        def backward(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                ga = grad * b
                gb = grad * a
            elif a.ndim == 1:
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.outer(a, grad)
            elif b.ndim == 1:
                ga = np.outer(grad, b) if a.ndim == 2 else grad[..., None] * b
                gb = np.swapaxes(a, -1, -2) @ grad
            else:
                ga = grad @ np.swapaxes(b, -1, -2)
                gb = np.swapaxes(a, -1, -2) @ grad
            return (_unbroadcast(ga, self.shape), _unbroadcast(gb, other.shape))

        return Tensor.from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        orig_shape = self.shape

        def backward(grad):
            return (grad.reshape(orig_shape),)

        return Tensor.from_op(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)  # validates the axes
        inverse = np.argsort([a % self.ndim for a in axes])

        def backward(grad):
            return (grad.transpose(inverse),)

        return Tensor.from_op(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        input_shape = self.shape

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            return (np.broadcast_to(g, input_shape).copy(),)

        return Tensor.from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        input_shape = self.shape

        def backward(grad):
            full = np.zeros(input_shape, dtype=grad.dtype)
            np.add.at(full, index, grad)
            return (full,)

        return Tensor.from_op(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            return (grad * out_data,)

        return Tensor.from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            return (grad / self.data,)

        return Tensor.from_op(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            return (grad * (1.0 - out_data**2),)

        return Tensor.from_op(out_data, (self,), backward)

    def clip_min(self, minimum: float) -> "Tensor":
        """Elementwise maximum with a constant (used for numerical floors)."""
        out_data = np.maximum(self.data, minimum)
        mask = (self.data >= minimum).astype(self.data.dtype)

        def backward(grad):
            return (grad * mask,)

        return Tensor.from_op(out_data, (self,), backward)
