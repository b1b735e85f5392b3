"""A small tape-based automatic differentiation engine on NumPy arrays.

This module is the substrate that replaces PyTorch in this reproduction
(the paper implements LightTR with PyTorch on a GPU; this environment has
no torch, so we provide an equivalent reverse-mode autodiff engine).

The design follows the familiar define-by-run model:

* :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations
  applied to it on a tape (the ``_parents`` / ``_backward`` fields).
* Calling :meth:`Tensor.backward` on a scalar result walks the tape in
  reverse topological order and accumulates gradients into every leaf
  tensor reachable from the result that has ``requires_grad=True``.

Each op's backward closure receives ``(grad, stage)`` where ``stage``
adds a gradient contribution for a parent tensor; intermediate node
gradients are not retained (as with non-leaf tensors in PyTorch).

Gradient correctness for every primitive is verified against central
finite differences in the test suite (``tests/nn/test_autograd.py``),
including property-based checks with hypothesis.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

from . import dtypes as _dtypes

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "zeros",
    "ones",
    "randn",
    "sigmoid_forward",
    "sigmoid_backward",
    "tanh_backward",
]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables tape recording (like ``torch.no_grad``)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations are currently being recorded on the tape."""
    return _GRAD_ENABLED


def sigmoid_forward(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Clipped logistic sigmoid on a raw array (shared by ops and kernels).

    Spelled as chained in-place ufuncs (at most one temporary) rather
    than ``1/(1+exp(-clip(x)))``, which allocates five temporaries and
    pays ``np.clip``'s dispatch overhead on every call.  ``out`` may
    alias ``x`` for a fully in-place evaluation.

    The clip limit is dtype-aware: ``exp`` overflows above ~709 at
    float64 but ~88 at float32; either limit saturates the sigmoid to
    0/1 long before it is reached, so the tighter float32 bound changes
    no values — it only keeps the kernel overflow-free.
    """
    limit = 500.0 if x.dtype == np.float64 else 80.0
    z = np.maximum(x, -limit, out=out)
    np.minimum(z, limit, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def sigmoid_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient of sigmoid expressed through its output ``out``."""
    return grad * out * (1.0 - out)


def tanh_backward(grad: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient of tanh expressed through its output ``out``."""
    return grad * (1.0 - out * out)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting.

    Broadcasting may have added leading axes or stretched length-1 axes;
    the gradient of a broadcast is the sum over the broadcast axes.
    """
    grad = np.asarray(grad)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode automatic differentiation.

    Parameters
    ----------
    data:
        Anything convertible to ``numpy.ndarray``; stored in the active
        *compute dtype* (:func:`repro.nn.set_compute_dtype` — float64
        by default), which every op output also adopts.
    requires_grad:
        If true, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    name:
        Optional debug label.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_dtypes._COMPUTE_DTYPE)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # introspection
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

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # backward engine
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1.0, which requires this tensor
            to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a seed needs a scalar tensor")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        # Iterative reverse topological order (avoids recursion limits on
        # long RNN tapes).
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
                if id(parent) not in visited:
                    stack.append((parent, False))

        pending: dict[int, np.ndarray] = {id(self): grad}

        def stage(tensor: "Tensor", g: np.ndarray) -> None:
            if not tensor.requires_grad:
                return
            # Gradients live in each tensor's own dtype.  Closures that
            # deliberately accumulate in float64 (bias-grad reductions,
            # loss sums) get rounded once here, at the hand-off.
            g = np.asarray(g)
            if g.dtype != tensor.data.dtype:
                g = g.astype(tensor.data.dtype)
            key = id(tensor)
            if key in pending:
                pending[key] = pending[key] + g
            else:
                pending[key] = g

        for node in reversed(topo):
            node_grad = pending.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf tensor: accumulate into .grad.
                if node.grad is None:
                    node.grad = np.array(node_grad, copy=True)
                else:
                    node.grad = node.grad + node_grad
            else:
                node._backward(node_grad, stage)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad, stage):
            stage(self, _unbroadcast(grad, self.shape))
            stage(other, _unbroadcast(grad, other.shape))

        return _node(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad, stage):
            stage(self, _unbroadcast(grad, self.shape))
            stage(other, _unbroadcast(-grad, other.shape))

        return _node(self.data - other.data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad, stage):
            stage(self, _unbroadcast(grad * other.data, self.shape))
            stage(other, _unbroadcast(grad * self.data, other.shape))

        return _node(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(grad, stage):
            stage(self, _unbroadcast(grad / other.data, self.shape))
            stage(other, _unbroadcast(-grad * self.data / (other.data**2), other.shape))

        return _node(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(grad, stage):
            stage(self, -grad)

        return _node(-self.data, (self,), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(grad, stage):
            stage(self, grad * exponent * self.data ** (exponent - 1))

        return _node(self.data**exponent, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(grad, stage):
            if a.ndim == 1 and b.ndim == 1:
                stage(self, grad * b)
                stage(other, grad * a)
            elif a.ndim == 1:
                # (k,) @ (..., k, n) -> (..., n)
                stage(self, _unbroadcast(np.expand_dims(grad, -2) @ np.swapaxes(b, -1, -2), a.shape + (1,)).reshape(a.shape)
                      if b.ndim > 2 else grad @ b.T)
                stage(other, _unbroadcast(np.expand_dims(a, -1) @ np.expand_dims(grad, -2), b.shape))
            elif b.ndim == 1:
                # (..., m, k) @ (k,) -> (..., m)
                stage(self, np.expand_dims(grad, -1) * b)
                gb = np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1)
                stage(other, _unbroadcast(gb, b.shape + (1,)).reshape(b.shape))
            else:
                stage(self, _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape))
                stage(other, _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape))

        return _node(a @ b, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad, stage):
            stage(self, grad * out_data)

        return _node(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad, stage):
            stage(self, grad / self.data)

        return _node(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad, stage):
            stage(self, tanh_backward(grad, out_data))

        return _node(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = sigmoid_forward(self.data)

        def backward(grad, stage):
            stage(self, sigmoid_backward(grad, out_data))

        return _node(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad, stage):
            stage(self, grad * mask)

        return _node(self.data * mask, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(grad, stage):
            stage(self, grad * mask)

        return _node(np.clip(self.data, low, high), (self,), backward)

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad, stage):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for a in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, a)
            stage(self, np.broadcast_to(g, self.shape).copy())

        # Accumulate in float64 regardless of the compute dtype (loss
        # reductions must not drift term by term at float32); the node
        # rounds the result back to the compute dtype exactly once.
        return _node(self.data.sum(axis=axis, keepdims=keepdims,
                                   dtype=np.float64), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad, stage):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                full = np.expand_dims(out_data, axis)
            else:
                full = out_data
            mask = self.data == full
            if axis is not None:
                denom = mask.sum(axis=axis, keepdims=True)
            else:
                denom = mask.sum()
            stage(self, np.broadcast_to(g, self.shape) * mask / denom)

        return _node(out_data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad, stage):
            stage(self, np.asarray(grad).reshape(original))

        return _node(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(np.argsort(axes))

        def backward(grad, stage):
            stage(self, np.asarray(grad).transpose(inverse))

        return _node(self.data.transpose(axes), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        def backward(grad, stage):
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            stage(self, full)

        return _node(self.data[key], (self,), backward)

    # Comparisons return plain boolean arrays (no gradient).
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)


def _node(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    """Construct a tape node; records parents only when grads are enabled."""
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data)
    out.requires_grad = requires
    if requires:
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy for tensors)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """Return a zero-filled tensor of the given shape."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    """Return a one-filled tensor of the given shape."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    """Return a tensor of standard-normal values (seeded via ``rng``)."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    rng = rng or np.random.default_rng()
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)
