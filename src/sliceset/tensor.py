"""Dense float32 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array and remembers how it was produced; calling
:func:`backward` on a scalar walks the recorded graph once in reverse
topological order and accumulates ``d(loss)/d(x)`` into ``x.grad`` for every
leaf with ``requires_grad=True`` (a parameter or any tensor no op produced).
The walk releases the graph as it goes: once an op's backward rule has run,
its output drops its gradient, its rule and the arrays the rule saved, so a
training step holds only what the rest of the walk still needs.  Only leaves
keep gradients, and a released graph cannot be walked again: a second
``backward()`` through it raises ``ValueError``.

Conventions used throughout the engine:

* storage is 32-bit float (a 64-bit mode exists for numeric experiments);
* reductions (sum, mean and the moment computations inside the norm layers)
  accumulate in 64-bit before casting back to the storage dtype;
* broadcasting is limited to scalars and the bias-add patterns the models
  need, e.g. ``(N, d) + (d,)`` and ``(N, C, H, W) + (C, 1, 1)``; anything
  fancier requires an explicit reshape.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the context (inference/eval paths)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def grad_enabled() -> bool:
    return _grad_enabled


class Tensor:
    """N-dimensional float array participating in a differentiable graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents: tuple[Tensor, ...] | None = ()   # None once backward released it
        self._backward = None

    # -- introspection ---------------------------------------------------

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
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self.data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray, owned: bool = False):
        """Add ``g`` into this tensor's gradient.  The first gradient is a copy
        of ``g``, unless ``owned`` says that nothing else holds or will write
        ``g`` (an array, or a view of one, that the caller allocated, or its
        output's gradient), which is then kept as it is."""
        if self.grad is None:
            if owned and g.dtype == self.data.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.data.dtype, copy=True)
        else:
            self.grad += g

    # -- graph construction ----------------------------------------------

    def _make(self, data: np.ndarray, parents: Sequence["Tensor"], backward_fn):
        """Wrap ``data`` as the output of an op with the given parents."""
        needs = _grad_enabled and any(p.requires_grad for p in parents)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = needs
        out.grad = None
        if needs:
            out._parents = tuple(parents)
            out._backward = backward_fn
        else:
            out._parents = ()
            out._backward = None
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _lift(other, self.dtype)
        data = self.data + other.data

        def backward_fn(out):
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(out.grad, other.shape))

        return self._make(data, (self, other), backward_fn)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other, self.dtype)
        data = self.data - other.data

        def backward_fn(out):
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(-out.grad, other.shape))

        return self._make(data, (self, other), backward_fn)

    def __rsub__(self, other):
        return _lift(other, self.dtype) - self

    def __mul__(self, other):
        other = _lift(other, self.dtype)
        data = self.data * other.data

        def backward_fn(out):
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(out.grad * self.data, other.shape))

        return self._make(data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __truediv__(self, other):
        if isinstance(other, Tensor) or not np.isscalar(other):
            raise TypeError("division only supports scalar divisors; use mul with a reciprocal tensor")
        return self * (1.0 / float(other))

    def __pow__(self, exponent):
        if not np.isscalar(exponent):
            raise TypeError("pow only supports scalar exponents")
        e = float(exponent)
        data = self.data ** e

        def backward_fn(out):
            if self.requires_grad:
                self.accumulate_grad(out.grad * (e * self.data ** (e - 1.0)))

        return self._make(data, (self,), backward_fn)

    def abs(self):
        """Elementwise absolute value; subgradient 0 at exactly 0."""
        data = np.abs(self.data)

        def backward_fn(out):
            if self.requires_grad:
                self.accumulate_grad(out.grad * np.sign(self.data))

        return self._make(data, (self,), backward_fn)

    # -- shaping ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward_fn(out):
            if self.requires_grad:
                self.accumulate_grad(out.grad.reshape(self.shape))

        return self._make(data, (self,), backward_fn)

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        data = np.ascontiguousarray(self.data.transpose(axes))

        def backward_fn(out):
            if self.requires_grad:
                self.accumulate_grad(out.grad.transpose(inverse))

        return self._make(data, (self,), backward_fn)

    def rows(self, start: int, stop: int):
        """Rows ``start:stop`` of the first axis, as a view; backward adds the
        gradient into those rows of this tensor's gradient only."""
        data = self.data[start:stop]

        def backward_fn(out):
            if self.requires_grad:
                if self.grad is None:
                    self.grad = np.zeros_like(self.data)
                self.grad[start:stop] += out.grad

        return self._make(data, (self,), backward_fn)

    # -- contractions and reductions -------------------------------------

    def matmul(self, other: "Tensor"):
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError(f"matmul expects 2-D operands, got {self.shape} @ {other.shape}")
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"matmul inner dimensions differ: {self.shape} @ {other.shape}")
        data = self.data @ other.data

        def backward_fn(out):
            if self.requires_grad:
                self.accumulate_grad(out.grad @ other.data.T)
            if other.requires_grad:
                other.accumulate_grad(self.data.T @ out.grad)

        return self._make(data, (self, other), backward_fn)

    __matmul__ = matmul

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(self.dtype)

        def backward_fn(out):
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self.accumulate_grad(np.broadcast_to(g, self.shape))

        return self._make(data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if np.isscalar(axis) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- autodiff --------------------------------------------------------

    def backward(self):
        backward(self)


def _lift(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes numpy expanded to reach ``grad.shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if squeeze:
        grad = grad.sum(axis=squeeze, keepdims=True)
    return grad


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(out):
        pieces = np.split(out.grad, len(tensors), axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t.accumulate_grad(piece.reshape(t.shape))

    return tensors[0]._make(data, tensors, backward_fn)


def _topo_order(root: Tensor) -> list[Tensor]:
    """Operations reachable from ``root``, inputs before outputs."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack_: list[tuple[Tensor, bool]] = [(root, False)]
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents is None:
            raise ValueError("backward through a graph that an earlier backward() released")
        seen.add(id(node))
        stack_.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack_.append((parent, False))
    return order


def backward(loss: Tensor):
    """Populate ``grad`` on every ``requires_grad`` tensor reachable from ``loss``.

    ``loss`` must hold a single element.  Repeated calls accumulate into the
    existing gradient buffers; call ``zero_grad`` on parameters to reset.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")
    order = _topo_order(loss)
    loss.accumulate_grad(np.ones_like(loss.data))
    while order:
        node = order.pop()
        if node._backward is not None:
            node._backward(node)
            # Release the op: its gradient and the arrays its closure saved
            # are freed now, and ``_parents = None`` marks it as walked.
            node.grad = node._backward = node._parents = None
