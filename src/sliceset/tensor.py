"""Dense float32 tensors with reverse-mode automatic differentiation.

A ``Tensor`` is a value: its numpy array and, when it needs a gradient, a
link to its graph :class:`Node`.  Calling :func:`backward` on a scalar walks
the nodes once in reverse topological order and accumulates
``d(loss)/d(x)`` into ``x.grad`` for every leaf with ``requires_grad=True``
(a parameter or any tensor no op produced).

What the graph holds.  A node keeps its gradient, its input nodes, the op's
backward rule and the shape and dtype of the data, never the data itself;
a rule captures input nodes and only the arrays it reads (relu its own
output, max pool its tap indices, batch norm its centred input, conv its
input; the encoder stem op, :func:`~sliceset.nn.conv_bn_pool_relu`, the
slices).  So an activation's array is freed as soon as the caller
drops its tensor, unless a rule reads it.  No node is made under :func:`no_grad`, or
for an op none of whose inputs needs a gradient.  The walk releases the
graph as it goes: once an op's rule has run, its node drops its gradient,
its rule and with it the arrays the rule saved, so a training step holds
only what the rest of the walk still needs.  Only leaves keep gradients,
and a released graph cannot be walked again: a second ``backward()``
through it raises ``ValueError``.

Conventions used throughout the engine:

* storage is 32-bit float (a 64-bit mode exists for numeric experiments);
* reductions (sum, mean and the moment computations inside the norm layers)
  accumulate in 64-bit before casting back to the storage dtype;
* broadcasting is limited to scalars and the add patterns the models need,
  e.g. ``(N, d) + (d,)``, ``(R, K, d) + (K, d)`` and ``(N, C, H, W) + (C, 1, 1)``;
  anything fancier requires an explicit reshape.
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


class Node:
    """What the graph keeps of a tensor that needs a gradient.

    A node holds the tensor's gradient, the nodes of the op's inputs, the op's
    backward rule and the shape and dtype of the data, never the data itself.
    A rule is called with its output's node and reads ``node.grad``.
    """

    __slots__ = ("grad", "parents", "rule", "shape", "dtype")

    def __init__(self, parents: tuple["Node", ...], rule, shape: tuple[int, ...], dtype):
        self.grad = None
        self.parents: tuple[Node, ...] | None = parents   # None once backward released it
        self.rule = rule
        self.shape = shape
        self.dtype = dtype

    def accumulate_grad(self, g: np.ndarray, owned: bool = False):
        """Add ``g`` into this node's gradient.  The first gradient is a copy
        of ``g``, unless ``owned`` says that nothing else holds or will write
        ``g`` (an array, or a view of one, that the caller allocated, or its
        output's gradient), which is then kept as it is."""
        if self.grad is None:
            if owned and g.dtype == self.dtype:
                self.grad = g
            else:
                self.grad = np.array(g, dtype=self.dtype, copy=True)
        else:
            self.grad += g


class Tensor:
    """N-dimensional float array participating in a differentiable graph.

    ``node`` is the tensor's :class:`Node` when it needs a gradient (a leaf
    created with ``requires_grad=True`` or an op output recorded while grad
    is enabled from such inputs), else None.
    """

    __slots__ = ("_data", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=np.float32):
        if isinstance(data, Tensor):
            data = data.data
        self._data = np.asarray(data, dtype=dtype)
        self.node = Node((), None, self._data.shape, self._data.dtype) if requires_grad else None

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray):
        """Replace the array, e.g. a parameter update or a change of dtype."""
        self._data = value
        if self.node is not None:
            self.node.shape, self.node.dtype = value.shape, value.dtype

    # -- the node's fields, read through the tensor -------------------------

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    @property
    def _parents(self):
        return () if self.node is None else self.node.parents

    @property
    def _backward(self):
        return None if self.node is None else self.node.rule

    @_backward.setter
    def _backward(self, rule):
        self.node.rule = rule

    def accumulate_grad(self, g: np.ndarray, owned: bool = False):
        """See :meth:`Node.accumulate_grad`."""
        self.node.accumulate_grad(g, owned)

    def zero_grad(self):
        if self.node is not None:
            self.node.grad = None

    # -- introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def dtype(self):
        return self._data.dtype

    def item(self) -> float:
        if self._data.size != 1:
            raise ValueError(f"item() requires a single-element tensor, got shape {self.shape}")
        return float(self._data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        return self._data

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- graph construction ----------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], backward_fn) -> "Tensor":
        """Wrap ``data`` as the output of an op with the given parents.  The
        output gets a node, linked to its parents' nodes, only while grad is
        enabled and some parent needs a gradient; ``backward_fn`` must then
        capture parent nodes and the arrays it reads, never a parent tensor."""
        out = Tensor.__new__(Tensor)
        out._data = data
        out.node = None
        if _grad_enabled:
            nodes = tuple(p.node for p in parents if p.node is not None)
            if nodes:
                out.node = Node(nodes, backward_fn, data.shape, data.dtype)
        return out

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _lift(other, self.dtype)
        data = self.data + other.data
        a, b = self.node, other.node

        def backward_fn(out):
            if a is not None:
                a.accumulate_grad(_unbroadcast(out.grad, a.shape))
            if b is not None:
                b.accumulate_grad(_unbroadcast(out.grad, b.shape))

        return self._make(data, (self, other), backward_fn)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other, self.dtype)
        data = self.data - other.data
        a, b = self.node, other.node

        def backward_fn(out):
            if a is not None:
                a.accumulate_grad(_unbroadcast(out.grad, a.shape))
            if b is not None:
                b.accumulate_grad(_unbroadcast(-out.grad, b.shape))

        return self._make(data, (self, other), backward_fn)

    def __rsub__(self, other):
        return _lift(other, self.dtype) - self

    def __mul__(self, other):
        other = _lift(other, self.dtype)
        data = self.data * other.data
        a, b = self.node, other.node
        x = self.data if b is not None else None        # each side reads the other's data
        y = other.data if a is not None else None

        def backward_fn(out):
            if a is not None:
                a.accumulate_grad(_unbroadcast(out.grad * y, a.shape))
            if b is not None:
                b.accumulate_grad(_unbroadcast(out.grad * x, b.shape))

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
        x, a = self.data, self.node
        data = x ** e

        def backward_fn(out):
            a.accumulate_grad(out.grad * (e * x ** (e - 1.0)))

        return self._make(data, (self,), backward_fn)

    def abs(self):
        """Elementwise absolute value; subgradient 0 at exactly 0."""
        x, a = self.data, self.node
        data = np.abs(x)

        def backward_fn(out):
            a.accumulate_grad(out.grad * np.sign(x))

        return self._make(data, (self,), backward_fn)

    # -- shaping ---------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        a = self.node

        def backward_fn(out):
            a.accumulate_grad(out.grad.reshape(a.shape))

        return self._make(data, (self,), backward_fn)

    def transpose(self, *axes):
        inverse = np.argsort(axes)
        data = np.ascontiguousarray(self.data.transpose(axes))
        a = self.node

        def backward_fn(out):
            a.accumulate_grad(out.grad.transpose(inverse))

        return self._make(data, (self,), backward_fn)

    # -- contractions and reductions -------------------------------------

    def matmul(self, other: "Tensor"):
        """Matrix product of 2-D operands or of equal stacks, one GEMM per matrix."""
        if min(self.ndim, other.ndim) < 2 or self.shape[:-2] != other.shape[:-2]:
            raise ValueError(f"matmul expects 2-D operands or equal stacks, got {self.shape} @ {other.shape}")
        if self.shape[-1] != other.shape[-2]:
            raise ValueError(f"matmul inner dimensions differ: {self.shape} @ {other.shape}")
        data = self.data @ other.data
        a, b = self.node, other.node
        x = self.data if b is not None else None        # each side reads the other's data
        y = other.data if a is not None else None

        def backward_fn(out):
            if a is not None:
                a.accumulate_grad(out.grad @ y.swapaxes(-1, -2))
            if b is not None:
                b.accumulate_grad(x.swapaxes(-1, -2) @ out.grad)

        return self._make(data, (self, other), backward_fn)

    __matmul__ = matmul

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims, dtype=np.float64).astype(self.dtype)
        a = self.node

        def backward_fn(out):
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate_grad(np.broadcast_to(g, a.shape))

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
    nodes = [t.node for t in tensors]

    def backward_fn(out):
        pieces = np.split(out.grad, len(nodes), axis=axis)
        for node, piece in zip(nodes, pieces):
            if node is not None:
                node.accumulate_grad(piece.reshape(node.shape))

    return Tensor._make(data, tensors, backward_fn)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """Join tensors along their first axis; one tensor is returned as it is."""
    if len(tensors) == 1:
        return tensors[0]
    nodes = [t.node for t in tensors]
    bounds = np.cumsum([t.shape[0] for t in tensors[:-1]])

    def backward_fn(out):
        for node, piece in zip(nodes, np.split(out.grad, bounds)):
            if node is not None:
                node.accumulate_grad(piece)

    return Tensor._make(np.concatenate([t.data for t in tensors]), tensors, backward_fn)


def _topo_order(root: Node) -> list[Node]:
    """Nodes reachable from ``root``, inputs before outputs."""
    order: list[Node] = []
    seen: set[int] = set()
    stack_: list[tuple[Node, bool]] = [(root, False)]
    while stack_:
        node, expanded = stack_.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node.parents is None:
            raise ValueError("backward through a graph that an earlier backward() released")
        seen.add(id(node))
        stack_.append((node, True))
        for parent in node.parents:
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
    if loss.node is None:
        raise ValueError("loss does not require grad; nothing to differentiate")
    order = _topo_order(loss.node)
    loss.node.accumulate_grad(np.ones_like(loss.data))
    while order:
        node = order.pop()
        if node.rule is not None:
            node.rule(node)
            # Release the op: its gradient and the arrays its rule saved are
            # freed now, and ``parents = None`` marks it as walked.
            node.grad = node.rule = node.parents = None
