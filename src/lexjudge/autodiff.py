"""Minimal reverse-mode automatic differentiation over numpy arrays.

Implements exactly the operations the training losses need: broadcasting
arithmetic, matmul, the activations (tanh / ELU / leaky ReLU), reductions,
row gather, segment sum and softmax, concatenation, and a max-shifted
log-sum-exp. The row-grouping ops share one scatter-free kernel: a stable
sort by segment id, then one ``reduceat`` over the runs.
Everything is float64. Graphs are rebuilt every optimization step, so
leaf gradients never need zeroing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @classmethod
    def _node(cls, data, parents, backward) -> "Tensor":
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    def backward(self) -> None:
        """Backpropagate from a scalar output."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        a, b = self, other

        def backward(g):
            a._accumulate(g)
            b._accumulate(g)

        return Tensor._node(a.data + b.data, (a, b), backward)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._node(-a.data, (a,), lambda g: a._accumulate(-g))

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __rsub__(self, other):
        return Tensor._lift(other) + (-self)

    def __mul__(self, other):
        other = Tensor._lift(other)
        a, b = self, other

        def backward(g):
            a._accumulate(g * b.data)
            b._accumulate(g * a.data)

        return Tensor._node(a.data * b.data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Tensor._lift(other)
        a, b = self, other

        def backward(g):
            a._accumulate(g / b.data)
            b._accumulate(-g * a.data / (b.data * b.data))

        return Tensor._node(a.data / b.data, (a, b), backward)

    def __rtruediv__(self, other):
        return Tensor._lift(other) / self

    def __matmul__(self, other):
        other = Tensor._lift(other)
        a, b = self, other
        out = a.data @ b.data

        def backward(g):
            g = np.asarray(g, dtype=np.float64)
            if a.data.ndim == 2 and b.data.ndim == 2:
                a._accumulate(g @ b.data.T)
                b._accumulate(a.data.T @ g)
            elif a.data.ndim == 2 and b.data.ndim == 1:
                a._accumulate(np.outer(g, b.data))
                b._accumulate(a.data.T @ g)
            elif a.data.ndim == 1 and b.data.ndim == 2:
                a._accumulate(g @ b.data.T)
                b._accumulate(np.outer(a.data, g))
            elif a.data.ndim == 1 and b.data.ndim == 1:
                a._accumulate(g * b.data)
                b._accumulate(g * a.data)
            else:
                raise ValueError("unsupported matmul arity")

        return Tensor._node(out, (a, b), backward)

    # -- shape -----------------------------------------------------------

    def transpose(self) -> "Tensor":
        a = self
        return Tensor._node(a.data.T, (a,), lambda g: a._accumulate(np.asarray(g).T))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, shape) -> "Tensor":
        a = self
        original = a.data.shape
        return Tensor._node(
            a.data.reshape(shape), (a,), lambda g: a._accumulate(np.asarray(g).reshape(original))
        )

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g, dtype=np.float64)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, a.data.shape))

        return Tensor._node(out, (a,), backward)

    def mean(self, axis=None) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # -- elementwise -----------------------------------------------------

    def exp(self) -> "Tensor":
        a = self
        out = np.exp(a.data)
        return Tensor._node(out, (a,), lambda g: a._accumulate(g * out))

    def log(self) -> "Tensor":
        a = self
        return Tensor._node(np.log(a.data), (a,), lambda g: a._accumulate(g / a.data))

    def sqrt(self) -> "Tensor":
        a = self
        out = np.sqrt(a.data)
        return Tensor._node(out, (a,), lambda g: a._accumulate(g * 0.5 / out))

    def tanh(self) -> "Tensor":
        a = self
        out = np.tanh(a.data)
        return Tensor._node(out, (a,), lambda g: a._accumulate(g * (1.0 - out * out)))


def elu(t: Tensor) -> Tensor:
    """ELU with alpha = 1: x for x > 0, exp(x) - 1 otherwise."""
    a = Tensor._lift(t)
    positive = a.data > 0
    out = np.where(positive, a.data, np.expm1(a.data))
    return Tensor._node(
        out, (a,), lambda g: a._accumulate(g * np.where(positive, 1.0, out + 1.0))
    )


def leaky_relu(t: Tensor, slope: float) -> Tensor:
    a = Tensor._lift(t)
    positive = a.data > 0
    factor = np.where(positive, 1.0, slope)
    return Tensor._node(a.data * factor, (a,), lambda g: a._accumulate(g * factor))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [Tensor._lift(t) for t in tensors]
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        for part, piece in zip(parts, np.split(np.asarray(g), bounds, axis=axis)):
            part._accumulate(piece)

    return Tensor._node(np.concatenate([p.data for p in parts], axis=axis), parts, backward)


def _segment_reduce(ufunc, values: np.ndarray, ids: np.ndarray, num_segments: int, fill):
    """``ufunc`` over the rows of ``values`` grouped by ``ids`` into
    ``num_segments`` buckets, ``fill`` where a bucket gets no rows.

    Rows are put in stable order of their id, so each segment is one
    contiguous run, and ``ufunc.reduceat`` reduces the runs that are not
    empty. Ids need not be sorted or distinct."""
    out = np.full((num_segments,) + values.shape[1:], fill, dtype=np.float64)
    if ids.size == 0:
        return out
    order = np.argsort(ids, kind="stable")
    counts = np.bincount(ids, minlength=num_segments)
    present = counts > 0
    starts = (np.cumsum(counts) - counts)[present]
    out[present] = ufunc.reduceat(values[order], starts, axis=0)
    return out


def gather_rows(t: Tensor, index) -> Tensor:
    """Select rows (axis 0) by integer index; duplicate selections accumulate."""
    a = Tensor._lift(t)
    idx = np.asarray(index, dtype=np.intp)

    def backward(g):
        g = np.asarray(g, dtype=np.float64).reshape((idx.size,) + a.data.shape[1:])
        a._accumulate(_segment_reduce(np.add, g, idx.reshape(-1), a.data.shape[0], 0.0))

    return Tensor._node(a.data[idx], (a,), backward)


def segment_sum(t: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Sum rows of t into num_segments buckets keyed by segment_ids."""
    a = Tensor._lift(t)
    seg = np.asarray(segment_ids, dtype=np.intp)
    out = _segment_reduce(np.add, a.data, seg, num_segments, 0.0)
    return Tensor._node(out, (a,), lambda g: a._accumulate(np.asarray(g)[seg]))


def logsumexp(t: Tensor, axis: int) -> Tensor:
    """Max-shifted log-sum-exp along one axis (the shift is a constant)."""
    a = Tensor._lift(t)
    shift = np.max(a.data, axis=axis, keepdims=True)
    shifted = a - Tensor(shift)
    return shifted.exp().sum(axis=axis).log() + Tensor(np.squeeze(shift, axis=axis))


def segment_softmax(logits: Tensor, segment_ids, num_segments: int) -> Tensor:
    """Softmax over variable-size segments, max-shifted per segment."""
    a = Tensor._lift(logits)
    seg = np.asarray(segment_ids, dtype=np.intp)
    shift = _segment_reduce(np.maximum, a.data, seg, num_segments, -np.inf)
    shifted = a - Tensor(shift[seg])
    numer = shifted.exp()
    denom = segment_sum(numer, seg, num_segments)
    return numer / gather_rows(denom, seg)


def l2_normalize_rows(t: Tensor) -> Tensor:
    """Scale each row to unit L2 norm (rows must be nonzero)."""
    a = Tensor._lift(t)
    norms = (a * a).sum(axis=1, keepdims=True).sqrt()
    return a / norms
