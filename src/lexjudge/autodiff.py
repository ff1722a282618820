"""A minimal reverse-mode tape over numpy arrays.

The tape only orders nodes. Each loss is built from a few nodes whose
backward is a hand-written closed-form gradient, kept next to the loss it
differentiates: the GAT layer in ``graph``, the tanh projection in
``encoder``, the softmax cross-entropy in ``trainer`` and the InfoNCE loss
in ``contrastive``. This module adds only the glue between them (sum,
concatenation, row gather) and the scatter-free kernel that groups rows:
a stable sort by segment id, then one ``reduceat`` over the runs.
Everything is float64. Graphs are rebuilt every optimization step, so
leaf gradients never need zeroing.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @classmethod
    def _node(cls, data, parents, backward) -> "Tensor":
        """A tensor computed from ``parents``; ``backward(g)`` hands each
        parent its share of the output gradient ``g`` through
        ``_accumulate``. Nothing is recorded unless a parent needs a
        gradient."""
        out = cls(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad``, which has this tensor's shape, to its gradient."""
        if not self.requires_grad:
            return
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

    def __add__(self, other: "Tensor") -> "Tensor":
        """Sum of two tensors of one shape (a constant may broadcast)."""
        a, b = self, other

        def backward(g):
            a._accumulate(g)
            b._accumulate(g)

        return Tensor._node(a.data + b.data, (a, b), backward)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = list(tensors)
    sizes = [p.data.shape[axis] for p in parts]
    bounds = np.cumsum(sizes)[:-1]

    def backward(g):
        for part, piece in zip(parts, np.split(np.asarray(g), bounds, axis=axis)):
            part._accumulate(piece)

    return Tensor._node(np.concatenate([p.data for p in parts], axis=axis), parts, backward)


def segment_reduce(ufunc, values: np.ndarray, ids: np.ndarray, num_segments: int, fill):
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


def gather_rows(a: Tensor, index) -> Tensor:
    """Select rows (axis 0) by integer index; duplicate selections accumulate."""
    idx = np.asarray(index, dtype=np.intp)

    def backward(g):
        g = np.asarray(g, dtype=np.float64).reshape((idx.size,) + a.data.shape[1:])
        a._accumulate(segment_reduce(np.add, g, idx.reshape(-1), a.data.shape[0], 0.0))

    return Tensor._node(a.data[idx], (a,), backward)
