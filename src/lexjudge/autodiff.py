"""A minimal reverse-mode tape over numpy arrays.

The tape only orders nodes. Each loss is built from a few nodes whose
backward is a hand-written closed-form gradient, kept next to the loss it
differentiates: the GAT layer in ``graph``, the tanh projection in
``encoder``, the softmax cross-entropy in ``trainer`` and the InfoNCE loss
in ``contrastive``. This module adds only the glue between them (sum,
concatenation, row gather) and the one scatter-free kernel that groups
rows, ``Segments``: a grouping planned once (stable order by segment id,
run starts and lengths) that reduces bit for bit like a stable sort
followed by one ``reduceat``, but wide rows in short runs are summed
position by position instead of one inner loop per (segment, column).
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


# ``reduceat`` runs one inner loop per (segment, column), which is cheap
# only for rows of a few columns; wider rows are summed by the short-run plan.
_NARROW = 8
# Within a run, numpy's sum adds the rows after the first left to right
# while fewer than 8 remain, pairwise from 8 on, and then adds the first
# row; runs up to this length are summed position by position.
_SHORT_RUN = 8


class Segments:
    """Rows grouped by ``ids`` into ``num_segments`` buckets, planned once
    for every reduction over the same grouping.

    ``reduce`` gives, bit for bit, what a stable sort of the rows by id
    followed by ``ufunc.reduceat`` over the runs gives. Ids need not be
    sorted or distinct; sorted ids are used in place, without a copy."""

    def __init__(self, ids, num_segments: int):
        self.ids = np.asarray(ids, dtype=np.intp).reshape(-1)
        self.num_segments = num_segments
        counts = np.bincount(self.ids, minlength=num_segments)
        self._present = np.flatnonzero(counts)
        lengths = counts[self._present]
        self._starts = np.cumsum(lengths) - lengths
        self._order = None
        if np.any(self.ids[1:] < self.ids[:-1]):
            self._order = np.argsort(self.ids, kind="stable")

        def rows(positions):
            return positions if self._order is None else self._order[positions]

        # the runs of each short length: their segments, and their rows
        # position by position, (length, runs). Not ``np.unique``: its first
        # call imports ``numpy.ma`` mid-fit, and those long-lived objects
        # keep the grown heap from shrinking after the fit.
        self._short = []
        for length in range(1, _SHORT_RUN + 1):
            which = np.flatnonzero(lengths == length)
            if which.size:
                positions = self._starts[which] + np.arange(length)[:, None]
                self._short.append((self._present[which], rows(positions)))
        long = lengths > _SHORT_RUN
        self._long = self._present[long]
        # sorted ids in long runs only: every row, in place
        self._long_rows = (
            slice(None) if self._order is None and long.all()
            else rows(np.flatnonzero(np.repeat(long, lengths)))
        )
        self._long_starts = np.cumsum(lengths[long]) - lengths[long]

    def reduce(self, ufunc, values: np.ndarray, fill) -> np.ndarray:
        """``ufunc`` over each segment's rows of ``values``, in id order
        (stable), and ``fill`` where a segment gets no rows."""
        shape = (self.num_segments,) + values.shape[1:]
        if not self._present.size:
            return np.full(shape, fill, dtype=np.float64)
        if ufunc is np.add and self._short and values[0].size > _NARROW:
            out = np.full(shape, fill, dtype=np.float64)
            flat, res = values.reshape(len(values), -1), out.reshape(self.num_segments, -1)
            for segments, rows in self._short:
                acc = flat[rows[0]]
                if len(rows) > 1:
                    first, acc = acc, flat[rows[1]]
                    for row in rows[2:]:
                        acc += flat[row]
                    acc += first
                res[segments] = acc
            if self._long.size:
                res[self._long] = np.add.reduceat(
                    flat[self._long_rows], self._long_starts, axis=0
                )
            # Which NaN a sum of two NaNs keeps depends on numpy's loop, so
            # sums with a NaN are left to ``reduceat`` below.
            if not np.isnan(res).any():
                return out
        rows = values if self._order is None else values[self._order]
        reduced = ufunc.reduceat(rows, self._starts, axis=0)
        if self._present.size == self.num_segments:
            return reduced.astype(np.float64, copy=False)
        out = np.full(shape, fill, dtype=np.float64)
        out[self._present] = reduced
        return out


def gather_rows(a: Tensor, index) -> Tensor:
    """Select rows (axis 0) by integer index, or by the ``Segments`` of a
    reused index over ``a``'s rows; duplicate selections accumulate."""
    rows = index if isinstance(index, Segments) else None
    idx = rows.ids if rows is not None else np.asarray(index, dtype=np.intp)

    def backward(g):
        g = np.asarray(g, dtype=np.float64).reshape((idx.size,) + a.data.shape[1:])
        by_row = rows if rows is not None else Segments(idx, a.data.shape[0])
        a._accumulate(by_row.reduce(np.add, g, 0.0))

    return Tensor._node(a.data[idx], (a,), backward)
