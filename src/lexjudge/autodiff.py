"""The loss handle each training objective returns, the one
scatter-free kernel that groups rows, and the one product that sums over
rows.

Each loss is a fixed handful of forward steps. Each step returns its
output with a closure that maps the output's gradient to its inputs'
gradients by a hand-written closed form, kept next to the step: the GAT
layer in ``graph``, the tanh projection in ``encoder`` and the InfoNCE
loss in ``contrastive``; ``trainer.stage3_objective`` holds the softmax
cross-entropy. Each objective runs its forward steps and returns a
``Tensor``: the loss value and the closure that calls the backward steps
in a written-out order. ``trainer.descend`` checks the value and then
calls ``backward()``, once per epoch.

``Segments`` is a grouping planned once (stable order by segment id, run
starts and lengths) that reduces bit for bit like a stable sort followed
by one ``reduceat``, but wide rows in short runs are summed position by
position instead of one inner loop per (segment, column). The objectives
also use it to scatter a row gather's gradient back onto the rows,
duplicates summed. Everything is float64.

``t_matmul`` is every product that sums over rows: each weight gradient's
``a.T @ b``, and the label-only GAT layer's block products. OpenBLAS splits a
product that sums over rows across its threads, and how it splits, and so
how the sums round, depends on the thread count. Rows zero-padded to a
multiple of 32 gave the one-thread bits at every thread count and size
tried; that is an observed property of OpenBLAS, not a documented one, so
``tests/test_blas_threads.py`` fits a model at one and two threads and
compares the checkpoints.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A loss ``value`` and ``backward()``, which runs the loss's backward
    steps and returns the gradients they give."""

    __slots__ = ("value", "_backward")

    def __init__(self, value: float, backward):
        self.value = value
        self._backward = backward

    def backward(self):
        return self._backward()


def t_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b``, or for stacks of matrices each ``a[k].T @ b[k]``, with
    both operands' rows zero-padded to a multiple of 32, so the bits do not
    depend on the BLAS thread count."""
    pad = -a.shape[-2] % 32
    if pad:
        a = np.concatenate([a, np.zeros(a.shape[:-2] + (pad, a.shape[-1]))], axis=-2)
        b = np.concatenate([b, np.zeros(b.shape[:-2] + (pad, b.shape[-1]))], axis=-2)
    return np.swapaxes(a, -1, -2) @ b


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
