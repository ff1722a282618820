"""The composed tape: the oracle for the closed-form gradients.

A self-contained copy of the general reverse-mode tape the losses were
once built from, op by op (broadcasting arithmetic, matmul, tanh, ELU,
leaky ReLU, reductions, row gather, segment sum and softmax,
concatenation, max-shifted log-sum-exp and row normalization), and of the
stage-3 and contrastive losses composed from those ops. Each op's
backward is its textbook derivative, so the composition's gradients are
the chain rule applied mechanically. The production losses have no
tape: each forward step returns its output with a hand-written
closed-form backward, and each objective calls those in a fixed order;
their gradients are held to this composition's. Nothing here imports
``autodiff``, the trainer or the contrastive module.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from contrastive_reference import negatives_reference
from lexjudge.encoder import apply_dropout_noise
from lexjudge.rng import derive


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


# -- the losses, composed from the ops above -----------------------------


def gat_layer_composed(
    x: Tensor,
    graph,
    layer,
    w: Tensor,
    omega: Tensor,
    receivers: np.ndarray | None = None,
) -> Tensor:
    """One GAT layer with its heads stacked (see ``lexjudge.graph``)."""
    n, (n_heads, width, d_in) = graph.num_nodes, w.shape
    src, dst, seg, n_out = graph.edge_src, graph.edge_dst, graph.edge_src, n
    if receivers is not None:
        keep = np.isin(src, receivers)
        src, dst, n_out = src[keep], dst[keep], len(receivers)
        seg = np.searchsorted(receivers, src)
    # row 2h is the source half of head h's omega, row 2h + 1 its destination half
    halves = omega.reshape((2 * n_heads, width))
    projected = (x @ w.reshape((n_heads * width, d_in)).T).reshape((n, n_heads, width))
    src_score = (projected * gather_rows(halves, np.arange(0, 2 * n_heads, 2))).sum(axis=2)
    dst_score = (projected * gather_rows(halves, np.arange(1, 2 * n_heads, 2))).sum(axis=2)
    logits = leaky_relu(
        gather_rows(src_score, src) + gather_rows(dst_score, dst), layer.leaky_slope
    )
    alpha = segment_softmax(logits, seg, n_out)
    messages = gather_rows(projected, dst) * alpha.reshape((len(src), n_heads, 1))
    aggregated = elu(segment_sum(messages, seg, n_out))
    if layer.combine == "concat":
        return aggregated.reshape((n_out, n_heads * width))
    return aggregated.sum(axis=1) * (1.0 / n_heads)


def stage3_composed(
    theta: Mapping[str, np.ndarray],
    graph,
    golds,
    tasks: Sequence,
    *,
    gat=None,
    fact_vectors: np.ndarray | None = None,
    nodes: np.ndarray | None = None,
    encoder_inputs: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """The stage-3 loss and its gradients, with the arguments of
    ``lexjudge.trainer``'s objective. The encoder inputs' fact rows (one
    per gold id) and label rows are projected as two products, and the
    node matrix is their concatenation."""
    leaves = {k: Tensor(v, requires_grad=True) for k, v in theta.items()}
    if encoder_inputs is None:
        facts = Tensor(fact_vectors)
        node_t = Tensor(nodes)
    else:
        projection, bias = leaves["encoder.projection"], leaves["encoder.bias"]
        n_facts = len(golds[tasks[0]])
        facts, labels = (
            (Tensor(x) @ projection.T + bias).tanh()
            for x in (encoder_inputs[:n_facts], encoder_inputs[n_facts:])
        )
        node_t = concat([facts, labels], axis=0)
    if gat is None:
        label_mats = {task: leaves[f"labels.{task.value}"] for task in tasks}
    else:
        label_nodes = {task: graph.label_indices(task) for task in tasks}
        receivers = np.array(
            sorted(i for ids in label_nodes.values() for i in ids), dtype=np.intp
        )
        x = node_t
        last = len(gat.layers) - 1
        for li, layer in enumerate(gat.layers):
            x = gat_layer_composed(
                x, graph, layer, leaves[f"gat.layer{li}.W"], leaves[f"gat.layer{li}.omega"],
                receivers if li == last else None,
            )
        label_mats = {
            task: gather_rows(x, np.searchsorted(receivers, ids))
            for task, ids in label_nodes.items()
        }
    if rows is not None:
        facts = gather_rows(facts, rows)
    loss_t = None
    for task in tasks:
        ids = np.asarray(golds[task], dtype=np.intp)
        if rows is not None:
            ids = ids[rows]
        mat = label_mats[task]
        onehot = np.zeros((ids.shape[0], mat.shape[0]))
        onehot[np.arange(ids.shape[0]), ids] = 1.0
        logits = facts @ mat.T
        term = (logsumexp(logits, axis=1) - (logits * Tensor(onehot)).sum(axis=1)).mean()
        loss_t = term if loss_t is None else loss_t + term
    loss_t.backward()
    return loss_t.item(), {k: leaf.grad for k, leaf in leaves.items()}


def contrastive_composed(
    features: np.ndarray, projection: np.ndarray, bias: np.ndarray, cfg, epoch: int = 0
) -> tuple[float, dict[str, np.ndarray]]:
    """One epoch's mean contrastive loss and its gradients, with the
    arguments of ``lexjudge.contrastive``'s objective."""
    p = Tensor(projection, requires_grad=True)
    b = Tensor(bias, requires_grad=True)
    n, count = features.shape[0], cfg.negatives_per_anchor
    base = derive(cfg.dropout.seed, "contrastive-views", epoch)
    anchors, positives, negatives = (
        l2_normalize_rows((
            Tensor(apply_dropout_noise(features, replace(cfg.dropout, seed=derive(base, view))))
            @ p.T + b
        ).tanh())
        for view in range(3)
    )
    neg_idx = negatives_reference(n, count, derive(cfg.seed, "epoch", epoch))
    anchor_rep = gather_rows(anchors, np.repeat(np.arange(n), count))
    neg_rows = gather_rows(negatives, neg_idx.reshape(-1))
    pos_sim = (anchors * positives).sum(axis=1) * (1.0 / cfg.temperature)
    neg_sim = (anchor_rep * neg_rows).sum(axis=1).reshape((n, count)) * (1.0 / cfg.temperature)
    scores = concat([pos_sim.reshape((n, 1)), neg_sim], axis=1)
    loss = (logsumexp(scores, axis=1) - pos_sim).mean()
    loss.backward()
    return loss.item(), {"projection": p.grad, "bias": b.grad}
