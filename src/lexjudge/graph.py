"""The legal judgment reasoning graph and its attention network.

Nodes are the training facts plus one node per instrument label; each fact
connects to its gold label for every task, labels of the same task are
fully interconnected, and every node carries a self-loop. A two-layer
multi-head attention network propagates case semantics into the label
nodes: per head, edge logits are a leaky-ReLU of a learned vector applied
to the concatenated projected endpoint features, normalized by softmax
over each node's one-hop neighborhood, and aggregated through an ELU.
Layer one concatenates its heads, layer two averages them, so the output
dimension matches the encoder dimension.

The graph holds structure only, and the edge plans derived from it.
``init_features`` returns the (N, d) node matrix, and every pass takes
that matrix as an argument. Each layer is one step that returns its
output with its closed-form backward and writes nothing else.
``_edge_attention`` is a layer's attention over every edge: it projects
every node and takes each edge's softmax weight from its projected
endpoints. ``_forward_layer`` starts with it, then aggregates the
projected messages over every edge into every node's row. A pass that
asks for some receivers only ends in ``_receiver_layer`` instead, which
aggregates the layer's inputs over the edges into those receivers and
then projects only their rows; stage 3 asks for the label rows, the only
rows its loss reads. The two layers' rows agree up to rounding.
``gat_forward_tensors`` composes the layers for training and is the one
place that collects attention: every layer's, over every edge, the last
layer's of a pass into some receivers from ``_edge_attention`` alone, so
one pass gives the fit's label rows and its attention. ``gat_forward``
runs the full pass without gradients.
The node-by-node oracle the passes are checked against lives in
``tests/gat_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence, Union

import numpy as np

from . import autodiff as ad
from .corpus import Corpus, Task, TASKS
from .errors import DataError
from .rng import derive, glorot_uniform
from .validation import check_finite


@dataclass(frozen=True)
class FactNode:
    case_id: str


@dataclass(frozen=True)
class LabelNode:
    task: Task
    label_id: int


NodeKind = Union[FactNode, LabelNode]


def node_name(node: NodeKind) -> str:
    if isinstance(node, FactNode):
        return f"fact:{node.case_id}"
    return f"label:{node.task.value}:{node.label_id}"


class ReasoningGraph:
    """Typed nodes and ordered one-hop neighborhoods, with what the passes
    over them derive from the structure alone: the label rows, and on
    first use the edge plans."""

    def __init__(self, nodes: Sequence[NodeKind], neighbors: Sequence[Sequence[int]]):
        if len(nodes) != len(neighbors):
            raise ValueError("nodes and neighbors must align")
        self.nodes: list[NodeKind] = list(nodes)
        self.neighbors: list[list[int]] = [list(ns) for ns in neighbors]
        pairs = [(i, j) for i, ns in enumerate(self.neighbors) for j in ns]
        edges = set(pairs)
        for i, ns in enumerate(self.neighbors):
            if (i, i) not in edges:
                raise ValueError(f"node {i} is missing its self-loop")
            for j in ns:
                if (j, i) not in edges:
                    raise ValueError(f"edge {i}->{j} has no reverse")
        self.edge_src, self.edge_dst = np.array(pairs, dtype=np.intp).reshape((-1, 2)).T.copy()
        labels: dict[Task, list[tuple[int, int]]] = {}
        for i, node in enumerate(self.nodes):
            if isinstance(node, LabelNode):
                labels.setdefault(node.task, []).append((node.label_id, i))
        self._labels = {
            task: np.array([i for _, i in sorted(pairs)], dtype=np.intp)
            for task, pairs in labels.items()
        }
        self._plans: dict[bytes | None, tuple[ad.Segments, ad.Segments]] = {}

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def label_indices(self, task: Task) -> np.ndarray:
        """The node index of each label of ``task``, in label id order."""
        return self._labels.get(task, np.zeros(0, dtype=np.intp))

    def plan(self, receivers: np.ndarray | None = None) -> tuple[ad.Segments, ad.Segments]:
        """The edges a pass into ``receivers`` (distinct node indices in
        output row order; all nodes when None) aggregates, grouped by
        output row and by sending node; made on first use. The receivers
        are keyed as a 1-D ``intp`` array, so the same nodes give the same
        plan in any integer dtype; an array that is not 1-D or not of
        integers raises ``ValueError``."""
        if receivers is not None:
            if receivers.ndim != 1 or not np.issubdtype(receivers.dtype, np.integer):
                raise ValueError("receivers must be a 1-D integer array")
            receivers = receivers.astype(np.intp, copy=False)
        key = None if receivers is None else receivers.tobytes()
        if key not in self._plans:
            self._plans[key] = plan_edges(self, receivers)
        return self._plans[key]


def plan_edges(
    graph: ReasoningGraph, receivers: np.ndarray | None
) -> tuple[ad.Segments, ad.Segments]:
    """Keep the edges into ``receivers`` (every edge when None) and group
    them by output row and by sending node. Output row r is node
    ``receivers[r]``; each group keeps the edges in graph order, so a row
    sums the same edges in the same order whatever the order of
    ``receivers``. Receivers that repeat a node or name one outside the
    graph raise ``ValueError``."""
    src, dst, n = graph.edge_src, graph.edge_dst, graph.num_nodes
    if receivers is None:
        return ad.Segments(src, n), ad.Segments(dst, n)
    if receivers.size and (receivers.min() < 0 or receivers.max() >= n):
        raise ValueError(f"receivers must be node indices in [0, {n})")
    row = np.full(n, -1, dtype=np.intp)
    row[receivers] = np.arange(len(receivers))
    if np.count_nonzero(row >= 0) != len(receivers):
        raise ValueError("receivers must not repeat a node")
    keep = row[src] >= 0
    return ad.Segments(row[src[keep]], len(receivers)), ad.Segments(dst[keep], n)


def build_graph(corpus: Corpus) -> ReasoningGraph:
    """Construct the reasoning graph over a training corpus.

    Node order is facts in corpus order, then labels task by task in
    vocabulary order; every neighborhood starts with the self-loop and
    then follows edge insertion order.
    """
    if len(corpus) == 0:
        raise DataError("cannot build a reasoning graph from an empty corpus")
    nodes: list[NodeKind] = [FactNode(case.id) for case in corpus]
    label_index: dict[tuple[Task, int], int] = {}
    for task in TASKS:
        for label_id in range(corpus.vocab(task).size):
            label_index[(task, label_id)] = len(nodes)
            nodes.append(LabelNode(task, label_id))
    neighbors: list[list[int]] = [[i] for i in range(len(nodes))]

    def connect(u: int, v: int) -> None:
        neighbors[u].append(v)
        neighbors[v].append(u)

    for fact_idx, case in enumerate(corpus):
        for task in TASKS:
            connect(fact_idx, label_index[(task, case.labels.get(task))])
    for task in TASKS:
        size = corpus.vocab(task).size
        for a in range(size):
            for b in range(a + 1, size):
                connect(label_index[(task, a)], label_index[(task, b)])
    return ReasoningGraph(nodes, neighbors)


def init_features(
    graph: ReasoningGraph,
    fact_vectors: np.ndarray,
    label_vectors: Mapping[Task, np.ndarray],
) -> np.ndarray:
    """The (N, d) node matrix: the i-th fact node's row is ``fact_vectors[i]``,
    the row of label l of a task is row l of that task's ``label_vectors``."""
    n_facts = sum(isinstance(node, FactNode) for node in graph.nodes)
    if len(fact_vectors) != n_facts:
        raise DataError(f"{len(fact_vectors)} fact inputs for {n_facts} fact nodes")
    facts = iter(fact_vectors)
    features = np.stack([
        next(facts) if isinstance(node, FactNode) else label_vectors[node.task][node.label_id]
        for node in graph.nodes
    ])
    check_finite(features, "graph features")
    return features


@dataclass(eq=False)
class LayerParams:
    """One layer's H heads, stacked: ``W[h]`` (d, d_in) is head h's
    projection and ``omega[h]`` (2d,) its edge-scoring vector."""

    W: np.ndarray
    omega: np.ndarray
    combine: str  # "concat" or "average"
    leaky_slope: float = 0.2

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if self.combine not in ("concat", "average"):
            raise ValueError("combine must be 'concat' or 'average'")
        if self.W.ndim != 3 or not len(self.W):
            raise ValueError("W must be (heads, d, d_in) with at least one head")
        if self.omega.shape != (len(self.W), 2 * self.W.shape[1]):
            raise ValueError("omega must be (heads, 2d): twice the head output dim per head")
        check_finite(self.W, "W")
        check_finite(self.omega, "omega")

    @property
    def input_dim(self) -> int:
        return self.W.shape[2]

    @property
    def output_dim(self) -> int:
        heads, per_head = self.W.shape[:2]
        return per_head * heads if self.combine == "concat" else per_head


@dataclass(eq=False)
class GatParams:
    layers: list[LayerParams]

    def __post_init__(self):
        for first, second in zip(self.layers, self.layers[1:]):
            if first.output_dim != second.input_dim:
                raise ValueError(
                    f"layer output dim {first.output_dim} does not feed "
                    f"layer input dim {second.input_dim}"
                )

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim

    @classmethod
    def initialize(
        cls, dim: int, heads: int = 4, seed: int = 0, leaky_slope: float = 0.2
    ) -> "GatParams":
        """Two layers: concat heads of width dim/heads, then averaged heads
        of width dim, so the output matches the encoder dimension. Each
        head draws from its own seeded stream."""
        if dim % heads != 0:
            raise ValueError(f"dim {dim} must be divisible by head count {heads}")
        specs = [(dim, dim // heads, "concat"), (dim, dim, "average")]
        layers = []
        for li, (d_in, d_out, combine) in enumerate(specs):
            W = [
                glorot_uniform((d_out, d_in), d_in, d_out, derive(seed, "gat", li, h, "W"))
                for h in range(heads)
            ]
            omega = [
                glorot_uniform((2 * d_out,), 2 * d_out, 1, derive(seed, "gat", li, h, "omega"))
                for h in range(heads)
            ]
            layers.append(LayerParams(np.stack(W), np.stack(omega), combine, leaky_slope))
        return cls(layers)

    def to_param_dict(self) -> dict[str, np.ndarray]:
        """Two entries per layer, ``gat.layer{l}.W`` and ``gat.layer{l}.omega``."""
        return {
            f"gat.layer{li}.{name}": getattr(layer, name)
            for li, layer in enumerate(self.layers) for name in ("W", "omega")
        }

    def with_param_dict(self, params: Mapping[str, np.ndarray]) -> "GatParams":
        return GatParams([
            replace(layer, W=params[f"gat.layer{li}.W"], omega=params[f"gat.layer{li}.omega"])
            for li, layer in enumerate(self.layers)
        ])


def _edge_softmax(raw: np.ndarray, by_row: ad.Segments, leaky_slope: float):
    """Attention ``(E, H)`` from the raw edge logits: a leaky ReLU, then a
    max-shifted softmax over the edges of each output row. Returns it with
    the step that maps its gradient to that of ``raw``."""
    row = by_row.ids
    factor = np.where(raw > 0, 1.0, leaky_slope)
    logits = raw * factor
    shift = by_row.reduce(np.maximum, logits, -np.inf)
    numer = np.exp(logits - shift[row])
    alpha = numer / by_row.reduce(np.add, numer, 0.0)[row]

    def backward(g_alpha):
        g_mean = by_row.reduce(np.add, g_alpha * alpha, 0.0)[row]
        return alpha * (g_alpha - g_mean) * factor

    return alpha, backward


def _elu_combine(summed: np.ndarray, combine: str):
    """ELU of the ``(rows, H, d)`` per-head sums, then the heads
    concatenated or averaged. Returns the output with the step that maps
    its gradient to that of ``summed``."""
    n_out, n_heads, width = summed.shape
    positive = summed > 0
    aggregated = np.where(positive, summed, np.expm1(summed))
    if combine == "concat":
        out = aggregated.reshape((n_out, n_heads * width))
    else:
        out = aggregated.sum(axis=1) * (1.0 / n_heads)

    def backward(g):
        if combine == "concat":
            g_agg = g.reshape(summed.shape)
        else:
            g_agg = np.broadcast_to((g * (1.0 / n_heads))[:, None, :], summed.shape)
        return g_agg * np.where(positive, 1.0, aggregated + 1.0)

    return out, backward


def _edge_attention(x: np.ndarray, graph: ReasoningGraph, layer: LayerParams):
    """One layer's attention over every edge, with its H heads stacked:
    projections ``(N, H, d)``, edge logits, then ``_edge_softmax``. Returns
    the projections, the attention ``(E, H)`` in graph edge order and the
    softmax's backward step. No message is formed: an edge's weight
    depends only on its projected endpoints.

    The edge logit ``omega·[Wh_i ‖ Wh_j]`` is the sum of a source score
    ``omega[:d]·Wh_i`` and a destination score ``omega[d:]·Wh_j``, so both
    are computed once per node."""
    n, (n_heads, width, d_in) = graph.num_nodes, layer.W.shape
    by_src, by_dst = graph.plan()
    projected = (x @ layer.W.reshape((n_heads * width, d_in)).T).reshape((n, n_heads, width))
    scores = (projected[:, :, None, :] * layer.omega.reshape((n_heads, 2, width))).sum(axis=3)
    raw = scores[by_src.ids, :, 0] + scores[by_dst.ids, :, 1]
    alpha, softmax_backward = _edge_softmax(raw, by_src, layer.leaky_slope)
    return projected, alpha, softmax_backward


def _forward_layer(x: np.ndarray, graph: ReasoningGraph, layer: LayerParams):
    """One layer over every node: ``_edge_attention``, then the messages
    ``(E, H, d)``, their sums, ELU and the heads concatenated or averaged.
    Returns the output, the attention in graph edge order and the backward
    step: ``backward(g, input_grad)`` maps the output's gradient to those
    of ``x`` (None unless ``input_grad``), ``layer.W`` and ``layer.omega``."""
    projected, alpha, softmax_backward = _edge_attention(x, graph, layer)
    w, omega, (n, n_heads, width) = layer.W, layer.omega, projected.shape
    by_src, by_dst = graph.plan()
    src, dst = by_src.ids, by_dst.ids
    sent = projected[dst]
    out, combine_backward = _elu_combine(
        by_src.reduce(np.add, sent * alpha[:, :, None], 0.0), layer.combine
    )

    def backward(g, input_grad):
        g_msg = combine_backward(g)[src]
        g_raw = softmax_backward((g_msg * sent).sum(axis=2))
        g_src = by_src.reduce(np.add, g_raw, 0.0)[:, :, None]
        g_dst = by_dst.reduce(np.add, g_raw, 0.0)[:, :, None]
        g_proj = (
            by_dst.reduce(np.add, g_msg * alpha[:, :, None], 0.0)
            + g_src * omega[:, :width] + g_dst * omega[:, width:]
        ).reshape((n, n_heads * width))
        g_omega = np.concatenate(
            [(g_src * projected).sum(axis=0), (g_dst * projected).sum(axis=0)], axis=1
        )
        g_w = ad.t_matmul(x, g_proj).T.reshape(w.shape)
        return (g_proj @ w.reshape((n_heads * width, -1)) if input_grad else None), g_w, g_omega

    return out, alpha, backward


def _receiver_layer(
    x: np.ndarray, graph: ReasoningGraph, layer: LayerParams, receivers: np.ndarray
):
    """The rows of one layer for ``receivers`` only (distinct node indices,
    in any order; output row r is node ``receivers[r]``), with a backward
    step of ``_forward_layer``'s signature. Its attention covers only the
    edges into ``receivers``, so it is not returned. It aggregates first and
    projects after: head h's sum ``Σⱼ αₕⱼ Wₕxⱼ`` is ``Wₕ Σⱼ αₕⱼ xⱼ``.

    - Each node's source and destination scores are ``x`` times the 2H
      vectors ``Wₕᵀω[:d]`` and ``Wₕᵀω[d:]``; the softmax over each
      receiver's edges is ``_forward_layer``'s.
    - The attention is scattered into a dense block A, stored as
      ``(N, H·R)``, and ``z = A·x`` gives the ``(H, R, d_in)`` sums; Wₕ
      then projects those R rows only.
    - The backward reassociates the same way: ``g_A = g_z·xᵀ`` is read back
      at each edge, ``g_x`` is ``Σₕ Aₕᵀg_zₕ`` plus the scores' share, and
      the gradients of W and ω pass through the 2H vectors.

    Every product that sums over rows goes through ``autodiff.t_matmul``."""
    w, omega = layer.W, layer.omega
    n, (n_heads, width, d_in) = graph.num_nodes, w.shape
    by_row, by_dst = graph.plan(receivers)
    row, dst, n_out = by_row.ids, by_dst.ids, by_row.num_segments
    halves = omega.reshape((n_heads, 2, width))
    vectors = (halves @ w).reshape((2 * n_heads, d_in))
    scores = (x @ vectors.T).reshape((n, n_heads, 2))
    raw = scores[receivers, :, 0][row] + scores[dst, :, 1]
    alpha, softmax_backward = _edge_softmax(raw, by_row, layer.leaky_slope)
    # edge e of head h is entry (dst[e], h·R + row[e]) of the block; a
    # repeated edge adds its weights, as the full pass sums its messages
    at = (dst[:, None] * n_heads + np.arange(n_heads)) * n_out + row[:, None]
    block = np.bincount(
        at.ravel(), weights=alpha.ravel(), minlength=n * n_heads * n_out
    ).reshape((n, n_heads * n_out))
    z = ad.t_matmul(block, x).reshape((n_heads, n_out, d_in))
    out, combine_backward = _elu_combine(
        (z @ w.transpose(0, 2, 1)).transpose(1, 0, 2), layer.combine
    )

    def backward(g, input_grad):
        g_sum = combine_backward(g).transpose(1, 0, 2)
        g_z = (g_sum @ w).reshape((n_heads * n_out, d_in))
        g_raw = softmax_backward((x @ g_z.T).reshape(-1)[at])
        g_scores = np.zeros((n, n_heads, 2))
        g_scores[receivers, :, 0] = by_row.reduce(np.add, g_raw, 0.0)
        g_scores[:, :, 1] = by_dst.reduce(np.add, g_raw, 0.0)
        g_scores = g_scores.reshape((n, 2 * n_heads))
        g_vectors = ad.t_matmul(x, g_scores).T.reshape((n_heads, 2, d_in))
        g_w = ad.t_matmul(g_sum, z)
        g_w += halves.transpose(0, 2, 1) @ g_vectors
        g_omega = (g_vectors @ w.transpose(0, 2, 1)).reshape(omega.shape)
        g_x = None
        if input_grad:
            g_x = ad.t_matmul(block.T, g_z) + g_scores @ vectors
        return g_x, g_w, g_omega

    return out, backward


def gat_forward_tensors(
    features: np.ndarray,
    graph: ReasoningGraph,
    params: GatParams,
    collect: list | None = None,
    receivers: np.ndarray | None = None,
):
    """Both layers of ``params`` over the (N, d) node matrix ``features``.
    With ``receivers`` (distinct node indices, in any order) the last layer
    is ``_receiver_layer``, which computes only their rows, in that order.
    Given ``collect``, every layer's attention over every edge is appended
    to it, one ``(layer, head, alpha)`` entry per head. A pass into some
    receivers takes its last layer's from ``_edge_attention`` on that
    layer's inputs: the full layer's weights, bit for bit, without its
    messages. Returns the output and ``backward(g, input_grad)``, which
    runs the layers' steps last to first and returns the gradient of
    ``features`` (None unless ``input_grad``) and those of the weights,
    keyed as ``GatParams.to_param_dict``."""
    x, steps = features, []
    for li, layer in enumerate(params.layers):
        if li == len(params.layers) - 1 and receivers is not None:
            if collect is not None:
                alpha = _edge_attention(x, graph, layer)[1]
            x, step = _receiver_layer(x, graph, layer, receivers)
        else:
            x, alpha, step = _forward_layer(x, graph, layer)
        if collect is not None:
            collect.extend((li, h, alpha[:, h].copy()) for h in range(alpha.shape[1]))
        steps.append(step)

    def backward(g, input_grad):
        grads = {}
        for li in reversed(range(len(steps))):
            g, grads[f"gat.layer{li}.W"], grads[f"gat.layer{li}.omega"] = steps[li](
                g, li > 0 or input_grad
            )
        return g, grads

    return x, backward


def gat_forward(
    graph: ReasoningGraph,
    features: np.ndarray,
    params: GatParams,
    collect_attention: list | None = None,
) -> np.ndarray:
    """Run both layers over the whole graph from the (N, d) node matrix
    ``features``; returns the updated matrix (label rows are the enhanced
    label representations)."""
    if not np.all(np.isfinite(features)):
        raise DataError("graph features contain non-finite values")
    result, _ = gat_forward_tensors(features, graph, params, collect_attention)
    if not np.all(np.isfinite(result)):
        raise DataError("graph forward pass produced non-finite values")
    return result


def attention_export(graph: ReasoningGraph, collected: Sequence[tuple]) -> list[tuple]:
    """Rows (src_node, dst_node, head, layer, alpha) for every edge of each
    ``(layer, head, alpha)`` entry a pass collected; an ``alpha`` with not
    one weight per edge raises ``ValueError``."""
    names = [node_name(node) for node in graph.nodes]
    src = [names[i] for i in graph.edge_src]
    dst = [names[j] for j in graph.edge_dst]
    return [
        (s, d, head_no, layer_no, a)
        for layer_no, head_no, alpha in collected
        for s, d, a in zip(src, dst, alpha.tolist(), strict=True)
    ]
