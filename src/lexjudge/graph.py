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

``gat_forward`` is the vectorized production path (differentiable through
the autodiff module); ``gat_forward_reference`` composes the per-node
operations directly and exists as an independent check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Corpus, Task, TASKS
from .errors import DataError
from .rng import derive, glorot_uniform
from .validation import check_finite, check_vector

if TYPE_CHECKING:
    from .corpus import LabelVocab


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
    """Typed nodes, ordered one-hop neighborhoods, and node features."""

    def __init__(self, nodes: Sequence[NodeKind], neighbors: Sequence[Sequence[int]]):
        if len(nodes) != len(neighbors):
            raise ValueError("nodes and neighbors must align")
        self.nodes: list[NodeKind] = list(nodes)
        self.neighbors: list[list[int]] = [list(ns) for ns in neighbors]
        self.features: np.ndarray | None = None
        for i, ns in enumerate(self.neighbors):
            if i not in ns:
                raise ValueError(f"node {i} is missing its self-loop")
            for j in ns:
                if i not in self.neighbors[j]:
                    raise ValueError(f"edge {i}->{j} has no reverse")
        self.edge_src = np.array(
            [i for i, ns in enumerate(self.neighbors) for _ in ns], dtype=np.intp
        )
        self.edge_dst = np.array(
            [j for ns in self.neighbors for j in ns], dtype=np.intp
        )

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def label_indices(self, task: Task) -> list[int]:
        out = [
            (n.label_id, i)
            for i, n in enumerate(self.nodes)
            if isinstance(n, LabelNode) and n.task is task
        ]
        return [i for _, i in sorted(out)]


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
    backend,
    vocabs: dict[Task, "LabelVocab"],
    fact_inputs: Sequence,
) -> ReasoningGraph:
    """Initialize node features from the encoder backend: the i-th fact node
    from ``fact_inputs[i]``, the input its backend keys on (a clue set for
    the hashed encoder, the case for precomputed embeddings); labels from
    their surface texts."""
    n_facts = sum(isinstance(node, FactNode) for node in graph.nodes)
    if len(fact_inputs) != n_facts:
        raise DataError(f"{len(fact_inputs)} fact inputs for {n_facts} fact nodes")
    facts = iter(fact_inputs)
    rows = []
    for node in graph.nodes:
        if isinstance(node, FactNode):
            rows.append(backend.fact_vector(next(facts)))
        else:
            surface = vocabs[node.task].surface(node.label_id)
            rows.append(backend.label_vector(node.task, node.label_id, surface))
    features = np.stack(rows)
    check_finite(features, "graph features")
    graph.features = features
    return graph


def param_key(layer: int, head: int, name: str) -> str:
    """Name of one head parameter (``W`` or ``omega``) in a parameter mapping."""
    return f"gat.layer{layer}.head{head}.{name}"


@dataclass
class HeadParams:
    """One attention head: a projection and the edge-scoring vector."""

    W: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.omega = np.asarray(self.omega, dtype=np.float64)
        if self.W.ndim != 2:
            raise ValueError("W must be a matrix")
        if self.omega.shape != (2 * self.W.shape[0],):
            raise ValueError("omega length must be twice the head output dim")
        check_finite(self.W, "W")
        check_finite(self.omega, "omega")


@dataclass
class LayerParams:
    heads: list[HeadParams]
    combine: str  # "concat" or "average"
    leaky_slope: float = 0.2

    def __post_init__(self):
        if self.combine not in ("concat", "average"):
            raise ValueError("combine must be 'concat' or 'average'")
        if not self.heads:
            raise ValueError("a layer needs at least one head")
        shapes = {h.W.shape for h in self.heads}
        if len(shapes) != 1:
            raise ValueError("all heads in a layer must share one shape")

    @property
    def input_dim(self) -> int:
        return self.heads[0].W.shape[1]

    @property
    def output_dim(self) -> int:
        per_head = self.heads[0].W.shape[0]
        return per_head * len(self.heads) if self.combine == "concat" else per_head


@dataclass
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
        of width dim, so the output matches the encoder dimension."""
        if dim % heads != 0:
            raise ValueError(f"dim {dim} must be divisible by head count {heads}")
        specs = [(dim, dim // heads, "concat"), (dim, dim, "average")]
        layers = []
        for layer_no, (d_in, d_out, combine) in enumerate(specs):
            head_list = []
            for head_no in range(heads):
                w_seed = derive(seed, "gat", layer_no, head_no, "W")
                o_seed = derive(seed, "gat", layer_no, head_no, "omega")
                head_list.append(
                    HeadParams(
                        W=glorot_uniform((d_out, d_in), d_in, d_out, w_seed),
                        omega=glorot_uniform((2 * d_out,), 2 * d_out, 1, o_seed),
                    )
                )
            layers.append(LayerParams(head_list, combine, leaky_slope))
        return cls(layers)

    def to_param_dict(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for li, layer in enumerate(self.layers):
            for hi, head in enumerate(layer.heads):
                out[param_key(li, hi, "W")] = head.W
                out[param_key(li, hi, "omega")] = head.omega
        return out

    def with_param_dict(self, params: dict[str, np.ndarray]) -> "GatParams":
        layers = []
        for li, layer in enumerate(self.layers):
            heads = [
                HeadParams(
                    W=np.asarray(params[param_key(li, hi, "W")], dtype=np.float64),
                    omega=np.asarray(params[param_key(li, hi, "omega")], dtype=np.float64),
                )
                for hi in range(len(layer.heads))
            ]
            layers.append(LayerParams(heads, layer.combine, layer.leaky_slope))
        return GatParams(layers)


def edge_logit(omega, n_i, n_j, slope: float = 0.2) -> float:
    """LeakyReLU of the scoring vector applied to the concatenated endpoints."""
    n_i = check_vector(n_i, "n_i")
    n_j = check_vector(n_j, "n_j")
    omega = check_vector(omega, "omega", dim=n_i.shape[0] + n_j.shape[0])
    value = float(omega @ np.concatenate([n_i, n_j]))
    return value if value > 0 else slope * value


def attention_row(
    graph: ReasoningGraph,
    head: HeadParams,
    node: int,
    slope: float = 0.2,
    features: np.ndarray | None = None,
) -> np.ndarray:
    """Attention weights of one node over its neighborhood (max-shifted
    softmax of the edge logits); sums to one."""
    feats = graph.features if features is None else features
    if feats is None:
        raise ValueError("graph features are not initialized")
    projected = feats @ head.W.T
    logits = np.array(
        [edge_logit(head.omega, projected[node], projected[j], slope) for j in graph.neighbors[node]]
    )
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def aggregate_node(
    graph: ReasoningGraph,
    head: HeadParams,
    node: int,
    slope: float = 0.2,
    features: np.ndarray | None = None,
) -> np.ndarray:
    """ELU of the attention-weighted sum of projected neighbor features."""
    feats = graph.features if features is None else features
    if feats is None:
        raise ValueError("graph features are not initialized")
    weights = attention_row(graph, head, node, slope, feats)
    projected = feats @ head.W.T
    combined = np.zeros(head.W.shape[0])
    for weight, j in zip(weights, graph.neighbors[node]):
        combined += weight * projected[j]
    return np.where(combined > 0, combined, np.expm1(combined))


def gat_forward_reference(graph: ReasoningGraph, params: GatParams) -> np.ndarray:
    """Layer-by-layer, node-by-node composition of the per-node operations."""
    if graph.features is None:
        raise ValueError("graph features are not initialized")
    x = graph.features
    for layer in params.layers:
        head_outputs = [
            np.stack(
                [aggregate_node(graph, head, i, layer.leaky_slope, x) for i in range(graph.num_nodes)]
            )
            for head in layer.heads
        ]
        if layer.combine == "concat":
            x = np.concatenate(head_outputs, axis=1)
        else:
            x = np.mean(head_outputs, axis=0)
    return x


def _forward_layer(
    x: Tensor,
    graph: ReasoningGraph,
    layer: LayerParams,
    heads_t: list[tuple[Tensor, Tensor]],
    collect: list | None,
    layer_no: int,
) -> Tensor:
    outputs = []
    for head_no, (w_t, omega_t) in enumerate(heads_t):
        projected = x @ w_t.T
        src_feats = ad.gather_rows(projected, graph.edge_src)
        dst_feats = ad.gather_rows(projected, graph.edge_dst)
        logits = ad.leaky_relu(
            ad.concat([src_feats, dst_feats], axis=1) @ omega_t, layer.leaky_slope
        )
        alpha = ad.segment_softmax(logits, graph.edge_src, graph.num_nodes)
        if collect is not None:
            collect.append((layer_no, head_no, alpha.data.copy()))
        messages = dst_feats * alpha.reshape((alpha.shape[0], 1))
        aggregated = ad.segment_sum(messages, graph.edge_src, graph.num_nodes)
        outputs.append(ad.elu(aggregated))
    if layer.combine == "concat":
        return ad.concat(outputs, axis=1)
    total = outputs[0]
    for extra in outputs[1:]:
        total = total + extra
    return total * (1.0 / len(outputs))


def gat_forward_tensors(
    features: Tensor,
    graph: ReasoningGraph,
    tensors: Mapping[str, Tensor],
    params: GatParams,
    collect: list | None = None,
) -> Tensor:
    """Both layers as a differentiable function of ``tensors``, keyed as
    ``GatParams.to_param_dict``; ``params`` supplies the layer structure."""
    x = features
    for li, layer in enumerate(params.layers):
        heads_t = [
            (tensors[param_key(li, hi, "W")], tensors[param_key(li, hi, "omega")])
            for hi in range(len(layer.heads))
        ]
        x = _forward_layer(x, graph, layer, heads_t, collect, li)
    return x


def gat_forward(
    graph: ReasoningGraph, params: GatParams, collect_attention: list | None = None
) -> np.ndarray:
    """Run both layers over the whole graph; returns the updated feature
    matrix (label rows are the enhanced label representations)."""
    if graph.features is None:
        raise ValueError("graph features are not initialized")
    if not np.all(np.isfinite(graph.features)):
        raise DataError("graph features contain non-finite values")
    tensors = {k: Tensor(v) for k, v in params.to_param_dict().items()}
    out = gat_forward_tensors(
        Tensor(graph.features), graph, tensors, params, collect_attention
    )
    result = out.data
    if not np.all(np.isfinite(result)):
        raise DataError("graph forward pass produced non-finite values")
    return result


def attention_export(graph: ReasoningGraph, params: GatParams) -> list[tuple]:
    """Rows (src_node, dst_node, head, layer, alpha) for every edge, both layers."""
    collected: list = []
    gat_forward(graph, params, collect_attention=collected)
    rows = []
    for layer_no, head_no, alpha in collected:
        for e in range(alpha.shape[0]):
            rows.append(
                (
                    node_name(graph.nodes[graph.edge_src[e]]),
                    node_name(graph.nodes[graph.edge_dst[e]]),
                    head_no,
                    layer_no,
                    float(alpha[e]),
                )
            )
    return rows
