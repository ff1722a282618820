"""Reference oracles for ``lexjudge.graph`` and the stage-3 loss.

The attention network composed node by node from its per-edge operations
(edge logit, attention row, aggregation), and the summed per-task
cross-entropy composed case by case from the predictor's scoring and
softmax. Slow, but each step reads as the documented formula, so the
gradient checks and the vectorized forward pass are held to them. Nothing
here uses ``lexjudge.autodiff`` or the production forward pass.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from lexjudge.corpus import Task
from lexjudge.graph import GatParams, ReasoningGraph
from lexjudge.predictor import predict_proba, score_case
from lexjudge.validation import check_vector


def edge_logit(omega, n_i, n_j, slope: float = 0.2) -> float:
    """LeakyReLU of the scoring vector applied to the concatenated endpoints."""
    n_i = check_vector(n_i, "n_i")
    n_j = check_vector(n_j, "n_j")
    omega = check_vector(omega, "omega", dim=n_i.shape[0] + n_j.shape[0])
    value = float(omega @ np.concatenate([n_i, n_j]))
    return value if value > 0 else slope * value


def attention_row(
    graph: ReasoningGraph,
    features: np.ndarray,
    W: np.ndarray,
    omega: np.ndarray,
    node: int,
    slope: float = 0.2,
) -> np.ndarray:
    """Attention weights of one node over its neighborhood (max-shifted
    softmax of the edge logits) for the head with projection ``W`` and
    scoring vector ``omega``, from the (N, d_in) node matrix ``features``;
    sums to one."""
    projected = features @ W.T
    logits = np.array(
        [edge_logit(omega, projected[node], projected[j], slope) for j in graph.neighbors[node]]
    )
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def aggregate_node(
    graph: ReasoningGraph,
    features: np.ndarray,
    W: np.ndarray,
    omega: np.ndarray,
    node: int,
    slope: float = 0.2,
) -> np.ndarray:
    """ELU of the attention-weighted sum of projected neighbor features."""
    weights = attention_row(graph, features, W, omega, node, slope)
    projected = features @ W.T
    combined = np.zeros(W.shape[0])
    for weight, j in zip(weights, graph.neighbors[node]):
        combined += weight * projected[j]
    return np.where(combined > 0, combined, np.expm1(combined))


def gat_forward_reference(
    graph: ReasoningGraph, features: np.ndarray, params: GatParams
) -> np.ndarray:
    """Layer-by-layer, head-by-head, node-by-node composition of the
    per-node operations from the (N, d) node matrix ``features``; head h of
    a layer is ``(layer.W[h], layer.omega[h])``."""
    x = features
    for layer in params.layers:
        head_outputs = [
            np.stack([
                aggregate_node(graph, x, W, omega, i, layer.leaky_slope)
                for i in range(graph.num_nodes)
            ])
            for W, omega in zip(layer.W, layer.omega)
        ]
        if layer.combine == "concat":
            x = np.concatenate(head_outputs, axis=1)
        else:
            x = np.mean(head_outputs, axis=0)
    return x


def ce_loss(proba, gold: int) -> float:
    """Cross-entropy of a probability vector against the gold label id."""
    proba = check_vector(proba, "proba")
    if not 0 <= gold < proba.shape[0]:
        raise ValueError(f"gold label {gold} out of range for {proba.shape[0]} classes")
    return float(-np.log(proba[gold]))


def total_loss(
    fact_vectors: np.ndarray,
    golds: Mapping[Task, Sequence[int]],
    label_matrices: Mapping[Task, np.ndarray],
    tasks: Sequence[Task],
) -> float:
    """Mean over the batch of the summed per-task cross-entropies
    (reference path composed from the predictor operations)."""
    fact_vectors = np.asarray(fact_vectors, dtype=np.float64)
    n = fact_vectors.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    total = 0.0
    for i in range(n):
        for task in tasks:
            logits = score_case(fact_vectors[i], label_matrices[task])
            total += ce_loss(predict_proba(logits), golds[task][i])
    return total / n


def graph_loss_reference(
    graph: ReasoningGraph,
    features: np.ndarray,
    gat_params: GatParams,
    fact_vectors: np.ndarray,
    golds: Mapping[Task, Sequence[int]],
    tasks: Sequence[Task],
) -> float:
    """total_loss with label matrices taken from the loop-composed graph
    forward pass; used as the independent oracle for gradient checks."""
    out = gat_forward_reference(graph, features, gat_params)
    label_matrices = {task: out[graph.label_indices(task)] for task in tasks}
    return total_loss(fact_vectors, golds, label_matrices, tasks)
