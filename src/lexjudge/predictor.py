"""Similarity-based prediction: dot-product scores against the enhanced
label representations and softmax probabilities; and the softmax
cross-entropy that both training losses minimize over such scores.

Scoring deliberately uses the dot product while the contrastive stage uses
cosine similarity; the two are never interchanged.
"""

from __future__ import annotations

import numpy as np

from .validation import check_matrix, check_vector


def score_case(hf, label_matrix) -> np.ndarray:
    """Dot product of a fact vector with every enhanced label vector."""
    hf = check_vector(hf, "hf")
    label_matrix = check_matrix(label_matrix, "label_matrix", cols=hf.shape[0])
    return label_matrix @ hf


def predict_proba(scores) -> np.ndarray:
    """Max-shifted softmax over the scores; sums to one."""
    scores = check_vector(scores, "scores")
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def predict_label(scores) -> int:
    """Argmax label id; ties break toward the lowest id."""
    scores = check_vector(scores, "scores")
    if scores.size == 0:
        raise ValueError("cannot predict from empty scores")
    return int(np.argmax(scores))


def softmax_cross_entropy(scores: np.ndarray, gold: np.ndarray) -> tuple[float, np.ndarray]:
    """Batch-mean cross-entropy of the max-shifted softmax of each row of
    ``scores`` against its gold column, and its gradient in ``scores``."""
    rows = np.arange(len(gold))
    shift = np.max(scores, axis=1, keepdims=True)
    exp = np.exp(scores - shift)
    total = exp.sum(axis=1)
    value = (np.log(total) + shift[:, 0] - scores[rows, gold]).sum() * (1.0 / len(gold))
    grad = exp / total[:, None]
    grad[rows, gold] -= 1.0
    return value, grad * (1.0 / len(gold))
