"""Similarity-based prediction: dot-product scores against the enhanced
label representations and softmax probabilities; and the softmax
cross-entropy that both training losses minimize over such scores.

Scoring deliberately uses the dot product while the contrastive stage uses
cosine similarity; the two are never interchanged.

Each array is checked once. ``score_case`` checks the shapes of its
inputs and the values of the scores it makes: a NaN or inf in the fact
vector or the label matrix always reaches the scores (inf·0 is NaN), so
one check of K scores stands for one of the K·d label entries and d fact
entries. ``best_label`` and ``softmax`` are the unchecked kernels that
readers of such checked scores use; ``predict_label`` and
``predict_proba`` are the same kernels behind a check of their input.
"""

from __future__ import annotations

import numpy as np

from .validation import check_finite, check_matrix, check_vector


def score_case(hf, label_matrix) -> np.ndarray:
    """Dot product of a fact vector with every enhanced label vector.

    ``hf`` must be 1-D and ``label_matrix`` 2-D with as many columns. Only
    the scores' values are checked on the way out; a non-finite score,
    from a non-finite input or an overflow, raises ``ValueError`` naming
    the input at fault (or the scores, for an overflow). An inf that meets
    a zero makes numpy warn of an invalid value in the product first."""
    hf, label_matrix = np.asarray(hf, dtype=float), np.asarray(label_matrix, dtype=float)
    if hf.ndim == 1 and label_matrix.ndim == 2 and label_matrix.shape[1] == hf.shape[0]:
        scores = label_matrix @ hf
        if scores.size and np.isfinite(scores).all():
            return scores
    hf = check_vector(hf, "hf")
    return check_finite(check_matrix(label_matrix, "label_matrix", cols=len(hf)) @ hf, "scores")


def best_label(scores: np.ndarray) -> int:
    """Argmax label id of checked, non-empty scores; ties break toward the
    lowest id."""
    return int(scores.argmax())


def softmax(scores: np.ndarray) -> np.ndarray:
    """Max-shifted softmax of checked scores; sums to one."""
    shifted = np.exp(scores - scores.max())
    return shifted / shifted.sum()


def predict_proba(scores) -> np.ndarray:
    """``softmax`` of any finite 1-D scores."""
    return softmax(check_vector(scores, "scores"))


def predict_label(scores) -> int:
    """``best_label`` of any finite, non-empty 1-D scores."""
    scores = check_vector(scores, "scores")
    if scores.size == 0:
        raise ValueError("cannot predict from empty scores")
    return best_label(scores)


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
