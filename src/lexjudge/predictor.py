"""Similarity-based prediction: dot-product scores against the enhanced
label representations and softmax probabilities.

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
