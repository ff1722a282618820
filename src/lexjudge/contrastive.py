"""Dropout-noise contrastive pre-training of the fact encoder.

Each case yields two dropout views of its hashed clue features; after
projection they form the anchor and its positive. Negatives are randomly
sampled other cases, one dropout view per case per epoch. The loss is the
temperature-scaled softmax over cosine similarities with the positive term
kept in the denominator, and one full-batch Adam step runs per epoch on
the projection and bias, through ``trainer.descend``. An epoch's loss is
four steps, each with its closed-form backward: the tanh projection of
each view and ``info_nce``, whose gradient runs back through the row
normalization. ``contrastive_objective`` returns the epoch's loss handle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .encoder import DropoutSpec, HashedEncoderParams, apply_dropout_noise, tanh_projection
from .encoder import featurize  # unused here; bench/spans.py wraps this name
from .errors import ConfigError
from .predictor import softmax_cross_entropy
from .rng import SplitMix64, derive
from .validation import check_positive, check_seed


@dataclass(frozen=True)
class ContrastiveConfig:
    temperature: float = 0.05
    negatives_per_anchor: int = 7
    epochs: int = 20
    learning_rate: float = 0.01
    dropout: DropoutSpec = DropoutSpec(rate=0.1, seed=0)
    seed: int = 0

    def __post_init__(self):
        check_positive(self.temperature, "temperature")
        if self.negatives_per_anchor < 1:
            raise ValueError("negatives_per_anchor must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        check_positive(self.learning_rate, "learning_rate")
        object.__setattr__(self, "seed", check_seed(self.seed))


def _sample_negatives(n: int, count: int, seed: int) -> np.ndarray:
    idx = np.empty((n, count), dtype=np.intp)
    for anchor in range(n):
        rng = SplitMix64(derive(seed, "negatives", anchor))
        idx[anchor] = rng.sample_distinct(n, count, exclude=anchor)
    return idx


def info_nce(
    anchors: np.ndarray,
    positives: np.ndarray,
    negatives: np.ndarray,
    neg_idx: np.ndarray,
    temperature: float,
):
    """Mean InfoNCE loss over L2-normalized rows, and the backward step
    mapping its gradient to those of the three views: anchor i scores its
    positive (row i of ``positives``) and the rows ``neg_idx[i]`` of
    ``negatives`` by cosine over ``temperature``, and the loss is the
    softmax cross-entropy of those scores with the positive as gold.

    A zero row, such as a view whose every feature dropout removed,
    normalizes to the zero vector: its cosines are 0, and no gradient
    flows back through its normalization. An anchor whose own view is zero
    has no loss term, so the loss is the mean over the other anchors, and
    NaN when every anchor's view is zero."""
    views = (anchors, positives, negatives)
    norms = [np.sqrt((t * t).sum(axis=1, keepdims=True)) for t in views]
    live = norms[0][:, 0] != 0.0
    if not live.any():
        return np.nan, None
    # a zero row divided by an infinite norm stays zero, and so does its gradient
    norms = [np.where(r == 0.0, np.inf, r) for r in norms]
    a, p, m = (t / r for t, r in zip(views, norms))
    n, count = neg_idx.shape
    neg_rows = m[neg_idx]  # (n, count, d)
    pos_sim = (a * p).sum(axis=1) * (1.0 / temperature)
    neg_sim = (a[:, None, :] * neg_rows).sum(axis=2) * (1.0 / temperature)
    scores = np.concatenate([pos_sim[:, None], neg_sim], axis=1)
    value, g_live = softmax_cross_entropy(scores[live], np.zeros(live.sum(), dtype=np.intp))
    g_sims = np.zeros_like(scores)
    g_sims[live] = g_live

    def backward(g):
        g_pos, g_neg = np.split(g * g_sims * (1.0 / temperature), [1], axis=1)
        g_neg = g_neg[:, :, None]
        g_a = g_pos * p + (g_neg * neg_rows).sum(axis=1)
        g_m = ad.Segments(neg_idx, len(m)).reduce(
            np.add, (g_neg * a[:, None, :]).reshape(n * count, -1), 0.0
        )
        # back through each row's normalization u = t / |t|
        return tuple(
            (g_u - u * (g_u * u).sum(axis=1, keepdims=True)) / r
            for u, r, g_u in zip((a, p, m), norms, (g_a, g_pos * a, g_m))
        )

    return value, backward


def contrastive_objective(
    features: np.ndarray,
    projection: np.ndarray,
    bias: np.ndarray,
    cfg: ContrastiveConfig,
    epoch: int = 0,
    nonzero: np.ndarray | None = None,
) -> ad.Tensor:
    """Mean contrastive loss of one epoch over hashed feature rows, as a loss
    handle whose ``backward()`` gives the projection and bias gradients:
    InfoNCE's backward step, then each view's projection step, summed
    view 0 + view 1 + view 2. ``nonzero`` is ``np.flatnonzero(features)``,
    computed here when not given."""
    features = np.asarray(features, dtype=np.float64)
    projection = np.asarray(projection, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    base = derive(cfg.dropout.seed, "contrastive-views", epoch)
    if nonzero is None:
        nonzero = np.flatnonzero(features)
    views = [
        tanh_projection(
            apply_dropout_noise(features, replace(cfg.dropout, seed=derive(base, view)), nonzero),
            projection, bias,
        )
        for view in range(3)
    ]
    neg_idx = _sample_negatives(
        len(features), cfg.negatives_per_anchor, derive(cfg.seed, "epoch", epoch)
    )
    value, info_nce_backward = info_nce(*(out for out, _ in views), neg_idx, cfg.temperature)

    def backward():
        (g_p0, g_b0), (g_p1, g_b1), (g_p2, g_b2) = (
            step(g) for (_, step), g in zip(views, info_nce_backward(1.0))
        )
        return {"projection": g_p0 + g_p1 + g_p2, "bias": g_b0 + g_b1 + g_b2}

    return ad.Tensor(float(value), backward)


def train_contrastive(
    params: HashedEncoderParams, features: np.ndarray, cfg: ContrastiveConfig
) -> tuple[HashedEncoderParams, list[float]]:
    """Train the encoder projection contrastively on hashed feature rows,
    one (``bucket_count``,) row per case as ``featurize`` makes them;
    returns the updated params and the mean loss per epoch (measured
    entering the epoch)."""
    from .trainer import descend  # deferred: trainer imports this module

    n = len(features)
    if n <= cfg.negatives_per_anchor:
        raise ConfigError(
            f"negatives_per_anchor={cfg.negatives_per_anchor} requires more "
            f"than {cfg.negatives_per_anchor} cases, corpus has {n}"
        )
    nonzero = np.flatnonzero(features)  # the same every epoch
    theta, _, history = descend(
        lambda theta, epoch: contrastive_objective(
            features, theta["projection"], theta["bias"], cfg, epoch, nonzero
        ),
        {"projection": params.projection, "bias": params.bias},
        cfg.epochs, cfg.learning_rate, "contrastive loss",
    )
    return replace(params, projection=theta["projection"], bias=theta["bias"]), history
