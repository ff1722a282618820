"""Dropout-noise contrastive pre-training of the fact encoder.

Each case yields two dropout views of its hashed clue features; after
projection they form the anchor and its positive. Negatives are randomly
sampled other cases, one dropout view per case per epoch. The loss is the
temperature-scaled softmax over cosine similarities with the positive term
kept in the denominator, and one full-batch Adam step runs per epoch on
the projection and bias. An epoch's loss is four tape nodes: the tanh
projection of each view and ``info_nce``, whose closed-form gradient runs
back through the row normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import DropoutSpec, HashedEncoderParams, apply_dropout_noise, tanh_projection
from .encoder import featurize  # unused here; bench/spans.py wraps this name
from .errors import ConfigError, DivergenceError
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
    anchors: Tensor, positives: Tensor, negatives: Tensor, neg_idx: np.ndarray, temperature: float
) -> Tensor:
    """Mean InfoNCE loss over L2-normalized rows as one tape node: anchor i
    scores its positive (row i of ``positives``) and the rows ``neg_idx[i]``
    of ``negatives`` by cosine over ``temperature``, and the loss is the
    softmax cross-entropy of those scores with the positive as gold. A zero
    row has no cosine, and makes the loss NaN."""
    views = (anchors, positives, negatives)
    norms = [np.sqrt((t.data * t.data).sum(axis=1, keepdims=True)) for t in views]
    with np.errstate(invalid="ignore"):
        a, p, m = (t.data / r for t, r in zip(views, norms))
    n, count = neg_idx.shape
    neg_rows = m[neg_idx]  # (n, count, d)
    pos_sim = (a * p).sum(axis=1) * (1.0 / temperature)
    neg_sim = (a[:, None, :] * neg_rows).sum(axis=2) * (1.0 / temperature)
    scores = np.concatenate([pos_sim[:, None], neg_sim], axis=1)
    value, g_sims = softmax_cross_entropy(scores, np.zeros(n, dtype=np.intp))

    def backward(g):
        g_pos, g_neg = np.split(g * g_sims * (1.0 / temperature), [1], axis=1)
        g_neg = g_neg[:, :, None]
        g_a = g_pos * p + (g_neg * neg_rows).sum(axis=1)
        g_m = ad.Segments(neg_idx, len(m)).reduce(
            np.add, (g_neg * a[:, None, :]).reshape(n * count, -1), 0.0
        )
        # back through each row's normalization u = t / |t|
        for view, u, r, g_u in zip(views, (a, p, m), norms, (g_a, g_pos * a, g_m)):
            view._accumulate((g_u - u * (g_u * u).sum(axis=1, keepdims=True)) / r)

    return Tensor._node(value, views, backward)


def contrastive_objective(
    features: np.ndarray,
    projection: np.ndarray,
    bias: np.ndarray,
    cfg: ContrastiveConfig,
    epoch: int = 0,
    with_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Mean contrastive loss of one epoch over hashed feature rows, with
    analytic gradients for the projection and bias when requested (skipped
    for a non-finite value)."""
    features = np.asarray(features, dtype=np.float64)
    p = Tensor(np.asarray(projection, dtype=np.float64), requires_grad=with_grads)
    b = Tensor(np.asarray(bias, dtype=np.float64), requires_grad=with_grads)
    base = derive(cfg.dropout.seed, "contrastive-views", epoch)
    nonzero = np.flatnonzero(features)
    views = [
        tanh_projection(
            apply_dropout_noise(features, replace(cfg.dropout, seed=derive(base, view)), nonzero),
            p, b,
        )
        for view in range(3)
    ]
    neg_idx = _sample_negatives(
        len(features), cfg.negatives_per_anchor, derive(cfg.seed, "epoch", epoch)
    )
    loss = info_nce(*views, neg_idx, cfg.temperature)
    value = float(loss.data)
    if not with_grads or not np.isfinite(value):
        return value, None
    loss.backward()
    return value, {"projection": p.grad, "bias": b.grad}


def train_contrastive(
    params: HashedEncoderParams, features: np.ndarray, cfg: ContrastiveConfig
) -> tuple[HashedEncoderParams, list[float]]:
    """Train the encoder projection contrastively on hashed feature rows,
    one (``bucket_count``,) row per case as ``featurize`` makes them;
    returns the updated params and the mean loss per epoch (measured
    entering the epoch)."""
    from .trainer import AdamState, adam_step  # deferred: trainer imports this module

    n = len(features)
    if n <= cfg.negatives_per_anchor:
        raise ConfigError(
            f"negatives_per_anchor={cfg.negatives_per_anchor} requires more "
            f"than {cfg.negatives_per_anchor} cases, corpus has {n}"
        )
    if cfg.epochs == 0:
        return params, []

    theta = {"projection": params.projection.copy(), "bias": params.bias.copy()}
    state = AdamState.initialize(theta, learning_rate=cfg.learning_rate)
    history: list[float] = []
    for epoch in range(cfg.epochs):
        value, grads = contrastive_objective(
            features, theta["projection"], theta["bias"], cfg, epoch
        )
        if not np.isfinite(value):
            raise DivergenceError(f"contrastive loss diverged at epoch {epoch}")
        theta, state = adam_step(theta, grads, state)
        history.append(value)
    return replace(params, projection=theta["projection"], bias=theta["bias"]), history
