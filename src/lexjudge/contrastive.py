"""Dropout-noise contrastive pre-training of the fact encoder.

Each case yields two dropout views of its hashed clue features; after
projection they form the anchor and its positive. Negatives are randomly
sampled other cases, one dropout view per case per epoch. The loss is the
temperature-scaled softmax over cosine similarities with the positive term
kept in the denominator, and one full-batch Adam step runs per epoch on
the projection and bias.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clues import ClueSet
from .encoder import (
    DropoutSpec, HashedEncoderParams, apply_dropout_noise, clue_text, featurize,
)
from .errors import ConfigError, DivergenceError
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
        check_seed(self.seed)


def _sample_negatives(n: int, count: int, seed: int) -> np.ndarray:
    idx = np.empty((n, count), dtype=np.intp)
    for anchor in range(n):
        rng = SplitMix64(derive(seed, "negatives", anchor))
        idx[anchor] = rng.sample_distinct(n, count, exclude=anchor)
    return idx


def _epoch_loss(
    features: np.ndarray,
    projection: Tensor,
    bias: Tensor,
    cfg: ContrastiveConfig,
    epoch: int,
) -> Tensor:
    n = features.shape[0]
    count = cfg.negatives_per_anchor
    base = derive(cfg.dropout.seed, "contrastive-views", epoch)
    views = [
        Tensor(apply_dropout_noise(features, replace(cfg.dropout, seed=derive(base, view))))
        for view in range(3)
    ]
    anchors = ad.l2_normalize_rows((views[0] @ projection.T + bias).tanh())
    positives = ad.l2_normalize_rows((views[1] @ projection.T + bias).tanh())
    negatives = ad.l2_normalize_rows((views[2] @ projection.T + bias).tanh())

    neg_idx = _sample_negatives(n, count, derive(cfg.seed, "epoch", epoch))
    anchor_rep = ad.gather_rows(anchors, np.repeat(np.arange(n), count))
    neg_rows = ad.gather_rows(negatives, neg_idx.reshape(-1))

    pos_sim = (anchors * positives).sum(axis=1) * (1.0 / cfg.temperature)
    neg_sim = (anchor_rep * neg_rows).sum(axis=1).reshape((n, count)) * (
        1.0 / cfg.temperature
    )
    scores = ad.concat([pos_sim.reshape((n, 1)), neg_sim], axis=1)
    return (ad.logsumexp(scores, axis=1) - pos_sim).mean()


def contrastive_objective(
    features: np.ndarray,
    projection: np.ndarray,
    bias: np.ndarray,
    cfg: ContrastiveConfig,
    epoch: int = 0,
    with_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Mean contrastive loss of one epoch over hashed feature rows, with
    analytic gradients for the projection and bias when requested."""
    p = Tensor(np.asarray(projection, dtype=np.float64), requires_grad=with_grads)
    b = Tensor(np.asarray(bias, dtype=np.float64), requires_grad=with_grads)
    loss = _epoch_loss(np.asarray(features, dtype=np.float64), p, b, cfg, epoch)
    value = loss.item()
    if not with_grads:
        return value, None
    loss.backward()
    return value, {"projection": p.grad, "bias": b.grad}


def train_contrastive(
    params: HashedEncoderParams, clue_sets: Sequence[ClueSet], cfg: ContrastiveConfig
) -> tuple[HashedEncoderParams, list[float]]:
    """Train the encoder projection contrastively on one clue set per case;
    returns the updated params and the mean loss per epoch (measured
    entering the epoch)."""
    from .trainer import AdamState, adam_step  # deferred: trainer imports this module

    n = len(clue_sets)
    if n <= cfg.negatives_per_anchor:
        raise ConfigError(
            f"negatives_per_anchor={cfg.negatives_per_anchor} requires more "
            f"than {cfg.negatives_per_anchor} cases, corpus has {n}"
        )
    if cfg.epochs == 0:
        return params, []

    features = np.stack([featurize(clue_text(clues), params) for clues in clue_sets])
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
    return params.with_weights(theta["projection"], theta["bias"]), history
