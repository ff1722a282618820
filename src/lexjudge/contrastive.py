"""Dropout-noise contrastive pre-training of the fact encoder.

Each case yields two dropout views of its hashed clue features; after
projection they form the anchor and its positive. Negatives are randomly
sampled other cases, one dropout view per case per epoch. The loss is the
temperature-scaled softmax over cosine similarities with the positive term
kept in the denominator, and one full-batch Adam step runs per epoch on
the bias and the projection's used columns (those some case's features
touch), through ``trainer.descend``. An epoch's loss is four steps, each
with its closed-form backward: the tanh projection of each view and
``info_nce``, whose gradient runs back through the row normalization.
``contrastive_objective`` returns the epoch's loss handle.

Hashed features are sparse, so the fit plans its rows once
(``encoder.HashedRows``): each view is drawn as a compact block over the
used columns, the projection's backward sums over that block, and the
forward multiplies the view, written into one dense buffer, by the full
projection, as a dense fit would. Every output is the dense fit's, bit for
bit: an unused column's gradient is exactly 0 at every epoch, so Adam
would leave it unchanged. An epoch's negatives are drawn for every anchor
at once, from each anchor's own counter-based stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .encoder import DropoutSpec, HashedEncoderParams, HashedRows, tanh_projection
from .encoder import featurize  # unused here; bench/spans.py wraps this name
from .errors import ConfigError
from .predictor import softmax_cross_entropy
from .rng import derive, derive_each, stream_u64_at
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
    """Each anchor's ``count`` distinct negatives, for every anchor at once,
    as the sequential spec in ``tests/contrastive_reference.py`` draws them
    one anchor at a time from ``SplitMix64(derive(seed, "negatives",
    anchor))``. Each pass takes the next output of every unfinished
    anchor's stream: one at or above ``randbelow``'s rejection limit is
    skipped, as is a value (the output mod n) that is the anchor or was
    already taken; any other value is taken, in order."""
    if not n:  # no anchor, so no draw (and no error)
        return np.empty((0, count), dtype=np.intp)
    if count > n - 1:
        raise ValueError(f"cannot draw {count} distinct values from {n - 1}")
    seeds = derive_each(derive(seed, "negatives"), np.arange(n))
    limit = (1 << 64) - (1 << 64) % n  # 2**64, so nothing rejected, when n is a power of two
    idx = np.full((n, count), -1, dtype=np.intp)  # -1 until taken: equal to no value
    taken = np.zeros(n, dtype=np.intp)
    draw = 0
    while (rows := np.flatnonzero(taken < count)).size:
        u = stream_u64_at(seeds[rows], np.full(rows.size, draw))
        value = (u % np.uint64(n)).astype(np.intp)
        take = (value != rows) & ~(idx[rows] == value[:, None]).any(axis=1)
        if limit < 1 << 64:
            take &= u < np.uint64(limit)
        rows, value = rows[take], value[take]
        idx[rows, taken[rows]] = value
        taken[rows] += 1
        draw += 1
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
    rows: HashedRows,
    projection: np.ndarray,
    bias: np.ndarray,
    cfg: ContrastiveConfig,
    epoch: int = 0,
) -> ad.Tensor:
    """Mean contrastive loss of one epoch over hashed feature rows, planned
    once per fit as ``rows``, as a loss handle whose ``backward()`` gives
    the gradients of the bias and of the projection's columns ``rows.used``:
    InfoNCE's backward step, then each view's projection step, summed
    view 0 + view 1 + view 2."""
    projection = np.asarray(projection, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    base = derive(cfg.dropout.seed, "contrastive-views", epoch)
    views = []
    for view in range(3):
        # each forward reads the shared dense buffer before the next view rewrites it
        block = rows.dropout(replace(cfg.dropout, seed=derive(base, view)))
        views.append(tanh_projection(rows.dense(block), block, projection, bias))
    neg_idx = _sample_negatives(
        rows.count, cfg.negatives_per_anchor, derive(cfg.seed, "epoch", epoch)
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
    entering the epoch).

    Adam runs over the bias and the projection's used columns, those that
    some row touches. Every other column's gradient is exactly 0 at every
    epoch, so Adam would leave it unchanged anyway. Each epoch writes the
    used columns into one full projection, so the forward product is the
    dense one, on the same values."""
    from .trainer import descend  # deferred: trainer imports this module

    n = len(features)
    if n <= cfg.negatives_per_anchor:
        raise ConfigError(
            f"negatives_per_anchor={cfg.negatives_per_anchor} requires more "
            f"than {cfg.negatives_per_anchor} cases, corpus has {n}"
        )
    rows = HashedRows(features, np.flatnonzero(np.any(features, axis=0)))
    projection = params.projection.copy()

    def objective(theta, epoch):
        projection[:, rows.used] = theta["projection"]
        return contrastive_objective(rows, projection, theta["bias"], cfg, epoch)

    theta, _, history = descend(
        objective,
        {"projection": params.projection[:, rows.used], "bias": params.bias},
        cfg.epochs, cfg.learning_rate, "contrastive loss",
    )
    projection[:, rows.used] = theta["projection"]
    return replace(params, projection=projection, bias=theta["bias"]), history
