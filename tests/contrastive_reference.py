"""Reference oracles for ``lexjudge.contrastive``.

The contrastive loss of one anchor, composed from scalar cosine
similarities: the temperature-scaled softmax with the positive kept in the
denominator, computed with a max shift. The production objective batches
every anchor of an epoch into one InfoNCE step with a closed-form
backward; tests hold its value to the mean of this per-anchor loss.

The negatives of an epoch, drawn one anchor at a time from its own
sequential stream by ``sample_distinct``, are the spec and oracle for the
vectorized draw. Nothing here uses ``lexjudge.autodiff``; the draw uses
``lexjudge.rng`` only.
"""

from __future__ import annotations

import numpy as np

from lexjudge.rng import SplitMix64, derive
from lexjudge.validation import check_vector


def cosine_sim(u, v) -> float:
    """Cosine similarity; zero-norm inputs are rejected."""
    u = check_vector(u, "u")
    v = check_vector(v, "v", dim=u.shape[0])
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ValueError("cosine_sim is undefined for zero-norm vectors")
    return float(np.dot(u, v) / (nu * nv))


def loss_from_similarities(pos_sim: float, neg_sims, temperature: float) -> float:
    """-log of the positive's share of the temperature-scaled exponentials,
    computed with a max shift."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    neg_sims = np.asarray(neg_sims, dtype=np.float64)
    if neg_sims.size == 0:
        raise ValueError("at least one negative is required")
    scaled = np.concatenate(([pos_sim], neg_sims)) / temperature
    shift = scaled.max()
    return float(shift + np.log(np.exp(scaled - shift).sum()) - scaled[0])


def contrastive_loss(anchor, positive, negatives, temperature: float) -> float:
    """Contrastive loss of one anchor against its positive and negatives.

    The denominator contains the positive term once plus every negative
    term; similarities are cosine.
    """
    if not negatives:
        raise ValueError("at least one negative is required")
    pos = cosine_sim(anchor, positive)
    negs = [cosine_sim(anchor, n) for n in negatives]
    return loss_from_similarities(pos, negs, temperature)


def sample_distinct(rng: SplitMix64, n: int, k: int, exclude: int | None = None) -> list[int]:
    """k distinct integers in [0, n), optionally excluding one value: the
    ``randbelow(n)`` draws of ``rng`` in order, each taken the first time
    it occurs."""
    available = n if exclude is None else n - 1
    if k > available:
        raise ValueError(f"cannot draw {k} distinct values from {available}")
    chosen: list[int] = []
    seen = set() if exclude is None else {exclude}
    while len(chosen) < k:
        r = rng.randbelow(n)
        if r not in seen:
            seen.add(r)
            chosen.append(r)
    return chosen


def negatives_reference(n: int, count: int, seed: int) -> np.ndarray:
    """Each anchor's ``count`` distinct negatives among ``n`` cases, other
    than itself: ``sample_distinct`` on the anchor's own stream, one anchor
    after another."""
    idx = np.empty((n, count), dtype=np.intp)
    for anchor in range(n):
        rng = SplitMix64(derive(seed, "negatives", anchor))
        idx[anchor] = sample_distinct(rng, n, count, exclude=anchor)
    return idx
