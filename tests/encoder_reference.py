"""Reference oracle for ``lexjudge.encoder.featurize``.

Hashed character n-gram counts built one n-gram at a time: each n-gram is
hashed with ``rng.fnv1a_64`` over its UTF-8 bytes, reduced mod the bucket
count, and counted with ``counts[k] += 1``; the counts are then
L2-normalized. No memo and no vectorized counting, so tests can hold the
production encoder to these bytes.
"""

from __future__ import annotations

import numpy as np

from lexjudge.rng import fnv1a_64


def featurize_reference(text: str, params) -> np.ndarray:
    """The L2-normalized hashed n-gram counts of ``text`` under ``params``'s
    ``bucket_count``, ``ngram_min`` and ``ngram_max`` (zero for empty text)."""
    counts = np.zeros(params.bucket_count)
    length = len(text)
    for n in range(params.ngram_min, params.ngram_max + 1):
        if n > length:
            break
        for i in range(length - n + 1):
            counts[fnv1a_64(text[i : i + n].encode("utf-8")) % params.bucket_count] += 1.0
    norm = np.linalg.norm(counts)
    if norm > 0.0:
        counts /= norm
    return counts
