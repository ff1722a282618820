"""Deterministic hashing and pseudo-randomness primitives.

Every stochastic choice in the package (corpus shuffling, scenario
truncation, dropout masks, negative sampling, parameter initialization)
is driven by the splitmix64 generator so identical seeds reproduce
bit-for-bit on any platform.

The generator is splitmix64 (Steele, Lea & Flood): for a 64-bit seed
``s``, the k-th output (k >= 1) is ``mix64(s + k * GOLDEN) mod 2**64``
where ``GOLDEN = 0x9E3779B97F4A7C15`` and ``mix64`` is the splitmix64
finalizer. Uniform doubles take the top 53 bits of an output divided by
2**53. Bounded integers use rejection sampling on the raw 64-bit output,
so there is no modulo bias. Shuffling is a Fisher-Yates pass from the
last index down.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

FNV_OFFSET_BASIS = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def fnv1a_64(data: bytes) -> int:
    """FNV-1a 64-bit hash of a byte string."""
    h = FNV_OFFSET_BASIS
    for byte in data:
        h ^= byte
        h = (h * FNV_PRIME) & MASK64
    return h


def mix64(z: int) -> int:
    """splitmix64 finalizer."""
    z &= MASK64
    z ^= z >> 30
    z = (z * _MIX_A) & MASK64
    z ^= z >> 27
    z = (z * _MIX_B) & MASK64
    return z ^ (z >> 31)


def derive(seed: int, *tags: int | str) -> int:
    """Derive a child seed from a parent seed and a sequence of tags.

    String tags are hashed with FNV-1a first; the fold is
    ``h = mix64((h + GOLDEN) ^ tag)`` so tag order matters.
    """
    h = seed & MASK64
    for tag in tags:
        t = fnv1a_64(tag.encode("utf-8")) if isinstance(tag, str) else tag & MASK64
        h = mix64(((h + GOLDEN) & MASK64) ^ t)
    return h


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """``mix64`` of every entry of a uint64 array, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def derive_each(seed: int, tags: np.ndarray) -> np.ndarray:
    """``derive(seed, tag)`` for each integer tag of ``tags``, vectorized, as
    a uint64 array."""
    return _mix64_array(
        np.asarray(tags, dtype=np.uint64) ^ np.uint64((seed + GOLDEN) & MASK64)
    )


def stream_u64_at(seed: int | np.ndarray, indices) -> np.ndarray:
    """Output ``k+1`` of the splitmix64 sequence for each index ``k`` of
    ``indices``, vectorized. ``seed`` is one seed, or a uint64 array of
    seeds, one per index."""
    z = np.asarray(indices, dtype=np.uint64) * np.uint64(GOLDEN)
    if isinstance(seed, np.ndarray):
        z += seed + np.uint64(GOLDEN)  # wraps mod 2**64, as arrays do
    else:
        z += np.uint64((seed + GOLDEN) & MASK64)
    return _mix64_array(z)


def to_uniform(outputs: np.ndarray) -> np.ndarray:
    """Uniform doubles in [0, 1) from the top 53 bits of 64-bit outputs."""
    return (outputs >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int, seed: int) -> np.ndarray:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)), entry i (row-major)
    drawn from output i+1 of the seeded stream."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    size = int(np.prod(shape)) if shape else 1
    u = to_uniform(stream_u64_at(seed, np.arange(size)))
    return ((2.0 * u - 1.0) * limit).reshape(shape)


class SplitMix64:
    """Sequential wrapper over the splitmix64 stream."""

    def __init__(self, seed: int):
        self._seed = seed & MASK64
        self._k = 0

    def next_u64(self) -> int:
        self._k += 1
        return mix64((self._seed + self._k * GOLDEN) & MASK64)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
