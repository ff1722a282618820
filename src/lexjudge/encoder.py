"""Fixed-dimension text representations for facts and instrument labels.

Two interchangeable backends produce the vectors the rest of the pipeline
consumes:

* a deterministic feature-hashing encoder — character n-gram counts hashed
  with FNV-1a 64 into buckets, L2-normalized, then mapped through a
  trainable projection with a tanh output; and
* ingestion of precomputed embeddings from a TSV table (vectors are taken
  as given; nothing is trainable on this path).

The hashed encoder maps a case's clue set (``encode_fact``) and a label's
surface text (``encode_label``); the table keys a case by its id and a
label by ``label_key``. Either way the vectors share one dimension: the
projection's row count or the table's ``#dim``.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .clues import ClueSet
from .errors import DataError
from .rng import derive, fnv1a_64, glorot_uniform, stream_u64_at, to_uniform
from .validation import (
    check_finite, check_kind, check_positive, check_unit_rate, read_input, write_output,
)

if TYPE_CHECKING:
    from .corpus import Task

# U+001F unit separator joins the clue fields before hashing; it cannot
# occur in natural text, so clue boundaries never alias content n-grams.
CLUE_SEPARATOR = "\x1f"


# The n-gram memo maps each n-gram seen to its full 64-bit FNV-1a hash, so
# ``featurize`` hashes a distinct n-gram once per process. A hash depends
# on the n-gram alone, not on an encoder's bucket count or weights, so one
# memo serves every encoder. Past ``HASH_MEMO_CAP`` entries it stops
# growing and new n-grams are hashed on every call; clue texts repeat few
# distinct n-grams (hundreds on the benchmark corpora), so the cap only
# bounds pathological inputs.
HASH_MEMO_CAP = 65_536
_ngram_hashes: dict[str, int] = {}


@dataclass(eq=False)
class HashedEncoderParams:
    """Hashing configuration plus the trainable projection and bias.

    Params compare by identity, as every dataclass holding arrays does.
    """

    projection: np.ndarray
    bias: np.ndarray
    bucket_count: int = 4096
    ngram_min: int = 1
    ngram_max: int = 3

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        for name in ("bucket_count", "ngram_min", "ngram_max"):
            setattr(self, name, check_kind(getattr(self, name), int, name))
        if self.ngram_min > self.ngram_max:
            raise ValueError("ngram_min must not exceed ngram_max")
        if self.ngram_min < 1:
            raise ValueError("ngram_min must be at least 1")
        if self.bucket_count <= 0:
            raise ValueError("bucket_count must be positive")
        if self.projection.ndim != 2 or self.projection.shape[1] != self.bucket_count:
            raise ValueError(
                f"projection must be (output_dim, {self.bucket_count}), "
                f"got {self.projection.shape}"
            )
        if self.projection.shape[0] == 0:
            raise ValueError("projection has no rows: output_dim must be at least 1")
        if self.bias.shape != (self.projection.shape[0],):
            raise ValueError("bias length must match projection rows")
        check_finite(self.projection, "projection")
        check_finite(self.bias, "bias")

    @property
    def output_dim(self) -> int:
        return self.projection.shape[0]

    @classmethod
    def initialize(
        cls,
        output_dim: int = 256,
        bucket_count: int = 4096,
        ngram_min: int = 1,
        ngram_max: int = 3,
        seed: int = 0,
    ) -> "HashedEncoderParams":
        """Glorot-uniform projection, zero bias, from the seeded stream."""
        check_positive(output_dim, "output_dim")
        check_positive(bucket_count, "bucket_count")
        projection = glorot_uniform(
            (output_dim, bucket_count), bucket_count, output_dim,
            derive(seed, "encoder-projection"),
        )
        return cls(
            projection=projection,
            bias=np.zeros(output_dim),
            bucket_count=bucket_count,
            ngram_min=ngram_min,
            ngram_max=ngram_max,
        )


def featurize(text: str, params: HashedEncoderParams) -> np.ndarray:
    """Hashed character n-gram counts, L2-normalized (zero for empty text).

    Each n-gram's bucket is its FNV-1a 64 hash over UTF-8 bytes, mod
    ``bucket_count``; the hashes come from the module's memo. The n-grams
    of each length extend those one shorter by a character, and the memo
    is read for all of them at once; only the misses are hashed.
    """
    levels = [list(text)]
    for n in range(2, min(params.ngram_max, len(text)) + 1):
        levels.append(list(map(operator.add, levels[-1], text[n - 1 :])))
    grams = list(chain.from_iterable(levels[params.ngram_min - 1 :]))
    memo = _ngram_hashes
    hashes = list(map(memo.get, grams))
    if not all(hashes):  # a miss reads None (a hash of 0 would only cost the scan)
        for i, h in enumerate(hashes):
            if h is None:
                hashes[i] = h = fnv1a_64(grams[i].encode("utf-8"))
                if len(memo) < HASH_MEMO_CAP:
                    memo[grams[i]] = h
    buckets = np.fromiter(hashes, np.uint64, len(hashes)) % np.uint64(params.bucket_count)
    counts = np.bincount(
        buckets.astype(np.intp), minlength=params.bucket_count
    ).astype(np.float64)
    norm = np.linalg.norm(counts)
    if norm > 0.0:
        counts /= norm
    return counts


@dataclass(frozen=True)
class DropoutSpec:
    """Inverted-dropout noise on hashed feature vectors."""

    rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_unit_rate(self.rate, "dropout_rate")


def apply_dropout_noise(
    features: np.ndarray, spec: DropoutSpec, nonzero: np.ndarray | None = None
) -> np.ndarray:
    """Bernoulli(1 - rate) mask with survivors scaled by 1 / (1 - rate).

    The mask at flat index k is uniform k of the splitmix64 stream for
    ``spec.seed``, so a given spec always produces the same mask. Zero
    features stay zero either way, so uniforms are drawn only at the
    nonzero flat indices, ``np.flatnonzero(features)``; a caller that
    masks the same features several times passes them as ``nonzero``.
    """
    features = np.asarray(features, dtype=np.float64)
    if spec.rate == 0.0:
        return features.copy()
    if nonzero is None:
        nonzero = np.flatnonzero(features)
    flat = features.ravel()
    kept = nonzero[to_uniform(stream_u64_at(spec.seed, nonzero)) >= spec.rate]
    out = np.zeros(features.shape)
    out.ravel()[kept] = flat[kept] / (1.0 - spec.rate)
    return out


def clue_text(clues: ClueSet) -> str:
    """The encoder input for a case: its three clues joined by the separator."""
    return CLUE_SEPARATOR.join((clues.motivation, clues.action, clues.harm))


def project_features(features: np.ndarray, params: HashedEncoderParams) -> np.ndarray:
    """tanh(projection @ features + bias)."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (params.bucket_count,):
        raise ValueError(
            f"feature vector must have length {params.bucket_count}, got {features.shape}"
        )
    return np.tanh(params.projection @ features + params.bias)


def tanh_projection(features: np.ndarray, projection: np.ndarray, bias: np.ndarray):
    """``project_features`` over the rows of ``features``:
    tanh(features @ projectionᵀ + bias), and the backward step mapping the
    output's gradient to the gradients of ``projection`` and ``bias``."""
    out = np.tanh(features @ projection.T + bias)

    def backward(g):
        g_pre = g * (1.0 - out * out)
        return (features.T @ g_pre).T, g_pre.sum(axis=0)

    return out, backward


def encode_fact(clues: ClueSet, params: HashedEncoderParams) -> np.ndarray:
    """Representation of a criminal fact from its clue set."""
    return project_features(featurize(clue_text(clues), params), params)


def encode_label(surface_text: str, params: HashedEncoderParams) -> np.ndarray:
    """Representation of an instrument label from its surface text."""
    return project_features(featurize(surface_text, params), params)


class EmbeddingTable:
    """Fixed-dimension vectors keyed by id (precomputed-embedding backend);
    ``path`` is the file ``load_embedding_table`` read them from."""

    path: str | None = None

    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._vectors: dict[str, np.ndarray] = {}
        for key, vec in vectors.items():
            arr = np.asarray(vec, dtype=np.float64)
            if arr.shape != (dim,):
                raise ValueError(f"vector {key!r} has dim {arr.shape}, expected ({dim},)")
            check_finite(arr, f"vector {key!r}")
            self._vectors[key] = arr

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return self._vectors[key]
        except KeyError:
            raise DataError(f"no precomputed embedding for id {key!r}") from None

    def __len__(self) -> int:
        return len(self._vectors)


def label_key(task: "Task", label_id: int) -> str:
    """Embedding-table key for a label vector, e.g. ``charge:2``."""
    return f"{task.value}:{label_id}"


def load_embedding_table(path) -> EmbeddingTable:
    """Parse the embedding TSV: header ``#dim <D>`` then ``<id>\\t<v1> ... <vD>``."""
    lines = read_input(path, "embedding file", DataError).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataError(f"embedding file {path} is empty")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "#dim":
        raise DataError(f"embedding file {path}: first line must be '#dim <D>'")
    try:
        dim = int(header[1])
    except ValueError:
        raise DataError(f"embedding file {path}: bad dimension {header[1]!r}") from None
    if dim <= 0:
        raise DataError(f"embedding file {path} line 1: dimension must be positive, got {dim}")
    vectors: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise DataError(f"embedding file {path} line {lineno}: expected '<id>\\t<values>'")
        if parts[0] in vectors:
            raise DataError(f"embedding file {path} line {lineno}: duplicate id {parts[0]!r}")
        values = parts[1].split()
        if len(values) != dim:
            raise DataError(
                f"embedding file {path} line {lineno}: expected {dim} values, got {len(values)}"
            )
        try:
            vec = np.array([float(v) for v in values])
        except ValueError:
            raise DataError(f"embedding file {path} line {lineno}: non-numeric value") from None
        if not np.all(np.isfinite(vec)):
            raise DataError(f"embedding file {path} line {lineno}: non-finite value")
        vectors[parts[0]] = vec
    table = EmbeddingTable(dim, vectors)
    table.path = os.fspath(path)
    return table


def write_embedding_table(path, dim: int, rows: Iterable[tuple[str, np.ndarray]]) -> None:
    """Write ``(id, vector)`` rows as the TSV ``load_embedding_table`` reads,
    each value as its shortest round-trip ``repr``, so vectors reload
    bit-identically and in order."""
    lines = [f"#dim {dim}\n"]
    lines += [key + "\t" + " ".join(repr(float(v)) for v in vec) + "\n" for key, vec in rows]
    write_output(path, "".join(lines))
