"""Fixed-dimension text representations for facts and instrument labels.

Two interchangeable backends produce the vectors the rest of the pipeline
consumes:

* a deterministic feature-hashing encoder — character n-gram counts hashed
  with FNV-1a 64 into buckets, L2-normalized, then mapped through a
  trainable projection with a tanh output. ``featurize`` hashes all of a
  text's n-grams in one numpy pass over its UTF-8 bytes and holds no
  state, so a text's features and its cost do not depend on earlier
  calls; and
* ingestion of precomputed embeddings from a TSV table (vectors are taken
  as given; nothing is trainable on this path).

The hashed encoder maps a case's clue set (``encode_fact``), and a label's
surface text is ``project_features`` of its ``featurize``; the table keys
a case by its id and a label by ``label_key``. Either way the vectors
share one dimension: the projection's row count or the table's ``#dim``.

Training reads the hashed rows through ``HashedRows``, planned once per
fit: inverted dropout (``apply_dropout_noise``, the one implementation)
draws only at the nonzero features, and ``tanh_projection``'s backward
sums over the bucket columns the rows use, since every other column's
gradient is exactly zero. The forward product stays dense, so its bits do
not depend on which columns are used.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .autodiff import t_matmul
from .clues import ClueSet
from .errors import DataError
from .rng import FNV_OFFSET_BASIS, FNV_PRIME, derive, glorot_uniform, stream_u64_at, to_uniform
from .validation import (
    check_finite, check_kind, check_positive, check_unit_rate, read_input, write_output,
)

if TYPE_CHECKING:
    from .corpus import Task

# U+001F unit separator joins the clue fields before hashing; it cannot
# occur in natural text, so clue boundaries never alias content n-grams.
CLUE_SEPARATOR = "\x1f"


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
    ``bucket_count``. FNV-1a folds bytes left to right, so the hashes of
    the n-grams at every start are those of the (n-1)-grams folded on by
    the next character's bytes: one vectorized step per byte column,
    masked where a character has fewer bytes. Nothing is kept between
    calls.
    """
    raw = text.encode("utf-8")
    if len(raw) == len(text):  # ASCII: one byte per character
        columns, masks = np.frombuffer(raw, np.uint8).astype(np.uint64)[None], [None]
    else:  # zero padding: reading a character's 4th byte stays in bounds
        data = np.frombuffer(raw + bytes(3), np.uint8)
        bounds = np.flatnonzero((data & 0xC0) != 0x80)[: len(text) + 1]  # lead bytes, end
        widths = bounds[1:] - bounds[:-1]
        columns = data[bounds[:-1] + np.arange(widths.max())[:, None]].astype(np.uint64)
        masks = [None if k < widths.min() else widths > k for k in range(len(columns))]
    h, prime = np.full(len(text) + 1, FNV_OFFSET_BASIS, np.uint64), np.uint64(FNV_PRIME)
    hashes = [h[:0]]  # a text shorter than ngram_min has no n-grams
    for n in range(1, min(params.ngram_max, len(text)) + 1):
        h = h[:-1]  # the n-grams start at 0 .. len(text) - n
        for column, mask in zip(columns, masks):
            folded = (h ^ column[n - 1 :]) * prime
            h = folded if mask is None else np.where(mask[n - 1 :], folded, h)
        if n >= params.ngram_min:
            hashes.append(h)
    buckets = (np.concatenate(hashes) % np.uint64(params.bucket_count)).astype(np.intp)
    counts = np.bincount(buckets, minlength=params.bucket_count).astype(np.float64)
    norm = np.linalg.norm(counts)
    return counts / norm if norm > 0.0 else counts


@dataclass(frozen=True)
class DropoutSpec:
    """Inverted-dropout noise on hashed feature vectors."""

    rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_unit_rate(self.rate, "dropout_rate")


def apply_dropout_noise(
    features: np.ndarray, spec: DropoutSpec, index: np.ndarray | None = None
) -> np.ndarray:
    """Bernoulli(1 - rate) mask with survivors scaled by 1 / (1 - rate).

    The mask of the entry at flat index k is uniform ``index[k]`` of the
    splitmix64 stream for ``spec.seed``, by default uniform k, so a given
    spec always produces the same mask. Zero features stay zero either
    way, so ``HashedRows`` masks only the nonzero entries of a feature
    matrix: their values, at their flat indices. At rate 0 every uniform,
    being below 1, keeps its entry, and each entry is divided by 1.0: the
    features come back unchanged, as a new array.
    """
    features = np.asarray(features, dtype=np.float64)
    if index is None:
        index = np.arange(features.size)
    kept = to_uniform(stream_u64_at(spec.seed, index)) >= spec.rate
    out = np.zeros(features.shape)
    np.divide(features, 1.0 - spec.rate, out=out, where=kept.reshape(features.shape))
    return out


class HashedRows:
    """Hashed feature rows, planned once per fit for the dropout views that
    train the projection over ``used``: the bucket columns that some row
    touches (an index array, or ``slice(None)`` for every column), and
    ``count``, the number of rows.

    ``dropout`` gives a view's compact (rows, ``len(used)``) block, and
    ``dense`` writes a block into the one (rows, ``bucket_count``) buffer
    kept for the fit. A nonzero entry sits at the same place in both
    layouts' row-major order, since ``used`` is increasing and covers every
    nonzero, so it is drawn once, at its flat index in the full rows.
    """

    def __init__(self, features: np.ndarray, used: np.ndarray | slice):
        features = np.asarray(features, dtype=np.float64)
        self.used = used
        self.count = len(features)
        self._index = np.flatnonzero(features)
        self._values = features.ravel()[self._index]
        block = features[:, used]
        self._block_shape = block.shape
        self._compact = np.flatnonzero(block)
        self._dense = np.zeros(features.shape)

    def dropout(self, spec: DropoutSpec) -> np.ndarray:
        """The compact block of a dropout view, with ``apply_dropout_noise``'s
        mask of the full rows, as a new array."""
        block = np.zeros(self._block_shape)
        block.ravel()[self._compact] = apply_dropout_noise(self._values, spec, self._index)
        return block

    def dense(self, block: np.ndarray) -> np.ndarray:
        """``block`` in the full rows: the fit's one buffer, rewritten by every
        call. Each call writes every nonzero entry of the rows, and no
        other entry is ever written, so the rest of the buffer stays zero."""
        self._dense.ravel()[self._index] = block.ravel()[self._compact]
        return self._dense


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


def tanh_projection(
    features: np.ndarray, block: np.ndarray, projection: np.ndarray, bias: np.ndarray
):
    """``project_features`` over the rows of ``features``:
    tanh(features @ projectionᵀ + bias), and the backward step mapping the
    output's gradient to the gradients of ``bias`` and of the projection's
    columns that ``block`` holds. ``block`` is ``features`` on those
    columns, and ``features`` are zero outside them, so the gradient of
    every other column is exactly zero, and the backward sums over the
    rows of ``block`` alone."""
    out = np.tanh(features @ projection.T + bias)

    def backward(g):
        g_pre = g * (1.0 - out * out)
        return t_matmul(block, g_pre).T, g_pre.sum(axis=0)

    return out, backward


def encode_fact(clues: ClueSet, params: HashedEncoderParams) -> np.ndarray:
    """Representation of a criminal fact from its clue set."""
    return project_features(featurize(clue_text(clues), params), params)


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
    bit-identically and in order. A key the reader would refuse (empty,
    holding a tab, CR or LF, or written twice) raises ``DataError`` naming
    it, before the file is opened."""
    lines = {}
    for key, vec in rows:
        if not key or any(c in key for c in "\t\r\n"):
            raise DataError(
                f"embedding table {path}: id {key!r} is empty or holds a tab or line break"
            )
        if key in lines:
            raise DataError(f"embedding table {path}: id {key!r} is written twice")
        lines[key] = key + "\t" + " ".join(repr(float(v)) for v in vec) + "\n"
    write_output(path, f"#dim {dim}\n" + "".join(lines.values()))
