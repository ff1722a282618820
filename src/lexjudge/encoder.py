"""Fixed-dimension text representations for facts and instrument labels.

Two interchangeable backends produce the vectors the rest of the pipeline
consumes:

* a deterministic feature-hashing encoder — character n-gram counts hashed
  with FNV-1a 64 into buckets, L2-normalized, then mapped through a
  trainable projection with a tanh output; and
* ingestion of precomputed embeddings from a TSV table (vectors are taken
  as given; nothing is trainable on this path).

Downstream code depends only on (dim, fact_vector, label_vector). Each
backend's ``fact_vector`` takes the input it keys on: the hashed encoder a
case's clue set, the precomputed table the case itself (by id).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .clues import ClueSet
from .errors import DataError
from .rng import derive, fnv1a_64, glorot_uniform, stream_uniform
from .validation import check_finite, check_positive, check_unit_rate

if TYPE_CHECKING:
    from .corpus import CriminalCase, Task

# U+001F unit separator joins the clue fields before hashing; it cannot
# occur in natural text, so clue boundaries never alias content n-grams.
CLUE_SEPARATOR = "\x1f"


def hash_ngram(ngram: str, bucket_count: int) -> int:
    """Bucket index for one n-gram: FNV-1a 64 over UTF-8 bytes, mod buckets."""
    if not ngram:
        raise ValueError("ngram must be non-empty")
    if bucket_count <= 0:
        raise ValueError("bucket_count must be positive")
    return fnv1a_64(ngram.encode("utf-8")) % bucket_count


@dataclass
class HashedEncoderParams:
    """Hashing configuration plus the trainable projection and bias."""

    projection: np.ndarray
    bias: np.ndarray
    bucket_count: int = 4096
    ngram_min: int = 1
    ngram_max: int = 3

    def __post_init__(self):
        self.projection = np.asarray(self.projection, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
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

    def with_weights(self, projection: np.ndarray, bias: np.ndarray) -> "HashedEncoderParams":
        return replace(self, projection=projection, bias=bias)


def featurize(text: str, params: HashedEncoderParams) -> np.ndarray:
    """Hashed character n-gram counts, L2-normalized (zero for empty text)."""
    counts = np.zeros(params.bucket_count)
    length = len(text)
    for n in range(params.ngram_min, params.ngram_max + 1):
        if n > length:
            break
        for i in range(length - n + 1):
            counts[hash_ngram(text[i : i + n], params.bucket_count)] += 1.0
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


def apply_dropout_noise(features: np.ndarray, spec: DropoutSpec) -> np.ndarray:
    """Bernoulli(1 - rate) mask with survivors scaled by 1 / (1 - rate).

    The mask comes from the splitmix64 stream for ``spec.seed``, so a
    given spec always produces the same mask.
    """
    features = np.asarray(features, dtype=np.float64)
    if spec.rate == 0.0:
        return features.copy()
    u = stream_uniform(spec.seed, features.size).reshape(features.shape)
    return np.where(u >= spec.rate, features / (1.0 - spec.rate), 0.0)


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


def encode_fact(clues: ClueSet, params: HashedEncoderParams) -> np.ndarray:
    """Representation of a criminal fact from its clue set."""
    return project_features(featurize(clue_text(clues), params), params)


def encode_label(surface_text: str, params: HashedEncoderParams) -> np.ndarray:
    """Representation of an instrument label from its surface text."""
    return project_features(featurize(surface_text, params), params)


class EmbeddingTable:
    """Fixed-dimension vectors keyed by id (precomputed-embedding backend)."""

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

    def __contains__(self, key: str) -> bool:
        return key in self._vectors

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return self._vectors[key]
        except KeyError:
            raise DataError(f"no precomputed embedding for id {key!r}") from None

    def __len__(self) -> int:
        return len(self._vectors)

    def ids(self) -> list[str]:
        return list(self._vectors)


def label_key(task: "Task", label_id: int) -> str:
    """Embedding-table key for a label vector, e.g. ``charge:2``."""
    return f"{task.value}:{label_id}"


def load_embedding_table(path) -> EmbeddingTable:
    """Parse the embedding TSV: header ``#dim <D>`` then ``<id>\\t<v1> ... <vD>``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise DataError(f"cannot read embedding file {path}: {exc}") from exc
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
        vectors[parts[0]] = vec
    return EmbeddingTable(dim, vectors)


class HashedEncoder:
    """Feature-hashing backend bound to one parameter set."""

    kind = "hashed"

    def __init__(self, params: HashedEncoderParams):
        self.params = params

    @property
    def dim(self) -> int:
        return self.params.output_dim

    def fact_vector(self, clues: ClueSet) -> np.ndarray:
        return encode_fact(clues, self.params)

    def label_vector(self, task: "Task", label_id: int, surface: str) -> np.ndarray:
        return encode_label(surface, self.params)


class PrecomputedEncoder:
    """Table-lookup backend; vectors are used exactly as ingested."""

    kind = "precomputed"

    def __init__(self, table: EmbeddingTable):
        self.table = table

    @property
    def dim(self) -> int:
        return self.table.dim

    def fact_vector(self, case: "CriminalCase") -> np.ndarray:
        return self.table[case.id]

    def label_vector(self, task: "Task", label_id: int, surface: str) -> np.ndarray:
        return self.table[label_key(task, label_id)]
