import numpy as np
import pytest

from lexjudge import (
    ClueSet,
    DataError,
    DropoutSpec,
    EmbeddingTable,
    HashedEncoderParams,
    Provenance,
    apply_dropout_noise,
    encode_fact,
    encode_label,
    featurize,
    hash_ngram,
    load_embedding_table,
)
from lexjudge.encoder import CLUE_SEPARATOR, clue_text, label_key, project_features
from lexjudge.corpus import Task
from lexjudge.rng import fnv1a_64


def clues(m="greed", a="seized the bag", h="injury"):
    return ClueSet(
        motivation=m, action=a, harm=h,
        provenance={k: Provenance.EXACT for k in ("motivation", "action", "harm")},
    )


def small_params(dim=8, buckets=64, seed=3):
    return HashedEncoderParams.initialize(
        output_dim=dim, bucket_count=buckets, seed=seed
    )


class TestHashNgram:
    def test_published_fnv1a_vector(self):
        # published FNV-1a 64 test vector for "a"
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_mod_small_bucket(self):
        assert hash_ngram("a", 8) == 0xAF63DC4C8601EC8C % 8 == 4

    def test_deterministic(self):
        assert hash_ngram("same input", 4096) == hash_ngram("same input", 4096)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            hash_ngram("", 8)


class TestFeaturize:
    def test_empty_text_zero_vector(self):
        params = small_params()
        assert not featurize("", params).any()

    def test_unit_norm(self):
        params = small_params()
        vec = featurize("some text to hash", params)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    def test_ab_ngram_enumeration(self):
        # n-grams of "ab" for n in [1,2]: {"a", "b", "ab"} -> three unit counts
        params = HashedEncoderParams(
            projection=np.zeros((2, 64)), bias=np.zeros(2),
            bucket_count=64, ngram_min=1, ngram_max=2,
        )
        vec = featurize("ab", params)
        buckets = {hash_ngram(g, 64) for g in ("a", "b", "ab")}
        raw = vec * np.sqrt(3)  # undo L2 over three unit counts (no collisions here)
        assert len(buckets) == 3
        assert np.count_nonzero(vec) == 3
        for b in buckets:
            assert raw[b] == pytest.approx(1.0)

    def test_collision_consistency(self):
        params = small_params(buckets=16)
        a = featurize("abcabc", params)
        b = featurize("abcabc", params)
        assert np.array_equal(a, b)


class TestEncode:
    def test_identical_clue_sets_identical_vectors(self):
        params = small_params()
        assert np.array_equal(encode_fact(clues(), params), encode_fact(clues(), params))

    def test_zero_projection_gives_zero_vector(self):
        params = HashedEncoderParams(projection=np.zeros((4, 64)), bias=np.zeros(4),
                                     bucket_count=64)
        assert not encode_fact(clues(), params).any()

    def test_output_in_tanh_range(self):
        params = small_params()
        vec = encode_fact(clues(), params)
        assert np.all(vec > -1.0) and np.all(vec < 1.0)

    def test_distinct_labels_distinct_vectors(self):
        params = small_params(dim=16, buckets=512)
        a = encode_label("robbery", params)
        b = encode_label("robbery2", params)
        assert not np.array_equal(a, b)

    def test_separator_distinguishes_field_boundaries(self):
        params = small_params(dim=16, buckets=512)
        a = encode_fact(clues(m="ab", a="c", h="d"), params)
        b = encode_fact(clues(m="a", a="bc", h="d"), params)
        assert not np.array_equal(a, b)
        assert CLUE_SEPARATOR in clue_text(clues())

    def test_dimension_mismatch_rejected(self):
        params = small_params()
        with pytest.raises(ValueError):
            project_features(np.zeros(99), params)


class TestDropout:
    def test_rate_zero_is_identity(self):
        vec = np.arange(8, dtype=float)
        out = apply_dropout_noise(vec, DropoutSpec(rate=0.0, seed=1))
        assert np.array_equal(out, vec)

    def test_same_seed_same_mask(self):
        vec = np.ones(64)
        spec = DropoutSpec(rate=0.5, seed=123)
        assert np.array_equal(apply_dropout_noise(vec, spec), apply_dropout_noise(vec, spec))

    def test_survivors_scaled(self):
        vec = np.ones(256)
        out = apply_dropout_noise(vec, DropoutSpec(rate=0.2, seed=9))
        kept = out[out != 0]
        assert np.allclose(kept, 1.0 / 0.8)

    def test_inverted_dropout_is_unbiased(self):
        # Monte-Carlo: the mean over many seeded masks approaches the input;
        # the vector mean sits within 2%, components within ~5 sigma
        vec = np.ones(64)
        total = np.zeros(64)
        seeds = 4000
        for seed in range(seeds):
            total += apply_dropout_noise(vec, DropoutSpec(rate=0.3, seed=seed))
        mean = total / seeds
        assert abs(mean.mean() - 1.0) < 0.02
        assert np.all(np.abs(mean - 1.0) < 0.05)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            DropoutSpec(rate=1.0, seed=0)


class TestEmbeddingTable:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#dim 3\ncase-1\t0.5 -1.25 3.0\ncharge:0\t1 2 3\n", encoding="utf-8")
        table = load_embedding_table(path)
        assert table.dim == 3
        assert np.array_equal(table["case-1"], [0.5, -1.25, 3.0])
        assert np.array_equal(table[label_key(Task.CHARGE, 0)], [1, 2, 3])

    def test_label_key_convention(self):
        assert label_key(Task.ARTICLE, 2) == "article:2"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("case-1\t1 2 3\n", encoding="utf-8")
        with pytest.raises(DataError, match="#dim"):
            load_embedding_table(path)

    def test_wrong_arity_names_line(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#dim 3\ncase-1\t1 2\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_embedding_table(path)

    def test_missing_id_lookup(self):
        table = EmbeddingTable(2, {"a": np.zeros(2)})
        with pytest.raises(DataError, match="no precomputed embedding"):
            table["b"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("#dim 2\na\t1 2\nb\t0.5 nan\n", "line 3: non-finite"),
            ("#dim 2\na\tinf 2\n", "line 2: non-finite"),
            ("#dim 0\n", "line 1: dimension must be positive"),
        ],
    )
    def test_bad_values_name_file_and_line(self, tmp_path, text, message):
        path = tmp_path / "emb.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"emb.tsv {message}"):
            load_embedding_table(path)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(3, {"a": np.zeros(2)})


class TestParamValidation:
    def test_ngram_order(self):
        with pytest.raises(ValueError):
            HashedEncoderParams(
                projection=np.zeros((2, 8)), bias=np.zeros(2),
                bucket_count=8, ngram_min=3, ngram_max=1,
            )

    def test_projection_shape(self):
        with pytest.raises(ValueError):
            HashedEncoderParams(projection=np.zeros((2, 7)), bias=np.zeros(2), bucket_count=8)

    def test_glorot_init_range(self):
        params = HashedEncoderParams.initialize(output_dim=4, bucket_count=100, seed=5)
        limit = np.sqrt(6.0 / (100 + 4))
        assert np.all(np.abs(params.projection) <= limit)
        assert not params.bias.any()
