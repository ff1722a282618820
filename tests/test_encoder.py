import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import lexjudge.encoder
from encoder_reference import featurize_reference
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
    load_embedding_table,
)
from lexjudge.encoder import (
    CLUE_SEPARATOR, clue_text, label_key, project_features, write_embedding_table,
)
from lexjudge.corpus import Task
from lexjudge.rng import derive, fnv1a_64, stream_uniform


def clues(m="greed", a="seized the bag", h="injury"):
    return ClueSet(
        motivation=m, action=a, harm=h,
        provenance={k: Provenance.EXACT for k in ("motivation", "action", "harm")},
    )


def small_params(dim=8, buckets=64, seed=3):
    return HashedEncoderParams.initialize(
        output_dim=dim, bucket_count=buckets, seed=seed
    )


def hashing_params(buckets=64, ngram_min=1, ngram_max=3):
    return HashedEncoderParams(
        projection=np.zeros((1, buckets)), bias=np.zeros(1),
        bucket_count=buckets, ngram_min=ngram_min, ngram_max=ngram_max,
    )


@pytest.fixture
def memo(monkeypatch):
    """An empty n-gram memo in place of the module's for one test."""
    empty = {}
    monkeypatch.setattr(lexjudge.encoder, "_ngram_hashes", empty)
    return empty


class TestHashNgram:
    def test_published_fnv1a_vector(self):
        # published FNV-1a 64 test vector for "a"
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_mod_small_bucket(self):
        # "a" hashes to 0xAF63DC4C8601EC8C, bucket 4 of 8
        vec = featurize("a", hashing_params(buckets=8, ngram_min=1, ngram_max=1))
        assert np.array_equal(vec, np.eye(8)[4])

    def test_deterministic(self, memo):
        params = hashing_params(buckets=4096)
        first = featurize("same input", params)
        assert memo  # the second call reads the memo
        assert featurize("same input", params).tobytes() == first.tobytes()
        assert first.tobytes() == featurize("same input", hashing_params(4096)).tobytes()

    def test_rejects_empty(self, memo):
        # the empty string is never an n-gram: nothing is hashed or stored
        params = hashing_params(ngram_min=2, ngram_max=3)
        assert not featurize("", params).any()
        assert not featurize("a", params).any()
        assert memo == {}


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
        params = hashing_params(buckets=64, ngram_min=1, ngram_max=2)
        vec = featurize("ab", params)
        buckets = {fnv1a_64(g.encode("utf-8")) % 64 for g in ("a", "b", "ab")}
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


# ASCII, CJK, astral-plane emoji and the clue separator
CHARACTERS = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E),
    st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
    st.characters(min_codepoint=0x1F600, max_codepoint=0x1F64F),
    st.just(CLUE_SEPARATOR),
)
NGRAM_RANGES = [(1, 1), (1, 3), (2, 2), (2, 4), (3, 5)]


class TestFeaturizeMatchesReference:
    @given(
        text=st.text(CHARACTERS, max_size=40),
        buckets=st.sampled_from([1, 7, 64, 2048]),
        ngrams=st.sampled_from(NGRAM_RANGES),
    )
    @example(text="", buckets=64, ngrams=(1, 3))
    @example(text="ab", buckets=7, ngrams=(3, 5))
    @example(text="\U0001F600\u4e2d" + CLUE_SEPARATOR + "a", buckets=2048, ngrams=(1, 3))
    def test_bytes_equal_the_reference(self, text, buckets, ngrams):
        params = hashing_params(buckets, *ngrams)
        expected = featurize_reference(text, params).tobytes()
        assert featurize(text, params).tobytes() == expected
        assert featurize(text, params).tobytes() == expected  # from the memo

    def test_earlier_texts_do_not_change_later_features(self, memo):
        params = hashing_params(buckets=7)
        featurize("seized the bag \u62a2\u52ab", params)
        later = "the bag was seized \U0001F600"
        assert featurize(later, params).tobytes() == featurize_reference(later, params).tobytes()

    def test_memo_holds_hashes_not_buckets(self, memo):
        # the memo filled under one bucket count serves another unchanged
        small, large = hashing_params(buckets=7), hashing_params(buckets=2048)
        text = "greed" + CLUE_SEPARATOR + "seized the bag" + CLUE_SEPARATOR + "\u4f24\u5bb3"
        for params in (small, large, small, large):
            assert featurize(text, params).tobytes() == featurize_reference(text, params).tobytes()

    def test_new_weights_keep_the_features(self):
        params = small_params()
        before = featurize("some clue text", params)
        moved = dataclasses.replace(
            params, projection=params.projection + 1.0, bias=params.bias + 1.0
        )
        assert featurize("some clue text", moved).tobytes() == before.tobytes()

    def test_params_hold_no_cache(self):
        assert [f.name for f in dataclasses.fields(HashedEncoderParams)] == [
            "projection", "bias", "bucket_count", "ngram_min", "ngram_max",
        ]

    def test_memo_stops_growing_at_its_cap(self, monkeypatch, memo):
        monkeypatch.setattr(lexjudge.encoder, "HASH_MEMO_CAP", 5)
        params = hashing_params(buckets=64)
        text = "abcdefghij"
        assert featurize(text, params).tobytes() == featurize_reference(text, params).tobytes()
        assert len(memo) == 5
        assert featurize(text + "klm", params).tobytes() == (
            featurize_reference(text + "klm", params).tobytes()
        )
        assert len(memo) == 5


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

    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_nonzero_draws_match_the_dense_mask(self, rate):
        """Uniforms drawn only at nonzero features give the mask a uniform
        at every cell gives: an all-zero row, a fully dense row, a sparse
        row and the last flat index."""
        rng = np.random.default_rng(11)
        features = np.zeros((4, 50))
        features[1] = rng.uniform(0.1, 1.0, 50)
        features[2, [0, 7, 33]] = [0.5, 2.0, 1e-300]
        features[3, -1] = 3.0
        spec = DropoutSpec(rate=rate, seed=derive(5, "view"))
        u = stream_uniform(spec.seed, features.size).reshape(features.shape)
        dense = np.where(u >= rate, features / (1.0 - rate), 0.0)
        for out in (
            apply_dropout_noise(features, spec),
            apply_dropout_noise(features, spec, np.flatnonzero(features)),
        ):
            assert np.array_equal(out.view(np.int64), dense.view(np.int64))
        if rate:
            assert 0 < np.count_nonzero(dense[1]) < 50


class TestEmbeddingTable:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "emb.tsv"
        path.write_text("#dim 3\ncase-1\t0.5 -1.25 3.0\ncharge:0\t1 2 3\n", encoding="utf-8")
        table = load_embedding_table(path)
        assert table.dim == 3
        assert np.array_equal(table["case-1"], [0.5, -1.25, 3.0])
        assert np.array_equal(table[label_key(Task.CHARGE, 0)], [1, 2, 3])

    def test_writer_round_trips_bit_exactly_in_order(self, tmp_path):
        """Every value, -0.0, a subnormal and +-1e308 included, reloads with
        the same bits, and the ids stay in the order written."""
        rows = [
            ("case-2", np.array([-0.0, 5e-324, 0.1])),
            ("case-1", np.array([1e308, -1e308, 1 / 3])),
            (label_key(Task.CHARGE, 0), np.array([2.5, -1.25, 7.0])),
        ]
        path = tmp_path / "emb.tsv"
        write_embedding_table(path, 3, rows)
        table = load_embedding_table(path)
        assert len(table) == len(rows)
        assert [line.split("\t")[0] for line in path.read_text().splitlines()[1:]] == [
            key for key, _ in rows
        ]
        for key, vector in rows:
            assert (table[key].view(np.int64) == vector.view(np.int64)).all()

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read embedding file .*missing.tsv"):
            load_embedding_table(tmp_path / "missing.tsv")

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

    @pytest.mark.parametrize("name", ["bucket_count", "ngram_min", "ngram_max"])
    @pytest.mark.parametrize("value", [8.0, 2.5, True])
    def test_integer_fields_reject_floats_and_bools(self, name, value):
        fields = {"bucket_count": 8, "ngram_min": 1, "ngram_max": 3, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            HashedEncoderParams(projection=np.zeros((2, 8)), bias=np.zeros(2), **fields)

    def test_projection_shape(self):
        with pytest.raises(ValueError):
            HashedEncoderParams(projection=np.zeros((2, 7)), bias=np.zeros(2), bucket_count=8)

    def test_glorot_init_range(self):
        params = HashedEncoderParams.initialize(output_dim=4, bucket_count=100, seed=5)
        limit = np.sqrt(6.0 / (100 + 4))
        assert np.all(np.abs(params.projection) <= limit)
        assert not params.bias.any()
