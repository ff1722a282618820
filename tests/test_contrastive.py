import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import synth
from lexjudge import (
    ConfigError,
    ContrastiveConfig,
    DivergenceError,
    DropoutSpec,
    HashedEncoderParams,
    contrastive_objective,
    case_clues,
    train_contrastive,
)
from lexjudge import AdamState, adam_step, apply_dropout_noise
from lexjudge.autodiff import t_matmul
from lexjudge.contrastive import _sample_negatives, info_nce
from lexjudge.encoder import HashedRows, clue_text, featurize
from lexjudge.rng import SplitMix64, derive

from contrastive_reference import (
    contrastive_loss, cosine_sim, loss_from_similarities, negatives_reference, sample_distinct,
)
from gradcheck import worst_gradient_error


class TestCosineSim:
    def test_identity(self):
        assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_45_degrees(self):
        assert cosine_sim([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_sim([1.0], [1.0, 2.0])


class TestContrastiveLoss:
    def test_perfect_positive_one_orthogonal_negative_tau_1(self):
        anchor = np.array([1.0, 0.0])
        loss = contrastive_loss(anchor, anchor * 2, [np.array([0.0, 1.0])], 1.0)
        assert loss == pytest.approx(math.log(1 + math.exp(-1.0)), abs=1e-12)

    def test_equal_positive_and_negative_gives_ln2(self):
        anchor = np.array([1.0, 1.0])
        other = np.array([1.0, 0.0])
        for tau in (1.0, 0.25, 0.05):
            assert contrastive_loss(anchor, other, [other], tau) == pytest.approx(
                math.log(2.0), abs=1e-12
            )

    def test_tau_half(self):
        anchor = np.array([1.0, 0.0])
        loss = contrastive_loss(anchor, anchor, [np.array([0.0, 1.0])], 0.5)
        assert loss == pytest.approx(math.log(1 + math.exp(-2.0)), abs=1e-12)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            anchor = rng.normal(size=dim)
            positive = rng.normal(size=dim)
            negatives = [rng.normal(size=dim) for _ in range(int(rng.integers(1, 6)))]
            tau = float(rng.uniform(0.05, 1.0))
            ours = contrastive_loss(anchor, positive, negatives, tau)
            pos = cosine_sim(anchor, positive)
            negs = [cosine_sim(anchor, n) for n in negatives]
            naive = -math.log(
                math.exp(pos / tau)
                / (math.exp(pos / tau) + sum(math.exp(s / tau) for s in negs))
            )
            assert ours == pytest.approx(naive, abs=1e-10)

    def test_always_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            loss = contrastive_loss(
                rng.normal(size=4), rng.normal(size=4),
                [rng.normal(size=4) for _ in range(3)], 0.2,
            )
            assert loss > 0.0

    def test_monotone_in_negative_similarity(self):
        base = loss_from_similarities(0.7, [0.1, 0.3], 0.1)
        raised = loss_from_similarities(0.7, [0.1, 0.4], 0.1)
        assert raised > base

    def test_logsumexp_stable_at_low_temperature(self):
        loss = loss_from_similarities(1.0, [-1.0, 1.0], 0.01)
        assert math.isfinite(loss)
        # dominated by the tied negative: -log(1/(2 + e^-200)) ~ ln 2
        assert loss == pytest.approx(math.log(2.0), abs=1e-10)

    def test_requires_a_negative(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.ones(2), np.ones(2), [], 0.1)


def tiny_config(**overrides):
    defaults = dict(
        temperature=0.05,
        negatives_per_anchor=3,
        epochs=5,
        learning_rate=0.01,
        dropout=DropoutSpec(rate=0.1, seed=21),
        seed=33,
    )
    defaults.update(overrides)
    return ContrastiveConfig(**defaults)


class TestGradients:
    def test_anchor_gradient_matches_central_differences(self):
        # dim-8 instance; analytic side is the InfoNCE step's backward
        rng = np.random.default_rng(5)
        anchor0 = rng.normal(size=8)
        positive = rng.normal(size=8)
        negatives = rng.normal(size=(4, 8))
        tau = 0.1

        _, backward = info_nce(
            anchor0[None].copy(), positive[None], negatives, np.array([[0, 1, 2, 3]]), tau
        )
        g_anchor, _, _ = backward(1.0)
        step = 1e-4
        for i in range(8):
            up = anchor0.copy(); up[i] += step
            down = anchor0.copy(); down[i] -= step
            numeric = (
                contrastive_loss(up, positive, list(negatives), tau)
                - contrastive_loss(down, positive, list(negatives), tau)
            ) / (2 * step)
            rel = abs(g_anchor[0, i] - numeric) / max(abs(numeric), 1e-8)
            assert rel <= 1e-4

    def test_projection_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        features = rng.uniform(0.0, 1.0, size=(6, 16))
        projection = rng.normal(size=(8, 16)) * 0.3
        bias = rng.normal(size=8) * 0.1
        cfg = tiny_config(epochs=1)
        worst = worst_gradient_error(
            lambda theta: contrastive_objective(
                HashedRows(features, slice(None)), theta["projection"], bias, cfg, 0
            ),
            {"projection": projection}, ["projection"], step=1e-4,
        )
        assert worst <= 1e-4

    def test_zero_view_row_has_no_loss_term_and_no_gradient(self):
        """A row whose features are all zero, with a zero bias, projects to
        a zero view row in every view. Its cosines are 0 and its anchor has
        no loss term, so the loss is finite, training runs to the end, and
        no RuntimeWarning is raised (one would be an error under this
        suite)."""
        features = np.ones((5, 4))
        features[2] = 0.0
        params = HashedEncoderParams(
            projection=np.full((3, 4), 0.1), bias=np.zeros(3), bucket_count=4
        )
        cfg = tiny_config(negatives_per_anchor=2)
        loss = contrastive_objective(
            HashedRows(features, slice(None)), params.projection, params.bias, cfg
        )
        assert np.isfinite(loss.value)
        assert all(np.isfinite(g).all() for g in loss.backward().values())
        _, history = train_contrastive(params, features, cfg)
        assert len(history) == cfg.epochs and np.isfinite(history).all()


class TestZeroViewRows:
    """``info_nce`` on views with a zero anchor, positive and negative row."""

    TAU = 0.1
    NEG_IDX = np.array([[0, 2], [1, 3], [0, 4], [2, 0], [1, 2]])

    def views(self):
        rng = np.random.default_rng(8)
        anchors, positives, negatives = (rng.normal(size=(5, 6)) for _ in range(3))
        anchors[1] = positives[3] = negatives[0] = 0.0
        return anchors, positives, negatives

    def test_value_is_the_mean_over_anchors_with_a_view(self):
        anchors, positives, negatives = self.views()

        def cos(u, v):
            return cosine_sim(u, v) if u.any() and v.any() else 0.0

        expected = np.mean([
            loss_from_similarities(
                cos(anchors[i], positives[i]),
                [cos(anchors[i], negatives[j]) for j in self.NEG_IDX[i]],
                self.TAU,
            )
            for i in (0, 2, 3, 4)
        ])
        value, _ = info_nce(anchors, positives, negatives, self.NEG_IDX, self.TAU)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_zero_rows_get_no_gradient_and_the_others_match_central_differences(self):
        views = self.views()
        grads = info_nce(*views, self.NEG_IDX, self.TAU)[1](1.0)
        step = 1e-5
        for view, grad, zero_row in zip(views, grads, (1, 3, 0)):
            assert not grad[zero_row].any()
            for i, j in np.ndindex(view.shape):
                if i == zero_row:  # moving a zero row at all gives its anchor a term
                    continue
                original = view[i, j]
                view[i, j] = original + step
                up, _ = info_nce(*views, self.NEG_IDX, self.TAU)
                view[i, j] = original - step
                down, _ = info_nce(*views, self.NEG_IDX, self.TAU)
                view[i, j] = original
                numeric = (up - down) / (2 * step)
                assert abs(grad[i, j] - numeric) <= 1e-6 * max(abs(numeric), 1.0)


class TestObjectiveMatchesOracle:
    @pytest.mark.parametrize("epoch", [0, 3])
    def test_value_is_mean_of_per_anchor_losses(self, epoch):
        """The batched objective equals the per-anchor oracle averaged over
        anchors, on the same three dropout views and negative draw."""
        rng = np.random.default_rng(7)
        features = rng.uniform(0.0, 1.0, size=(9, 24))
        projection = rng.normal(size=(8, 24)) * 0.3
        bias = rng.normal(size=8) * 0.1
        cfg = tiny_config(negatives_per_anchor=4)
        value = contrastive_objective(
            HashedRows(features, slice(None)), projection, bias, cfg, epoch
        ).value

        base = derive(cfg.dropout.seed, "contrastive-views", epoch)
        anchors, positives, negatives = (
            np.tanh(
                apply_dropout_noise(features, replace(cfg.dropout, seed=derive(base, view)))
                @ projection.T + bias
            )
            for view in range(3)
        )
        n = features.shape[0]
        draw = _sample_negatives(n, cfg.negatives_per_anchor, derive(cfg.seed, "epoch", epoch))
        expected = np.mean([
            contrastive_loss(
                anchors[i], positives[i], [negatives[j] for j in draw[i]], cfg.temperature
            )
            for i in range(n)
        ])
        assert abs(value - expected) <= 1e-12


class TestTrainContrastive:
    def build_features(self, params, n_per=17, cap=None):
        """The hashed rows of the synthetic cases' clue texts, one per case,
        as ``fit_model`` hands them to ``train_contrastive``."""
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=n_per, seed=9)
        return np.stack([
            featurize(clue_text(case_clues(case, lexicon, anchors, 0.8, True)), params)
            for case in corpus.cases[:cap]
        ])

    def test_descent_on_50_synthetic_cases_30_epochs(self):
        params = HashedEncoderParams.initialize(output_dim=16, bucket_count=256, seed=2)
        features = self.build_features(params, cap=50)
        assert len(features) == 50
        cfg = tiny_config(epochs=30, negatives_per_anchor=7)
        trained, history = train_contrastive(params, features, cfg)
        assert len(history) == 30
        assert history[-1] < history[0]
        assert not np.array_equal(trained.projection, params.projection)

    def test_zero_encoder_diverges_with_diagnostic(self):
        # all-zero projection collapses every view to the zero vector, so
        # the cosine similarities are undefined and training must abort
        params = HashedEncoderParams(
            projection=np.zeros((8, 256)), bias=np.zeros(8), bucket_count=256
        )
        features = self.build_features(params, n_per=3)
        with pytest.raises(DivergenceError, match="epoch 0"):
            with np.errstate(invalid="ignore"):
                train_contrastive(params, features, tiny_config(epochs=2))

    def test_zero_epochs_is_noop(self):
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=2)
        features = self.build_features(params, n_per=3)
        trained, history = train_contrastive(params, features, tiny_config(epochs=0))
        assert history == []
        assert np.array_equal(trained.projection, params.projection)

    def test_too_many_negatives_rejected(self):
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=2)
        features = self.build_features(params, n_per=2)  # 6 cases
        with pytest.raises(ConfigError):
            train_contrastive(params, features, tiny_config(negatives_per_anchor=6))

    def test_deterministic(self):
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=2)
        features = self.build_features(params, n_per=4)
        cfg = tiny_config(epochs=4)
        a, hist_a = train_contrastive(params, features, cfg)
        b, hist_b = train_contrastive(params, features, cfg)
        assert hist_a == hist_b
        assert np.array_equal(a.projection, b.projection)


class TestSampleNegatives:
    """The vectorized draw against ``negatives_reference``, which draws one
    anchor at a time from its own sequential stream."""

    @given(
        shape=st.integers(0, 80).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(0, n + 1))
        ),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(shape=(64, 7), seed=11)  # n a power of two: the rejection limit is 2**64
    @example(shape=(1, 1), seed=0)  # a power of two, and n <= count
    @example(shape=(16, 15), seed=2)  # count = n - 1, n a power of two
    @example(shape=(13, 12), seed=3)  # count = n - 1: every other case
    @example(shape=(120, 7), seed=derive(4242, "contrastive"))  # the bench shape
    @example(shape=(7, 7), seed=5)  # n <= count
    @example(shape=(0, 3), seed=5)  # no anchors: nothing to draw
    def test_equals_the_sequential_draws(self, shape, seed):
        n, count = shape
        try:
            expected = negatives_reference(n, count, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                _sample_negatives(n, count, seed)
            return
        drawn = _sample_negatives(n, count, seed)
        assert drawn.dtype == np.intp
        assert np.array_equal(drawn, expected)


class TestSampleDistinct:
    """The sequential spec of one anchor's negatives, in the oracle module."""

    def test_sample_distinct_excludes(self):
        gen = SplitMix64(9)
        sample = sample_distinct(gen, 10, 5, exclude=3)
        assert len(sample) == len(set(sample)) == 5
        assert 3 not in sample
        assert all(0 <= v < 10 for v in sample)

    def test_sample_distinct_overdraw_rejected(self):
        with pytest.raises(ValueError):
            sample_distinct(SplitMix64(9), 4, 4, exclude=0)


def dense_training(params, features, cfg):
    """``train_contrastive`` as a dense loop: every view's dropout drawn at
    every flat index, the projection gradient over every column, and
    ``adam_step`` over the whole projection."""
    theta = {"projection": params.projection, "bias": params.bias}
    state = AdamState.initialize(theta, learning_rate=cfg.learning_rate)
    history = []
    for epoch in range(cfg.epochs):
        base = derive(cfg.dropout.seed, "contrastive-views", epoch)
        views = [
            apply_dropout_noise(features, replace(cfg.dropout, seed=derive(base, view)))
            for view in range(3)
        ]
        outs = [np.tanh(view @ theta["projection"].T + theta["bias"]) for view in views]
        neg_idx = _sample_negatives(
            len(features), cfg.negatives_per_anchor, derive(cfg.seed, "epoch", epoch)
        )
        value, backward = info_nce(*outs, neg_idx, cfg.temperature)
        if not np.isfinite(value):
            raise DivergenceError(f"contrastive loss diverged at epoch {epoch}")
        history.append(float(value))
        g_pre = [g * (1.0 - out * out) for g, out in zip(backward(1.0), outs)]
        g_p = [t_matmul(view, g).T for view, g in zip(views, g_pre)]
        g_b = [g.sum(axis=0) for g in g_pre]
        grads = {"projection": g_p[0] + g_p[1] + g_p[2], "bias": g_b[0] + g_b[1] + g_b[2]}
        theta, state = adam_step(theta, grads, state)
    return theta, history


class TestCompactTraining:
    """``train_contrastive`` trains only the used bucket columns, and
    matches the dense loop bit for bit."""

    def check(self, features, params, cfg):
        theta, expected = dense_training(params, features, cfg)
        trained, history = train_contrastive(params, features, cfg)
        assert history == expected
        for got, want in ((trained.projection, theta["projection"]), (trained.bias, theta["bias"])):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        return trained

    def test_rows_with_unused_buckets(self):
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=256, seed=2)
        features = TestTrainContrastive().build_features(params, n_per=13)  # 39 rows
        unused = ~features.any(axis=0)
        assert len(features) % 32 and 0 < unused.sum() < 256
        trained = self.check(features, params, tiny_config(epochs=4, negatives_per_anchor=7))
        assert np.array_equal(trained.projection[:, unused], params.projection[:, unused])
        assert not np.array_equal(trained.projection[:, ~unused], params.projection[:, ~unused])

    def test_rows_that_use_every_bucket(self):
        rng = np.random.default_rng(13)
        features = rng.uniform(0.0, 1.0, size=(21, 32))
        params = HashedEncoderParams(
            projection=rng.normal(size=(6, 32)) * 0.3, bias=rng.normal(size=6) * 0.1,
            bucket_count=32,
        )
        self.check(features, params, tiny_config(epochs=3, dropout=DropoutSpec(0.3, 4)))

    def test_all_zero_rows_diverge_at_epoch_0(self):
        """No row touches a bucket, so no column is used; every view is
        zero, and so is every view row with a zero bias."""
        params = HashedEncoderParams.initialize(output_dim=4, bucket_count=16, seed=3)
        features = np.zeros((6, 16))
        message = "^contrastive loss diverged at epoch 0$"
        with pytest.raises(DivergenceError, match=message):
            dense_training(params, features, tiny_config())
        with pytest.raises(DivergenceError, match=message):
            train_contrastive(params, features, tiny_config())


class TestConfigValidation:
    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            tiny_config(temperature=0.0)

    @pytest.mark.parametrize("field", ["temperature", "learning_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_number_refused(self, field, value):
        """An infinite temperature scales every similarity to 0, which makes
        the stage a silent no-op; NaN compares false with every bound."""
        with pytest.raises(ValueError, match=f"{field} must be positive and finite, got"):
            tiny_config(**{field: value})

    def test_negatives_at_least_one(self):
        with pytest.raises(ValueError):
            tiny_config(negatives_per_anchor=0)
