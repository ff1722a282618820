import math
from dataclasses import replace

import numpy as np
import pytest

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
from lexjudge import apply_dropout_noise
from lexjudge.contrastive import _sample_negatives, info_nce
from lexjudge.encoder import clue_text, featurize
from lexjudge.rng import derive

from contrastive_reference import contrastive_loss, cosine_sim, loss_from_similarities
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
            lambda theta: contrastive_objective(features, theta["projection"], bias, cfg, 0),
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
        loss = contrastive_objective(features, params.projection, params.bias, cfg)
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
        value = contrastive_objective(features, projection, bias, cfg, epoch).value

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
