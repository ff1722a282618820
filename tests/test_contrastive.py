import math

import numpy as np
import pytest

import synth
from lexjudge import (
    ConfigError,
    ContrastiveConfig,
    DivergenceError,
    DropoutSpec,
    HashedEncoderParams,
    contrastive_loss,
    contrastive_objective,
    cosine_sim,
    case_clues,
    loss_from_similarities,
    train_contrastive,
)
from lexjudge import autodiff as ad
from lexjudge.autodiff import Tensor


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
        # dim-8 instance; analytic side built from the autodiff ops
        rng = np.random.default_rng(5)
        anchor0 = rng.normal(size=8)
        positive = rng.normal(size=8)
        negatives = rng.normal(size=(4, 8))
        tau = 0.1

        def loss_tensor(anchor_t: Tensor) -> Tensor:
            a_hat = anchor_t * (1.0 / (anchor_t * anchor_t).sum().sqrt())
            sims = []
            for vec in [positive, *negatives]:
                v = vec / np.linalg.norm(vec)
                sims.append((a_hat * Tensor(v)).sum() * (1.0 / tau))
            scores = ad.concat([s.reshape((1,)) for s in sims], axis=0)
            return ad.logsumexp(scores.reshape((1, len(sims))), axis=1).sum() - sims[0]

        leaf = Tensor(anchor0.copy(), requires_grad=True)
        loss_tensor(leaf).backward()
        step = 1e-4
        for i in range(8):
            up = anchor0.copy(); up[i] += step
            down = anchor0.copy(); down[i] -= step
            numeric = (
                contrastive_loss(up, positive, list(negatives), tau)
                - contrastive_loss(down, positive, list(negatives), tau)
            ) / (2 * step)
            rel = abs(leaf.grad[i] - numeric) / max(abs(numeric), 1e-8)
            assert rel <= 1e-4

    def test_projection_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        features = rng.uniform(0.0, 1.0, size=(6, 16))
        projection = rng.normal(size=(8, 16)) * 0.3
        bias = rng.normal(size=8) * 0.1
        cfg = tiny_config(epochs=1)
        _, grads = contrastive_objective(features, projection, bias, cfg, epoch=0)
        step = 1e-4
        worst = 0.0
        for i in range(projection.shape[0]):
            for j in range(projection.shape[1]):
                up = projection.copy(); up[i, j] += step
                down = projection.copy(); down[i, j] -= step
                f_up, _ = contrastive_objective(features, up, bias, cfg, 0, with_grads=False)
                f_down, _ = contrastive_objective(features, down, bias, cfg, 0, with_grads=False)
                numeric = (f_up - f_down) / (2 * step)
                rel = abs(grads["projection"][i, j] - numeric) / max(abs(numeric), 1e-6)
                worst = max(worst, rel)
        assert worst <= 1e-4


class TestTrainContrastive:
    def build_clue_sets(self, n_per=17, cap=None):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=n_per, seed=9)
        return [
            case_clues(case, lexicon, anchors, 0.8, use_clue_tracing=True)
            for case in corpus.cases[:cap]
        ]

    def test_descent_on_50_synthetic_cases_30_epochs(self):
        clue_sets = self.build_clue_sets(cap=50)
        assert len(clue_sets) == 50
        params = HashedEncoderParams.initialize(output_dim=16, bucket_count=256, seed=2)
        cfg = tiny_config(epochs=30, negatives_per_anchor=7)
        trained, history = train_contrastive(params, clue_sets, cfg)
        assert len(history) == 30
        assert history[-1] < history[0]
        assert not np.array_equal(trained.projection, params.projection)

    def test_zero_encoder_diverges_with_diagnostic(self):
        # all-zero projection collapses every view to the zero vector, so
        # the cosine similarities are undefined and training must abort
        clue_sets = self.build_clue_sets(n_per=3)
        params = HashedEncoderParams(
            projection=np.zeros((8, 256)), bias=np.zeros(8), bucket_count=256
        )
        with pytest.raises(DivergenceError, match="epoch 0"):
            with np.errstate(invalid="ignore"):
                train_contrastive(params, clue_sets, tiny_config(epochs=2))

    def test_zero_epochs_is_noop(self):
        clue_sets = self.build_clue_sets(n_per=3)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=2)
        trained, history = train_contrastive(params, clue_sets, tiny_config(epochs=0))
        assert history == []
        assert np.array_equal(trained.projection, params.projection)

    def test_too_many_negatives_rejected(self):
        clue_sets = self.build_clue_sets(n_per=2)  # 6 cases
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=2)
        with pytest.raises(ConfigError):
            train_contrastive(params, clue_sets, tiny_config(negatives_per_anchor=6))

    def test_deterministic(self):
        clue_sets = self.build_clue_sets(n_per=4)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=2)
        cfg = tiny_config(epochs=4)
        a, hist_a = train_contrastive(params, clue_sets, cfg)
        b, hist_b = train_contrastive(params, clue_sets, cfg)
        assert hist_a == hist_b
        assert np.array_equal(a.projection, b.projection)


class TestConfigValidation:
    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            tiny_config(temperature=0.0)

    def test_negatives_at_least_one(self):
        with pytest.raises(ValueError):
            tiny_config(negatives_per_anchor=0)
