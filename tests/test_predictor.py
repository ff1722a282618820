import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lexjudge import predict_label, predict_proba, score_case

from gat_reference import ce_loss


class TestScoreCase:
    def test_orthogonal_gives_zero_scores(self):
        hf = np.array([1.0, 0.0, 0.0])
        labels = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert not score_case(hf, labels).any()

    def test_identity_rows_one_hot(self):
        hf = np.zeros(4)
        hf[2] = 1.0
        np.testing.assert_allclose(score_case(hf, np.eye(4)), [0, 0, 1, 0])

    def test_matches_bruteforce_dot_products(self):
        rng = np.random.default_rng(3)
        hf = rng.normal(size=4)
        labels = rng.normal(size=(5, 4))
        got = score_case(hf, labels)
        expected = [sum(hf[d] * labels[k][d] for d in range(4)) for k in range(5)]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            score_case(np.ones(3), np.ones((2, 4)))


class TestPredictProba:
    def test_uniform(self):
        np.testing.assert_allclose(predict_proba(np.zeros(3)), [1 / 3] * 3, atol=1e-12)

    def test_ln2_closed_form(self):
        np.testing.assert_allclose(
            predict_proba(np.array([math.log(2.0), 0.0])), [2 / 3, 1 / 3], atol=1e-12
        )

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=10))
    def test_normalized_and_positive(self, logits):
        proba = predict_proba(np.array(logits))
        assert np.all(proba > 0)
        assert proba.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.normal(size=6) * 3
            direct = np.exp(logits) / np.exp(logits).sum()
            np.testing.assert_allclose(predict_proba(logits), direct, atol=1e-12)

    def test_bytes_of_the_max_shifted_formula(self):
        # every reader of score rows takes its probabilities from this kernel
        rng = np.random.default_rng(8)
        for size in (1, 2, 5, 9, 33):
            logits = rng.normal(size=size) * 10
            shifted = np.exp(logits - logits.max())
            assert predict_proba(logits).tobytes() == (shifted / shifted.sum()).tobytes()

    def test_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0])
        a = predict_proba(logits)
        b = predict_proba(logits + 123.0)
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestPredictLabel:
    def test_argmax(self):
        assert predict_label(np.array([0.1, 0.9, 0.3])) == 1

    def test_tie_breaks_to_lowest_id(self):
        assert predict_label(np.array([0.5, 0.5])) == 0

    def test_one_hot(self):
        for k in range(4):
            scores = np.zeros(4)
            scores[k] = 1.0
            assert predict_label(scores) == k

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scores = rng.normal(size=5)
            assert predict_label(scores) == predict_label(np.exp(scores) * 3 + 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            predict_label(np.array([]))


class TestCeLoss:
    def test_perfect_prediction(self):
        assert ce_loss(np.array([0.0, 1.0, 0.0]), 1) == pytest.approx(0.0)

    def test_uniform_three(self):
        assert ce_loss(np.ones(3) / 3, 0) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_quarter(self):
        proba = np.array([0.25, 0.75])
        assert ce_loss(proba, 0) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_gold_out_of_range(self):
        with pytest.raises(ValueError):
            ce_loss(np.ones(2) / 2, 2)

    def test_nonnegative_zero_iff_certain(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            logits = rng.normal(size=4)
            proba = predict_proba(logits)
            gold = int(rng.integers(0, 4))
            assert ce_loss(proba, gold) > 0.0

    def test_softmax_shift_invariance_of_ce(self):
        logits = np.array([1.0, -0.5, 0.25, 3.0])
        a = ce_loss(predict_proba(logits), 2)
        b = ce_loss(predict_proba(logits + 57.0), 2)
        assert abs(a - b) <= 1e-9
