import numpy as np
import pytest

import synth
from lexjudge import ConfigError, JudgmentClassifier, NotFittedError, SplitSpec, Task, split


@pytest.fixture(scope="module")
def fitted():
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=8, seed=21)
    train, val, test = split(corpus, SplitSpec(0.8, seed=2))
    clf = JudgmentClassifier(
        lexicon=lexicon, anchors=anchors,
        dim=16, bucket_count=256, heads=4,
        epochs=150, contrastive_epochs=4, negatives_per_anchor=4,
        seed=3,
    )
    clf.fit(train)
    return clf, train, test


class TestEstimatorSurface:
    def test_fit_returns_self_and_predicts_strings(self, fitted):
        clf, train, test = fitted
        preds = clf.predict(test, task="charge")
        assert preds.shape == (len(test),)
        assert set(preds) <= {"robbery", "theft", "fraud"}

    def test_score_high_on_separable_train(self, fitted):
        clf, train, test = fitted
        assert clf.score(train, task="charge") >= 0.95

    def test_predict_proba_rows_normalized(self, fitted):
        clf, _, test = fitted
        proba = clf.predict_proba(test, task="article")
        assert proba.shape == (len(test), 3)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_all_covers_tasks(self, fitted):
        clf, _, test = fitted
        out = clf.predict_all(test)
        assert set(out) == set(Task)

    def test_evaluate_reports(self, fitted):
        clf, train, _ = fitted
        reports = clf.evaluate(train)
        assert set(reports) == set(Task)
        assert all(0.0 <= r.f1 <= 1.0 for r in reports.values())

    def test_task_accepts_enum_or_string(self, fitted):
        clf, _, test = fitted
        a = clf.predict(test, task=Task.CHARGE)
        b = clf.predict(test, task="charge")
        assert list(a) == list(b)


class TestEstimatorProtocol:
    def test_get_params_round_trips_through_constructor(self):
        clf = JudgmentClassifier(dim=32, seed=9)
        clone = JudgmentClassifier(**clf.get_params())
        assert clone.get_params() == clf.get_params()

    def test_set_params_chains(self):
        clf = JudgmentClassifier()
        assert clf.set_params(dim=64, epochs=5) is clf
        assert clf.dim == 64 and clf.epochs == 5

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            JudgmentClassifier().set_params(bogus=1)

    def test_unfitted_predict_raises(self):
        corpus, _, _ = synth.separable_corpus(cases_per_charge=1, seed=4)
        with pytest.raises(NotFittedError):
            JudgmentClassifier().predict(corpus)

    def test_repr_mentions_params(self):
        assert "dim=256" in repr(JudgmentClassifier())

    def test_out_of_range_threshold_is_a_config_error(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=4)
        clf = JudgmentClassifier(lexicon=lexicon, anchors=anchors, threshold=0.0)
        with pytest.raises(ConfigError, match="threshold"):
            clf.fit(corpus)
