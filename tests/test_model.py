import numpy as np
import pytest

import synth
from lexjudge import (
    ConfigError, Corpus, JudgmentClassifier, NotFittedError, SplitSpec, Task, split,
)


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

    def test_empty_corpus_gives_empty_arrays(self, fitted):
        clf, _, test = fitted
        empty = Corpus([], test.vocabs)
        proba = clf.predict_proba(empty, task="article")
        assert proba.shape == (0, 3) and proba.dtype == np.float64
        assert clf.predict(empty, task="article").shape == (0,)
        assert all(preds.shape == (0,) for preds in clf.predict_all(empty).values())

    def test_predict_all_covers_tasks(self, fitted):
        clf, _, test = fitted
        out = clf.predict_all(test)
        assert set(out) == set(Task)
        for task in Task:
            assert list(out[task]) == list(clf.predict(test, task=task))

    def test_evaluate_reports(self, fitted):
        clf, train, _ = fitted
        reports = clf.evaluate(train)
        assert set(reports) == set(Task)
        assert all(0.0 <= r.f1 <= 1.0 for r in reports.values())

    def test_untrained_task_is_a_config_error(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=2, seed=21)
        clf = JudgmentClassifier(
            lexicon=lexicon, anchors=anchors, dim=8, bucket_count=64, heads=2,
            epochs=2, contrastive_epochs=0, tasks=("charge",), seed=3,
        ).fit(corpus)
        for call in (clf.predict, clf.predict_proba, clf.score):
            with pytest.raises(ConfigError, match=r"'article'.*\['charge'\]"):
                call(corpus, "article")
            with pytest.raises(
                ConfigError, match=r"'bogus'.*\['imprisonment', 'charge', 'article'\]"
            ):
                call(corpus, "bogus")

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

    def test_repeated_task_is_a_config_error(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=4)
        clf = JudgmentClassifier(lexicon=lexicon, anchors=anchors, tasks=("charge", "charge"))
        with pytest.raises(ConfigError, match="invalid train section: tasks must not repeat"):
            clf.fit(corpus)

    def test_unallocatable_encoder_is_a_config_error(self):
        """2**40 × 4096 float64 is 32 PiB: no allocation is attempted that
        could succeed."""
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=4)
        clf = JudgmentClassifier(lexicon=lexicon, anchors=anchors, dim=2**40, bucket_count=4096)
        with pytest.raises(ConfigError, match="invalid encoder section: Unable to allocate"):
            clf.fit(corpus)

    def test_out_of_range_threshold_is_a_config_error(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=4)
        clf = JudgmentClassifier(lexicon=lexicon, anchors=anchors, threshold=0.0)
        with pytest.raises(ConfigError, match="threshold"):
            clf.fit(corpus)
