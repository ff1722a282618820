"""The readers of ``FittedModel.score_rows`` (``predict_records``,
``evaluate_model`` and the estimator's ``predict``, ``predict_all``,
``predict_proba`` and ``score``) read rows that ``score_case`` checked as
it made them, through the unchecked ``best_label`` and ``softmax``
kernels. They must give the bytes that the public checked ``score_case``,
``predict_label`` and ``predict_proba`` give on the same cases, and a
non-finite label matrix must still stop them with ``ValueError``."""

import dataclasses
import json

import numpy as np
import pytest

import lexjudge.trainer as trainer
from lexjudge import (
    ContrastiveConfig, DropoutSpec, HashedEncoderParams, JudgmentClassifier, TrainConfig,
    evaluate_model, load_corpus, load_lexicon, predict_label, predict_proba, predict_records,
    score_case,
)
from lexjudge.metrics import report


@pytest.fixture(scope="module")
def trace_fit(lexicon_path, trace_corpus_path):
    corpus = load_corpus(trace_corpus_path)
    lexicon, anchors = load_lexicon(lexicon_path)
    model = trainer.fit_model(
        corpus,
        encoder_params=HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=1),
        lexicon=lexicon,
        anchors=anchors,
        contrastive_cfg=ContrastiveConfig(
            epochs=2, negatives_per_anchor=3, dropout=DropoutSpec(0.1, 4), seed=5
        ),
        train_cfg=TrainConfig(epochs=3, seed=6, heads=2),
    ).model
    return model, corpus


def random_models(model, seeds=range(4)):
    """``model`` with seeded random finite label matrices; seed 0 scales
    them by 1e150, so that each softmax is one-hot, and seed 1 repeats
    one row to force ties."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        matrices = {}
        for task, matrix in model.label_matrices.items():
            new = rng.normal(size=matrix.shape) * (1e150 if seed == 0 else 1.0)
            if seed == 1:
                new[:] = new[0]
            matrices[task] = new
        yield dataclasses.replace(model, label_matrices=matrices)


def models(trace_fit):
    model, corpus = trace_fit
    return [(model, corpus)] + [(m, corpus) for m in random_models(model)]


def checked_rows(model, corpus):
    """Per case and task, (scores, label id, probabilities) from the public
    checked functions."""
    out = []
    for case in corpus:
        hf = model.fact_vector(case)
        for task in model.tasks:
            scores = score_case(hf, model.label_matrices[task])
            out.append((case, task, predict_label(scores), predict_proba(scores)))
    return out


def jsonl(records):
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records).encode()


def test_predict_records_equal_the_checked_path(trace_fit):
    for model, corpus in models(trace_fit):
        expected = [
            {
                "id": case.id,
                "task": task.value,
                "pred": model.vocabs[task].surface(label),
                "proba": [float(p) for p in proba],
            }
            for case, task, label, proba in checked_rows(model, corpus)
        ]
        assert jsonl(predict_records(model, corpus)) == jsonl(expected)


def test_evaluate_model_equals_the_checked_path(trace_fit):
    for model, corpus in models(trace_fit):
        rows = checked_rows(model, corpus)
        for task in model.tasks:
            golds = [
                model.vocabs[task].label_id(corpus.vocab(task).surface(i))
                for i in corpus.gold_ids(task)
            ]
            preds = [label for _, t, label, _ in rows if t is task]
            expected = report(golds, preds, model.vocabs[task].size, task=task)
            assert repr(evaluate_model(model, corpus)[task]) == repr(expected)
            assert repr(evaluate_model(model, corpus, tasks=(task,))[task]) == repr(expected)


def test_estimator_equals_the_checked_path(trace_fit):
    clf = JudgmentClassifier()
    for model, corpus in models(trace_fit):
        clf.model_ = model
        rows = checked_rows(model, corpus)
        predicted = clf.predict_all(corpus)
        for task in model.tasks:
            task_rows = [(label, proba) for _, t, label, proba in rows if t is task]
            surfaces = [model.vocabs[task].surface(label) for label, _ in task_rows]
            assert list(predicted[task]) == surfaces
            assert list(clf.predict(corpus, task)) == surfaces
            expected = np.array([proba for _, proba in task_rows])
            assert clf.predict_proba(corpus, task).tobytes() == expected.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_a_non_finite_label_matrix_stops_every_reader(trace_fit, bad):
    model, corpus = trace_fit
    for task in model.tasks:
        broken = dataclasses.replace(model)  # checked at construction, then broken
        broken.label_matrices = {t: m.copy() for t, m in model.label_matrices.items()}
        broken.label_matrices[task][0, 0] = bad
        clf = JudgmentClassifier()
        clf.model_ = broken
        readers = [
            lambda: predict_records(broken, corpus),
            lambda: evaluate_model(broken, corpus),
            lambda: clf.predict_all(corpus),
            lambda: clf.predict(corpus, task),
            lambda: clf.predict_proba(corpus, task),
        ]
        for read in readers:
            rows = None
            with pytest.raises(ValueError, match="label_matrix contains non-finite values"):
                rows = read()
            assert rows is None


def test_an_overflowing_score_is_refused():
    with pytest.warns(RuntimeWarning, match="overflow"):
        with pytest.raises(ValueError, match="scores contains non-finite values"):
            score_case(np.full(2, 1e200), np.full((3, 2), 1e200))


@pytest.mark.parametrize("method", ["score", "predict", "predict_proba"])
def test_one_task_readers_score_one_task(trace_fit, monkeypatch, method):
    model, corpus = trace_fit
    clf = JudgmentClassifier()
    clf.model_ = model
    products = []

    def counting(hf, label_matrix):
        products.append(label_matrix)
        return score_case(hf, label_matrix)

    monkeypatch.setattr(trainer, "score_case", counting)
    getattr(clf, method)(corpus, "article")
    assert len(products) == len(corpus)
    assert all(m is model.label_matrices[trainer.Task.ARTICLE] for m in products)
