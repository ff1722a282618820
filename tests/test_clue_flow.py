"""Stage 1 runs once per case and hands its clue sets on as values: a fit
traces each training case once, prediction traces each scored case once,
and every call goes through ``lexjudge.trainer.extract_clues``, the name
the benchmark's tracer wraps."""

import importlib.util
import sys
from pathlib import Path

import pytest

import lexjudge.autodiff
import lexjudge.clues
import lexjudge.contrastive
import lexjudge.encoder
import lexjudge.trainer as trainer
import synth
from lexjudge import (
    ContrastiveConfig, DropoutSpec, HashedEncoderParams, JudgmentClassifier, TrainConfig,
)

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def fit(corpus, lexicon, anchors, freeze=True):
    return trainer.fit_model(
        corpus,
        encoder_params=HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=1),
        lexicon=lexicon,
        anchors=anchors,
        contrastive_cfg=ContrastiveConfig(
            epochs=2, negatives_per_anchor=3, dropout=DropoutSpec(0.1, 4), seed=5
        ),
        train_cfg=TrainConfig(
            epochs=2, seed=6, heads=2, freeze_encoder=freeze
        ),
    )


@pytest.fixture
def traced_ids(monkeypatch):
    """Ids of the cases passed to ``trainer.extract_clues``, in call order."""
    ids = []
    original = trainer.extract_clues

    def counting(case, *args, **kwargs):
        ids.append(case.id)
        return original(case, *args, **kwargs)

    monkeypatch.setattr(trainer, "extract_clues", counting)
    return ids


@pytest.mark.parametrize("freeze", [True, False], ids=["frozen", "unfrozen"])
def test_fit_traces_each_training_case_once(traced_ids, freeze):
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=3, seed=17)
    fit(corpus, lexicon, anchors, freeze)
    assert traced_ids == [case.id for case in corpus]


def test_predict_records_traces_each_case_once(traced_ids):
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=3, seed=17)
    model = fit(corpus, lexicon, anchors).model
    traced_ids.clear()
    trainer.predict_records(model, corpus)
    assert traced_ids == [case.id for case in corpus]


def test_evaluate_model_traces_each_case_once(traced_ids):
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=3, seed=17)
    model = fit(corpus, lexicon, anchors).model
    traced_ids.clear()
    trainer.evaluate_model(model, corpus)
    assert traced_ids == [case.id for case in corpus]


def fitted_classifier():
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=3, seed=17)
    clf = JudgmentClassifier(
        lexicon=lexicon, anchors=anchors, dim=8, bucket_count=64, heads=2,
        epochs=2, contrastive_epochs=2, negatives_per_anchor=3, seed=6,
    ).fit(corpus)
    return clf, corpus


def test_predict_all_traces_each_case_once(traced_ids):
    clf, corpus = fitted_classifier()
    traced_ids.clear()
    out = clf.predict_all(corpus)
    assert traced_ids == [case.id for case in corpus]
    for task, labels in out.items():
        assert list(labels) == list(clf.predict(corpus, task))


def test_estimator_predict_proba_traces_each_case_once(traced_ids):
    clf, corpus = fitted_classifier()
    traced_ids.clear()
    clf.predict_proba(corpus, "article")
    assert traced_ids == [case.id for case in corpus]


def namespaces():
    return [
        trainer, lexjudge.clues, lexjudge.encoder, lexjudge.contrastive,
        lexjudge.autodiff.Tensor,
    ]


def test_bench_tracer_installs_and_restores():
    """Every name ``bench/spans.py`` wraps still exists, its wrappers accept
    the calls a fit and a prediction make, they see every featurize call
    (counted by code object, whatever name the caller used), and leaving
    the block puts every original back."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=3, seed=17)
    before = [dict(vars(ns)) for ns in namespaces()]
    featurize_code = lexjudge.encoder.featurize.__code__
    featurize_calls = []

    def count_featurize(frame, event, arg):
        if event == "call" and frame.f_code is featurize_code:
            featurize_calls.append(None)

    tracer = spans.Tracer(enabled=True)
    sys.setprofile(count_featurize)
    try:
        with tracer.install():
            assert trainer.extract_clues is not before[0]["extract_clues"]
            model = fit(corpus, lexicon, anchors).model
            trainer.predict_records(model, corpus)
    finally:
        sys.setprofile(None)
    assert tracer.counts["featurize_calls"] == len(featurize_calls) > 0
    for old, ns in zip(before, namespaces()):
        now = dict(vars(ns))
        assert now.keys() == old.keys()
        assert all(now[name] is value for name, value in old.items())
    names = {span[1] for span in tracer.spans}
    assert {
        "clues.extract", "clues.match", "contrastive.train", "contrastive.epoch",
        "encoder.featurize", "graph.build", "graph.init_features", "graph.forward",
        "predictor.score", "trainer.fit_model",
    } <= names
    assert len(tracer.clue_sets) == 2 * len(corpus)


# Names the tracer wraps that nothing calls any more: prediction reads the
# checked rows through ``softmax``, ``match_element`` scores windows from
# its own DP distances, and the contrastive stage takes featurized rows.
UNCALLED_HOOKS = {"trainer.predict_proba", "clues.fuzzy_score", "contrastive.featurize"}


def test_every_bench_hook_is_called(monkeypatch):
    """A traced pipeline, evaluation and prediction call every name the
    tracer wraps, except ``UNCALLED_HOOKS``, and the backward spans carry
    both stage tags."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer(enabled=True)
    short = {
        trainer: "trainer", lexjudge.clues: "clues", lexjudge.encoder: "encoder",
        lexjudge.contrastive: "contrastive", lexjudge.autodiff.Tensor: "autodiff.Tensor",
    }
    calls = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    hooks = []
    for owner, attr, _ in tracer._patches():
        hooks.append(f"{short[owner]}.{attr}")
        monkeypatch.setattr(owner, attr, counting(hooks[-1], getattr(owner, attr)))
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=4, seed=17)
    with tracer.install():
        result = trainer.run_pipeline(
            corpus,
            lexicon=lexicon,
            anchors=anchors,
            encoder_params=HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=1),
            contrastive_cfg=ContrastiveConfig(
                epochs=2, negatives_per_anchor=3, dropout=DropoutSpec(0.1, 4), seed=5
            ),
            train_cfg=TrainConfig(epochs=2, seed=6, heads=2),
        )
        trainer.evaluate_model(result.model, result.test)
        trainer.predict_records(result.model, result.test)
    assert len(hooks) == len(set(hooks)) > len(UNCALLED_HOOKS)
    assert UNCALLED_HOOKS <= set(hooks)
    assert sorted(set(hooks) - set(calls)) == sorted(UNCALLED_HOOKS)
    tags = {span[6] for span in tracer.spans if span[1] == "autodiff.backward"}
    assert tags == {"contrastive", "graph"}
