"""Stage 1 runs once per case and hands its clue sets on as values: a fit
traces each training case once, prediction traces each scored case once,
and every call goes through ``lexjudge.trainer.extract_clues``, the name
the benchmark's tracer wraps."""

import importlib.util
from pathlib import Path

import pytest

import lexjudge.autodiff
import lexjudge.clues
import lexjudge.contrastive
import lexjudge.encoder
import lexjudge.trainer as trainer
import synth
from lexjudge import ContrastiveConfig, DropoutSpec, HashedEncoderParams, TrainConfig

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
            epochs=2, seed=6, heads=2, freeze_encoder_after_contrastive=freeze
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


def namespaces():
    return [
        trainer, lexjudge.clues, lexjudge.encoder, lexjudge.contrastive,
        lexjudge.autodiff.Tensor,
    ]


def test_bench_tracer_installs_and_restores():
    """Every name ``bench/spans.py`` wraps still exists, its wrappers accept
    the calls a fit and a prediction make, and leaving the block puts every
    original back."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=3, seed=17)
    before = [dict(vars(ns)) for ns in namespaces()]
    tracer = spans.Tracer(enabled=True)
    with tracer.install():
        assert trainer.extract_clues is not before[0]["extract_clues"]
        model = fit(corpus, lexicon, anchors).model
        trainer.predict_records(model, corpus)
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
