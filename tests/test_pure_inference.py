"""Training and inference leave the caller's cases as they were, so a
prediction depends only on the case and the model."""

import numpy as np
import pytest

import synth
from lexjudge import (
    ClueTracer,
    ContrastiveConfig,
    DropoutSpec,
    HashedEncoderParams,
    JudgmentClassifier,
    SectionAnchors,
    SplitSpec,
    TASKS,
    TrainConfig,
    evaluate_model,
    extract_clues,
    fit_model,
    predict_records,
    run_pipeline,
    split,
)

# Opens the process section at the action, so the search template and the
# motivation term fall outside it.
SHIFTED_ANCHORS = SectionAnchors("[STATEMENT]", "[DATE]", "[LOCATION]", "the defendant")


def fresh_corpus():
    return synth.separable_corpus(cases_per_charge=3, seed=17)


def small_fit_kwargs(lexicon, anchors):
    return {
        "encoder_params": HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=1),
        "lexicon": lexicon,
        "anchors": anchors,
        "contrastive_cfg": ContrastiveConfig(
            epochs=2, negatives_per_anchor=3, dropout=DropoutSpec(0.1, 4), seed=5
        ),
        "train_cfg": TrainConfig(epochs=3, seed=6, heads=2),
    }


def small_classifier(lexicon, anchors):
    return JudgmentClassifier(
        lexicon=lexicon, anchors=anchors, dim=8, bucket_count=64, heads=2,
        epochs=3, contrastive_epochs=2, negatives_per_anchor=3, seed=7,
    )


@pytest.fixture(scope="module")
def trained():
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=3, seed=8)
    model = run_pipeline(
        corpus, split_spec=SplitSpec(0.6, seed=3), **small_fit_kwargs(lexicon, anchors)
    ).model
    clf = small_classifier(lexicon, anchors).fit(corpus)
    return model, clf


ENTRY_POINTS = {
    "fit_model": lambda corpus, lex, anc, trained: fit_model(
        corpus, **small_fit_kwargs(lex, anc)
    ),
    "run_pipeline": lambda corpus, lex, anc, trained: run_pipeline(
        corpus, split_spec=SplitSpec(0.6, seed=3), **small_fit_kwargs(lex, anc)
    ),
    "evaluate_model": lambda corpus, lex, anc, trained: evaluate_model(trained[0], corpus),
    "predict_records": lambda corpus, lex, anc, trained: predict_records(trained[0], corpus),
    "JudgmentClassifier.fit": lambda corpus, lex, anc, trained: (
        small_classifier(lex, anc).fit(corpus)
    ),
    "JudgmentClassifier.predict": lambda corpus, lex, anc, trained: trained[1].predict(corpus),
    "JudgmentClassifier.predict_proba": lambda corpus, lex, anc, trained: (
        trained[1].predict_proba(corpus)
    ),
    "JudgmentClassifier.score": lambda corpus, lex, anc, trained: trained[1].score(corpus),
    "ClueTracer.transform": lambda corpus, lex, anc, trained: (
        ClueTracer(lex, anc).fit().transform(corpus)
    ),
    "extract_clues": lambda corpus, lex, anc, trained: [
        extract_clues(case, lex, 0.8, anc) for case in corpus
    ],
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_entry_point_leaves_input_cases_unchanged(name, trained):
    corpus, lexicon, anchors = fresh_corpus()
    cases = list(corpus)
    fields = [dict(vars(case)) for case in cases]
    assert all(case.sections is None for case in cases)
    ENTRY_POINTS[name](corpus, lexicon, anchors, trained)
    assert all(a is b for a, b in zip(corpus, cases)) and len(corpus) == len(cases)
    assert [dict(vars(case)) for case in cases] == fields


def test_prediction_does_not_depend_on_another_models_predictions():
    """Model A segments with anchors of its own; model B's probabilities on
    a case stay the same whether or not A predicted that case first."""
    corpus, lexicon, anchors = fresh_corpus()
    train, _, _ = split(corpus, SplitSpec(0.5, seed=2))
    model_b = small_classifier(lexicon, anchors).fit(train)
    model_a = small_classifier(lexicon, SHIFTED_ANCHORS).fit(train)

    def held_out():
        return split(fresh_corpus()[0], SplitSpec(0.5, seed=2))[2]

    alone = {task: model_b.predict_proba(held_out(), task) for task in TASKS}
    cases = held_out()
    for task in TASKS:
        model_a.predict_proba(cases, task)
    after_a = {task: model_b.predict_proba(cases, task) for task in TASKS}
    for task in TASKS:
        assert np.array_equal(alone[task], after_a[task])
