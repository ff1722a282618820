"""``FittedModel.score_rows`` is the package's one scoring loop: it alone
encodes cases for scoring (``fact_vector``) and scores them against the
label matrices (``score_case``, which checks each score row as it makes
it). Evaluation, the prediction rows and the estimator's predictions read
its rows, and only they take labels and probabilities from those rows
through the unchecked kernels ``best_label`` and ``softmax``; the public
``predict_label`` and ``predict_proba`` are the kernels behind a check. A
second loop would bring back a second place where a case is traced,
encoded and scored, and an unchecked kernel elsewhere could read rows
that nothing checked.

Every production module is parsed, not imported, and every call of these
names (as a function or as a method) is listed with the function that
makes it.
"""

from test_file_boundary import PACKAGE, named_calls


def test_only_score_rows_encodes_and_scores_cases():
    calls = sorted(
        call for path in PACKAGE.glob("*.py")
        for call in named_calls(
            path, {"score_case", "fact_vector", "score_rows", "best_label", "softmax"}
        )
    )
    assert calls == [
        ("model.JudgmentClassifier.predict_proba", "score_rows"),
        ("model.JudgmentClassifier.predict_proba", "softmax"),
        ("model._surfaces", "best_label"),
        ("model._surfaces", "score_rows"),
        ("predictor.predict_label", "best_label"),
        ("predictor.predict_proba", "softmax"),
        ("trainer.FittedModel.score_rows", "fact_vector"),
        ("trainer.FittedModel.score_rows", "score_case"),
        ("trainer.evaluate_model", "best_label"),
        ("trainer.evaluate_model", "score_rows"),
        ("trainer.predict_records", "best_label"),
        ("trainer.predict_records", "score_rows"),
        ("trainer.predict_records", "softmax"),
    ]
