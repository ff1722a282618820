"""``FittedModel.score_rows`` is the package's one scoring loop: it alone
encodes cases for scoring (``fact_vector``) and scores them against the
label matrices (``score_case``). Evaluation, the prediction rows and the
estimator's predictions all read its rows, so a second loop would bring
back a second place where a case is traced, encoded and scored.

Every production module is parsed, not imported, and every call of either
name (as a function or as a method) is listed with the function that makes
it.
"""

from test_file_boundary import PACKAGE, named_calls


def test_only_score_rows_encodes_and_scores_cases():
    calls = sorted(
        call for path in PACKAGE.glob("*.py")
        for call in named_calls(path, {"score_case", "fact_vector"})
    )
    assert calls == [
        ("trainer.FittedModel.score_rows", "fact_vector"),
        ("trainer.FittedModel.score_rows", "score_case"),
    ]
