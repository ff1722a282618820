"""A fit featurizes each text once: ``trainer.fit_model`` hashes every
training clue text and label surface into one matrix of rows, and the
contrastive stage and stage 3 both read those rows. Outside ``fit_model``
only the encoder's own ``encode_fact`` featurizes, so a second place
that hashes texts would bring back a second featurization per fit.

Every production module is parsed, not imported, and every call of
``featurize`` (as a function or as a method) is listed with the function
that makes it.
"""

from test_file_boundary import PACKAGE, named_calls


def test_only_the_encoder_and_fit_model_featurize():
    calls = sorted(
        scope for path in PACKAGE.glob("*.py") for scope, _ in named_calls(path, {"featurize"})
    )
    assert calls == ["encoder.encode_fact", "trainer.fit_model"]
