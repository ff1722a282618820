import json

import pytest

import synth
from lexjudge import (
    ContrastiveConfig,
    DataError,
    DropoutSpec,
    HashedEncoderParams,
    TrainConfig,
    build_checkpoint,
    fit_model,
    load_checkpoint,
    save_checkpoint,
)


@pytest.fixture(scope="module")
def fitted():
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=2, seed=8)
    return fit_model(
        corpus,
        encoder_params=HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=1),
        lexicon=lexicon,
        anchors=anchors,
        contrastive_cfg=ContrastiveConfig(
            epochs=2, negatives_per_anchor=3, dropout=DropoutSpec(0.1, 4), seed=5
        ),
        train_cfg=TrainConfig(epochs=2, seed=6, heads=2),
    )


class TestCheckpointSchema:
    def test_field_order_fixed(self, fitted):
        doc = build_checkpoint(fitted.model, fitted.optimizer_state)
        assert list(doc) == ["meta", "encoder", "graph", "optimizer"]

    def test_two_saves_byte_identical(self, fitted, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_checkpoint(a, fitted.model, fitted.optimizer_state)
        save_checkpoint(b, fitted.model, fitted.optimizer_state)
        assert a.read_bytes() == b.read_bytes()

    def test_graph_section_holds_label_matrices_only(self, fitted, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, fitted.model, fitted.optimizer_state)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc["graph"]) == ["label_matrices"]
        model, _ = load_checkpoint(path)
        assert not hasattr(model, "gat")

    def test_meta_embeds_lexicon_and_vocabs(self, fitted):
        doc = build_checkpoint(fitted.model)
        assert doc["meta"]["lexicon"]["motivation"]
        assert doc["meta"]["anchors"]["process"]
        assert set(doc["meta"]["vocabs"]) == {"imprisonment", "charge", "article"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_checkpoint(tmp_path / "missing.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            load_checkpoint(path)

    def test_unsupported_format_version(self, fitted, tmp_path):
        doc = build_checkpoint(fitted.model)
        doc["meta"]["format_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="format version"):
            load_checkpoint(path)

    def test_schema_violation_reported(self, fitted, tmp_path):
        doc = build_checkpoint(fitted.model)
        del doc["meta"]["vocabs"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="invalid schema"):
            load_checkpoint(path)


class TestOptimizerSection:
    def test_scalars_only(self, fitted):
        doc = build_checkpoint(fitted.model, fitted.optimizer_state)
        assert list(doc["optimizer"]) == ["t", "beta1", "beta2", "eps", "learning_rate"]
        assert doc["optimizer"]["t"] == 2

    def test_old_checkpoint_with_moments_still_loads(self, fitted, tmp_path):
        """Checkpoints written before the moments were dropped carry ``m``
        and ``v`` arrays; they load to the same model."""
        current = tmp_path / "current.json"
        save_checkpoint(current, fitted.model, fitted.optimizer_state)
        doc = json.loads(current.read_text(encoding="utf-8"))
        state = fitted.optimizer_state
        doc["optimizer"]["m"] = {k: v.tolist() for k, v in state.m.items()}
        doc["optimizer"]["v"] = {k: v.tolist() for k, v in state.v.items()}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc), encoding="utf-8")

        model, optimizer = load_checkpoint(old)
        reference, _ = load_checkpoint(current)
        assert optimizer["t"] == 2
        assert set(optimizer["m"]) == set(state.m)
        for task, matrix in reference.label_matrices.items():
            assert (model.label_matrices[task] == matrix).all()
        assert (model.encoder_params.projection == reference.encoder_params.projection).all()
        assert build_checkpoint(model) == build_checkpoint(reference)
