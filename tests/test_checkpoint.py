import dataclasses
import json

import numpy as np
import pytest

import synth
from checkpoint_docs import array_slots, to_v1
from lexjudge import (
    TASKS,
    ConfigError,
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
from lexjudge.checkpoint import FORMAT_VERSION, decode_array, encode_array
from lexjudge.encoder import (
    EmbeddingTable, label_key, load_embedding_table, write_embedding_table,
)
from lexjudge.cli import main


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

    def test_in_memory_table_is_refused_before_writing(self, tmp_path):
        """A table built in memory has no path for ``load_checkpoint`` to
        read it from, so saving its model writes nothing; the same vectors
        read from a file save and load."""
        corpus, _, _ = synth.separable_corpus(cases_per_charge=2, seed=8)
        keys = [case.id for case in corpus] + [
            label_key(task, i) for task in TASKS for i in range(corpus.vocab(task).size)
        ]
        rng = np.random.default_rng(0)
        vectors = {key: rng.normal(size=8) for key in keys}
        train_cfg = TrainConfig(epochs=1, seed=6, heads=2)
        model = fit_model(corpus, table=EmbeddingTable(8, vectors), train_cfg=train_cfg).model
        path = tmp_path / "checkpoint.json"
        with pytest.raises(ConfigError, match="built in memory"):
            save_checkpoint(path, model)
        assert not path.exists()
        write_embedding_table(tmp_path / "table.tsv", 8, vectors.items())
        model = dataclasses.replace(model, table=load_embedding_table(tmp_path / "table.tsv"))
        save_checkpoint(path, model)
        loaded, _ = load_checkpoint(path)
        assert loaded.embeddings_path == str(tmp_path / "table.tsv")

    def test_meta_embeds_lexicon_and_vocabs(self, fitted):
        doc = build_checkpoint(fitted.model)
        assert doc["meta"]["lexicon"]["motivation"]
        assert doc["meta"]["anchors"]["process"]
        assert set(doc["meta"]["vocabs"]) == {"imprisonment", "charge", "article"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read checkpoint .*missing.json"):
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


# -0.0, the smallest subnormal, +-1e308 and an ordinary value.
SPECIAL = np.array([-0.0, 5e-324, 1e308, -1e308, 0.1, -2.5])


def bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


class TestExactArrays:
    def test_arrays_are_base64_float64(self, fitted):
        doc = build_checkpoint(fitted.model)
        assert doc["meta"]["format_version"] == FORMAT_VERSION == 2
        for container, key in array_slots(doc):
            assert list(container[key]) == ["dtype", "shape", "b64"]
            assert container[key]["dtype"] == "<f8"

    def test_special_values_round_trip_bit_exactly(self):
        matrix = np.stack([np.roll(SPECIAL, k) for k in range(4)])
        for array in (SPECIAL, matrix, matrix.T, matrix[:, ::2]):
            decoded = decode_array(encode_array(array), "x")
            assert decoded.shape == array.shape
            assert (bits(decoded) == bits(array)).all()

    def test_save_load_round_trips_bit_exactly(self, fitted, tmp_path):
        """A transposed (non-contiguous) label matrix holding -0.0, a
        subnormal and +-1e308 reloads with the same bits."""
        model = fitted.model
        rows, dim = model.label_matrices[TASKS[1]].shape
        special = np.resize(SPECIAL, (dim, rows)).T
        assert not special.flags.c_contiguous
        edited = dataclasses.replace(
            model, label_matrices={**model.label_matrices, TASKS[1]: special}
        )
        path = tmp_path / "special.json"
        save_checkpoint(path, edited)
        loaded, _ = load_checkpoint(path)
        assert (bits(loaded.label_matrices[TASKS[1]]) == bits(special)).all()
        for task, matrix in model.label_matrices.items():
            if task is not TASKS[1]:
                assert (bits(loaded.label_matrices[task]) == bits(matrix)).all()
        assert (bits(loaded.encoder_params.projection) == bits(model.encoder_params.projection)).all()
        assert (bits(loaded.encoder_params.bias) == bits(model.encoder_params.bias)).all()

    def test_save_load_save_byte_identical(self, fitted, tmp_path):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save_checkpoint(first, fitted.model, fitted.optimizer_state)
        model, _ = load_checkpoint(first)
        save_checkpoint(second, model, fitted.optimizer_state)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_arrays_are_writeable_contiguous_float64(self, fitted, tmp_path):
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, fitted.model)
        model, _ = load_checkpoint(path)
        arrays = [model.encoder_params.projection, model.encoder_params.bias]
        arrays += list(model.label_matrices.values())
        for array in arrays:
            assert array.dtype == np.float64
            assert array.flags.writeable and array.flags.c_contiguous and array.flags.owndata

    def test_version_1_arrays_decode_as_lists(self):
        decoded = decode_array([[1.0, -0.0], [5e-324, 2.0]], "x", version=1)
        assert decoded.dtype == np.float64 and decoded.flags.writeable
        assert (bits(decoded) == bits([[1.0, -0.0], [5e-324, 2.0]])).all()
        for element in ("0.5", True):
            with pytest.raises(ValueError, match=f"x element must be a number, got {element!r}"):
                decode_array([[1.0, -0.0], [element, 2.0]], "x", version=1)


class TestVersion1Compatibility:
    def write_both(self, fitted, tmp_path):
        current = tmp_path / "v2" / "checkpoint.json"
        current.parent.mkdir()
        save_checkpoint(current, fitted.model, fitted.optimizer_state)
        old = tmp_path / "v1" / "checkpoint.json"
        old.parent.mkdir()
        doc = to_v1(json.loads(current.read_text(encoding="utf-8")))
        old.write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
        return current, old

    def test_v1_document_loads_bit_identical_arrays(self, fitted, tmp_path):
        current, old = self.write_both(fitted, tmp_path)
        assert isinstance(json.loads(old.read_text())["encoder"]["projection"], list)
        new_model, _ = load_checkpoint(current)
        old_model, _ = load_checkpoint(old)
        pairs = [
            (old_model.encoder_params.projection, new_model.encoder_params.projection),
            (old_model.encoder_params.bias, new_model.encoder_params.bias),
        ] + [(old_model.label_matrices[t], m) for t, m in new_model.label_matrices.items()]
        for old_array, new_array in pairs:
            assert old_array.shape == new_array.shape
            assert (bits(old_array) == bits(new_array)).all()
        assert build_checkpoint(old_model) == build_checkpoint(new_model)

    def test_v1_document_predicts_the_same_bytes(self, fitted, tmp_path):
        current, old = self.write_both(fitted, tmp_path)
        corpus = tmp_path / "corpus.jsonl"
        with open(corpus, "w", encoding="utf-8") as fh:
            for record in synth.separable_records(2, seed=3):
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
        outputs = []
        for checkpoint in (current, old):
            out = checkpoint.parent / "predictions.jsonl"
            assert main([
                "predict", "--checkpoint", str(checkpoint), "--in", str(corpus), "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] and outputs[0] == outputs[1]

    def test_v1_element_that_is_not_a_number_exits_3(self, fitted, tmp_path, capsys):
        _, old = self.write_both(fitted, tmp_path)
        doc = json.loads(old.read_text(encoding="utf-8"))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(synth.separable_records(2, seed=3)[0]) + "\n")
        for element in ("0.5", True, 10**400):
            doc["encoder"]["bias"][0] = element
            old.write_text(json.dumps(doc), encoding="utf-8")
            assert main([
                "predict", "--checkpoint", str(old), "--in", str(corpus),
                "--out", str(tmp_path / "predictions.jsonl"),
            ]) == 3
            assert "encoder.bias element must be a number" in capsys.readouterr().err
