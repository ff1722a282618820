import copy
import json
import math
import os
import shutil

import numpy as np
import pytest

import synth
from checkpoint_docs import decode, edit_array, to_v1
import lexjudge.trainer as trainer
from lexjudge import cli
from lexjudge.cli import ABLATION_COMBOS, main
from lexjudge import (
    TASKS, DivergenceError, GatParams, SplitSpec, load_corpus, load_lexicon, split,
)
from lexjudge.encoder import label_key
from lexjudge.rng import derive

TRAIN_SECTION = {
    "epochs": 25,
    "heads": 4,
    "tasks": ["imprisonment", "charge", "article"],
}
ENCODER_SECTION = {"backend": "hashed", "output_dim": 16, "bucket_count": 256}
CONTRASTIVE_SECTION = {"epochs": 3, "negatives_per_anchor": 4}


def write_corpus(path, cases_per_charge=6, seed=5):
    records = synth.separable_records(cases_per_charge, seed=seed)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_lexicon(path):
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=5)
    doc = lexicon.to_dict()
    doc["sections"] = {
        "statement": anchors.statement,
        "date": anchors.date,
        "location": anchors.location,
        "process": anchors.process,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, ensure_ascii=False, indent=2)


def write_config(tmp_path, seed=11, **overrides):
    corpus_path = tmp_path / "corpus.jsonl"
    lexicon_path = tmp_path / "lexicon.json"
    out_dir = tmp_path / "out"
    if not corpus_path.exists():
        write_corpus(corpus_path)
    if not lexicon_path.exists():
        write_lexicon(lexicon_path)
    doc = {
        "version": 1,
        "seed": seed,
        "paths": {
            "corpus": str(corpus_path),
            "lexicon": str(lexicon_path),
            "output_dir": str(out_dir),
        },
        "split": {"train_fraction": 0.8, "seed": 13},
        "encoder": ENCODER_SECTION,
        "contrastive": CONTRASTIVE_SECTION,
        "train": TRAIN_SECTION,
    }
    doc.update(overrides)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return config_path, out_dir


# A lexicon value of the wrong type: (edit the term lexicon and the section
# anchors in place, expected message).
LEXICON_EDITS = {
    "term-not-a-string": (
        lambda lexicon, anchors: lexicon["motivation"].append(5),
        "motivation term must be a string, got 5",
    ),
    "template-start-not-a-string": (
        lambda lexicon, anchors: lexicon.update(templates=[{"start": 5}]),
        "start_anchor must be a string, got 5",
    ),
    "term-list-not-a-list": (
        lambda lexicon, anchors: lexicon.update(harm="loss"),
        "harm must be a list of terms, got 'loss'",
    ),
    "section-anchor-not-a-string": (
        lambda lexicon, anchors: anchors.update(process=5),
        "process anchor must be a string, got 5",
    ),
    "section-anchor-unknown-key": (
        lambda lexicon, anchors: anchors.update(preamble="[PREAMBLE]"),
        "unknown section anchor key(s) ['preamble']",
    ),
}


class TestTraceCommand:
    def test_golden_byte_identical(self, tmp_path, trace_corpus_path, lexicon_path,
                                   golden_clues_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "version": 1,
            "paths": {
                "corpus": trace_corpus_path,
                "lexicon": lexicon_path,
                "output_dir": str(tmp_path / "out"),
            },
        }), encoding="utf-8")
        out = tmp_path / "clues.jsonl"
        assert main(["trace", "--config", str(config), "--out", str(out)]) == 0
        with open(golden_clues_path, "rb") as fh:
            assert out.read_bytes() == fh.read()

    def test_missing_lexicon_exits_2(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        doc = json.loads(config_path.read_text())
        doc["paths"]["lexicon"] = str(tmp_path / "missing.json")
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["trace", "--config", str(config_path)]) == 2

    def test_empty_corpus_exits_3(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["trace", "--config", str(config_path), "--in", str(empty)]) == 3

    def test_out_in_missing_directory_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        out = tmp_path / "missing" / "clues.jsonl"
        assert main(["trace", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err

    def test_mistyped_key_of_an_unread_section_exits_2(self, tmp_path, capsys):
        """Every key is checked when the config loads, including those of
        sections that ``trace`` never reads."""
        config_path, out_dir = write_config(tmp_path, train={**TRAIN_SECTION, "epochs": 2.9})
        assert main(["trace", "--config", str(config_path)]) == 2
        assert "config error: train.epochs must be an integer, got 2.9" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("name", LEXICON_EDITS)
    def test_malformed_lexicon_exits_2(
        self, tmp_path, trace_corpus_path, lexicon_path, capsys, name
    ):
        edit, message = LEXICON_EDITS[name]
        with open(lexicon_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc, doc["sections"])
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(doc), encoding="utf-8")
        config_path, _ = write_config(tmp_path)
        assert main([
            "trace", "--config", str(config_path), "--in", trace_corpus_path,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err

    def test_lexicon_without_sections_exits_2(
        self, tmp_path, trace_corpus_path, lexicon_path, capsys
    ):
        with open(lexicon_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["sections"]
        lexicon = tmp_path / "lexicon.json"
        lexicon.write_text(json.dumps(doc), encoding="utf-8")
        config_path, _ = write_config(tmp_path)
        assert main([
            "trace", "--config", str(config_path), "--in", trace_corpus_path,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"lexicon file {lexicon} has an invalid schema: missing 'sections'" in err


class TestTrainCommand:
    def test_train_emits_artifacts(self, tmp_path):
        config_path, out_dir = write_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 0
        for name in ("checkpoint.json", "loss_log.tsv", "metrics_val.json",
                     "metrics_val.tsv", "attention.tsv", "embeddings.tsv"):
            assert (out_dir / name).exists(), name
        loss_lines = (out_dir / "loss_log.tsv").read_text().strip().split("\n")
        assert loss_lines[0] == "stage\tepoch\tloss"
        stages = {line.split("\t")[0] for line in loss_lines[1:]}
        assert stages == {"contrastive", "graph"}
        attention = (out_dir / "attention.tsv").read_text().strip().split("\n")
        assert attention[0] == "src_node\tdst_node\thead\tlayer\talpha"
        embeddings = (out_dir / "embeddings.tsv").read_text().strip().split("\n")
        assert embeddings[0] == "#dim 16"

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        out = tmp_path / "regular-file"
        out.write_text("", encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err

    def test_unknown_flag_is_an_error(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(config_path), "--bogus", "1"])
        assert exc.value.code == 2

    def test_bad_config_version_exits_2(self, tmp_path):
        config_path, _ = write_config(tmp_path, version=7)
        assert main(["train", "--config", str(config_path)]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path):
        config_path, _ = write_config(tmp_path, extra_section={"x": 1})
        assert main(["train", "--config", str(config_path)]) == 2

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "epochs", -1),
            ("train", "heads", 3),  # does not divide encoder.output_dim 16
            ("train", "batch_size", 0),
            ("train", "dropout_rate", 1.0),
            ("train", "dropout_rate", -0.5),
            ("contrastive", "temperature", 0),
            ("contrastive", "dropout_rate", 1.0),
            ("split", "train_fraction", 1.5),
            ("encoder", "bucket_count", 0),
            ("encoder", "ngram_min", 0),
            ("encoder", "output_dim", 0),
            ("tracer", "threshold", 1.5),
            ("tracer", "threshold", 0),
            # of the wrong type: none is coerced (bool("false") is True)
            ("train", "use_graph", "false"),
            ("train", "freeze_encoder", "no"),
            ("train", "epochs", 2.9),
            ("encoder", "output_dim", 16.7),
        ],
    )
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, section, key, value):
        defaults = {
            "train": TRAIN_SECTION,
            "contrastive": CONTRASTIVE_SECTION,
            "split": {"train_fraction": 0.8, "seed": 13},
            "encoder": ENCODER_SECTION,
            "tracer": {},
        }
        overrides = {section: {**defaults[section], key: value}}
        config_path, _ = write_config(tmp_path, **overrides)
        assert main(["train", "--config", str(config_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "learning_rate", math.nan),
            ("train", "learning_rate", math.inf),
            ("train", "leaky_slope", math.nan),
            ("train", "leaky_slope", -math.inf),
            ("contrastive", "learning_rate", math.nan),
            ("contrastive", "temperature", math.inf),
            ("contrastive", "temperature", math.nan),
        ],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, section, key, value):
        """Python's ``json`` reads NaN and Infinity; each of these used to
        train, and either diverge (exit 4) or, for an infinite temperature,
        exit 0 with every score 0."""
        defaults = {"train": TRAIN_SECTION, "contrastive": CONTRASTIVE_SECTION}
        config_path, out_dir = write_config(
            tmp_path, **{section: {**defaults[section], key: value}}
        )
        assert main(["train", "--config", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {section}.{key} must be a finite number, got non-finite {value!r}\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key, value", [("corpus", ["a"]), ("output_dir", 7), ("checkpoint", True)]
    )
    def test_mistyped_path_exits_2_before_any_work(self, tmp_path, capsys, key, value):
        config_path, _ = write_config(tmp_path)
        doc = json.loads(config_path.read_text(encoding="utf-8"))
        doc["paths"][key] = value
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        assert main(["train", "--config", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"config error: paths.{key} must be a string, got {value!r}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_repeated_task_exits_2_before_any_stage(self, tmp_path, capsys):
        config_path, out_dir = write_config(
            tmp_path, train={**TRAIN_SECTION, "tasks": ["charge", "charge"]}
        )
        assert main(["train", "--config", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: invalid train section: tasks must not repeat")
        assert not (out_dir / "checkpoint.json").exists()

    @pytest.mark.parametrize("command", ["train", "pretrain", "ablate"])
    def test_unallocatable_encoder_exits_2(self, tmp_path, capsys, command):
        """An encoder too large to allocate (2**40 × 4096 float64 is 32 PiB,
        beyond any address space) is a config error, not a MemoryError."""
        config_path, out_dir = write_config(
            tmp_path, encoder={**ENCODER_SECTION, "output_dim": 2**40, "bucket_count": 4096}
        )
        assert main([command, "--config", str(config_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("config error: invalid encoder section: Unable to allocate")
        assert not (out_dir / "checkpoint.json").exists()

    def test_train_traces_each_case_once(
        self, tmp_path, trace_corpus_path, lexicon_path, monkeypatch
    ):
        """``train`` traces each training case once, for the fit, and each
        validation case once, for its metrics; ``embeddings.tsv`` is written
        from the fit's fact vectors, so no training case is traced again."""
        traced = []
        original = trainer.extract_clues

        def counting(case, *args, **kwargs):
            traced.append(case.id)
            return original(case, *args, **kwargs)

        monkeypatch.setattr(trainer, "extract_clues", counting)
        paths = {"corpus": trace_corpus_path, "lexicon": lexicon_path}
        config_path, out_dir = write_config(
            tmp_path, paths={**paths, "output_dir": str(tmp_path / "out")}
        )
        assert main(["train", "--config", str(config_path)]) == 0
        train_part, val_part, _ = split(load_corpus(trace_corpus_path), SplitSpec(0.8, seed=13))
        assert (len(train_part), len(val_part)) == (16, 2)
        assert traced == train_part.ids() + val_part.ids()
        embedded = (out_dir / "embeddings.tsv").read_text(encoding="utf-8").split("\n")[1:17]
        assert [line.split("\t")[0] for line in embedded] == train_part.ids()

    @pytest.mark.parametrize(
        "new_id, message",
        [
            ("trace\t000", "is empty or holds a tab or line break"),
            ("trace\r000", "is empty or holds a tab or line break"),
            ("trace\n000", "is empty or holds a tab or line break"),
            ("charge:0", "is written twice"),
        ],
        ids=["tab", "carriage-return", "line-feed", "label-key"],
    )
    def test_unwritable_embedding_id_exits_3(
        self, tmp_path, trace_corpus_path, lexicon_path, capsys, new_id, message
    ):
        """A training case id that ``embeddings.tsv`` cannot hold, so that
        its reader would refuse the file ``train`` wrote: a tab or line
        break splits its row, and a label key's name repeats a row."""
        with open(trace_corpus_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        train_id = split(load_corpus(trace_corpus_path), SplitSpec(0.8, seed=13))[0].ids()[0]
        for record in records:
            if record["id"] == train_id:
                record["id"] = new_id
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
        )
        assert new_id in split(load_corpus(corpus_path), SplitSpec(0.8, seed=13))[0].ids()
        paths = {"corpus": str(corpus_path), "lexicon": lexicon_path}
        config_path, out_dir = write_config(
            tmp_path, paths={**paths, "output_dir": str(tmp_path / "out")}
        )
        assert main(["train", "--config", str(config_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"id {new_id!r} {message}" in err
        assert not (out_dir / "embeddings.tsv").exists()

    def test_divergence_exit_code(self, tmp_path, monkeypatch):
        config_path, _ = write_config(tmp_path)

        def explode(*args, **kwargs):
            raise DivergenceError("training loss diverged at epoch 0")

        monkeypatch.setattr("lexjudge.cli.run_pipeline", explode)
        assert main(["train", "--config", str(config_path)]) == 4

    def test_one_feature_texts_train_and_pretrain(self, tmp_path):
        """With one hash bucket every text has one feature, which dropout
        removes from some view rows. A zero view row has cosine 0 and its
        anchor no loss term, so both commands run to the end with no
        warning (RuntimeWarnings are errors under this suite)."""
        config_path, _ = write_config(
            tmp_path, encoder={**ENCODER_SECTION, "bucket_count": 1}
        )
        assert main(["train", "--config", str(config_path)]) == 0
        assert main(["pretrain", "--config", str(config_path)]) == 0

    def test_seed_env_var_changes_artifacts_and_flag_wins(self, tmp_path, monkeypatch):
        config_path, out_dir = write_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 0
        base = (out_dir / "checkpoint.json").read_bytes()

        monkeypatch.setenv("SEMDR_SEED", "999")
        assert main(["train", "--config", str(config_path)]) == 0
        env_seeded = (out_dir / "checkpoint.json").read_bytes()
        assert env_seeded != base
        assert json.loads(env_seeded)["meta"]["seed"] == 999

        assert main(["train", "--config", str(config_path), "--seed", "11"]) == 0
        flag_seeded = (out_dir / "checkpoint.json").read_bytes()
        assert flag_seeded == base


class TestEvaluateAndPredict:
    def test_evaluate_epochs_zero_checkpoint(self, tmp_path):
        config_path, out_dir = write_config(tmp_path, train={**TRAIN_SECTION, "epochs": 0})
        assert main(["train", "--config", str(config_path)]) == 0
        assert main([
            "evaluate", "--config", str(config_path),
            "--checkpoint", str(out_dir / "checkpoint.json"),
            "--split", "test",
        ]) == 0
        doc = json.loads((out_dir / "metrics_test.json").read_text())
        assert set(doc) == {"imprisonment", "charge", "article"}
        for section in doc.values():
            assert 0.0 <= section["acc"] <= 1.0

    def test_evaluate_scores_the_split_the_checkpoint_held_out(
        self, tmp_path, trace_corpus_path, lexicon_path, monkeypatch
    ):
        """A checkpoint trained with ``--seed 5`` on a config whose seed is
        7 is scored on the test split of seed 5, which holds no case of its
        training split."""
        scored = []

        def recording_evaluate(model, corpus, *args, **kwargs):
            scored.append(corpus.ids())
            return trainer.evaluate_model(model, corpus, *args, **kwargs)

        monkeypatch.setattr(cli, "evaluate_model", recording_evaluate)
        config_path, out_dir = write_config(
            tmp_path, seed=7,
            paths={"corpus": trace_corpus_path, "lexicon": lexicon_path,
                   "output_dir": str(tmp_path / "out")},
            split={"train_fraction": 0.6},
            train={**TRAIN_SECTION, "epochs": 2},
            contrastive={"epochs": 1, "negatives_per_anchor": 4},
        )
        assert main(["train", "--config", str(config_path), "--seed", "5"]) == 0
        assert main([
            "evaluate", "--config", str(config_path),
            "--checkpoint", str(out_dir / "checkpoint.json"), "--split", "test",
        ]) == 0
        train_part, _, test_part = split(
            load_corpus(trace_corpus_path), SplitSpec(0.6, seed=derive(5, "split"))
        )
        assert scored[-1] == test_part.ids()
        assert not set(scored[-1]) & set(train_part.ids())

    def test_predict_roundtrip_covers_every_id(self, tmp_path):
        config_path, out_dir = write_config(tmp_path)
        assert main(["train", "--config", str(config_path)]) == 0
        pred_path = tmp_path / "preds.jsonl"
        corpus_path = tmp_path / "corpus.jsonl"
        assert main([
            "predict", "--checkpoint", str(out_dir / "checkpoint.json"),
            "--in", str(corpus_path), "--out", str(pred_path),
        ]) == 0
        rows = [json.loads(line) for line in pred_path.read_text().strip().split("\n")]
        corpus_ids = [
            json.loads(line)["id"]
            for line in corpus_path.read_text(encoding="utf-8").strip().split("\n")
        ]
        for task in ("imprisonment", "charge", "article"):
            ids = [r["id"] for r in rows if r["task"] == task]
            assert sorted(ids) == sorted(corpus_ids)
        assert all(abs(sum(r["proba"]) - 1.0) < 1e-9 for r in rows)

    def test_predict_out_in_missing_directory_exits_2(
        self, trained_checkpoint, tmp_path, capsys
    ):
        corpus_path, doc = trained_checkpoint
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "missing" / "predictions.jsonl"
        assert main([
            "predict", "--checkpoint", str(checkpoint),
            "--in", str(corpus_path), "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(out) in err

    def test_missing_checkpoint_exits_2(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert main([
            "evaluate", "--config", str(config_path),
            "--checkpoint", str(tmp_path / "nope.json"), "--split", "test",
        ]) == 2


@pytest.fixture(scope="class")
def trained_checkpoint(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    config_path, out_dir = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 0
    doc = json.loads((out_dir / "checkpoint.json").read_text(encoding="utf-8"))
    return tmp_path / "corpus.jsonl", doc


# Checkpoint corruptions whose parts each load but contradict one another,
# or whose section is not a JSON object: (corrupt the document in place,
# expected message).
CONTRADICTIONS = {
    "task-without-matrix": (
        lambda doc: doc["graph"]["label_matrices"].pop("article"),
        "task article has no label matrix",
    ),
    "backend-precomputed": (
        lambda doc: doc["meta"].update(backend="precomputed"), "meta.backend 'precomputed'"
    ),
    "backend-bogus": (lambda doc: doc["meta"].update(backend="bogus"), "meta.backend 'bogus'"),
    "hashed-without-encoder": (lambda doc: doc.update(encoder={}), "exactly one encoder"),
    "graph-list": (lambda doc: doc.update(graph=[]), "graph must be a JSON object, got list"),
    "label-matrices-list": (
        lambda doc: doc["graph"].update(label_matrices=[]),
        "graph.label_matrices must be a JSON object, got list",
    ),
}


def _set(**items):
    return lambda value: {**value, **items}


# A version-2 array the loader must refuse: (field, the stored value made
# from the intact one, the message that follows the field's name).
MALFORMED_ARRAYS = {
    "dtype-f4": (
        "graph.label_matrices.charge", _set(dtype="<f4"), ".dtype must be '<f8', got '<f4'"
    ),
    "dtype-big-endian": (
        "encoder.projection", _set(dtype=">f8"), ".dtype must be '<f8', got '>f8'"
    ),
    "shape-byte-count-mismatch": (
        "graph.label_matrices.article",
        lambda value: {**value, "shape": [value["shape"][0] + 1, value["shape"][1]]},
        " holds ",
    ),
    "shape-short-of-the-bytes": (
        "graph.label_matrices.article",
        lambda value: {**value, "shape": [value["shape"][0] - 1, value["shape"][1]]},
        " holds ",
    ),
    "shape-bool-entry": (
        "encoder.bias", _set(shape=[True]), ".shape must be a list of non-negative integers"
    ),
    "shape-negative-entry": (
        "encoder.bias", _set(shape=[-16]), ".shape must be a list of non-negative integers"
    ),
    "shape-not-a-list": (
        "encoder.bias", _set(shape=16), ".shape must be a list of non-negative integers"
    ),
    "b64-non-alphabet-character": (
        "graph.label_matrices.imprisonment",
        lambda value: {**value, "b64": "!" + value["b64"][1:]},
        ".b64 is not valid base64",
    ),
    "b64-bad-padding": (
        "encoder.bias",
        lambda value: {**value, "b64": value["b64"].rstrip("=")},
        ".b64 is not valid base64",
    ),
    "b64-not-a-string": (
        "encoder.bias", _set(b64=None), ".b64 must be a base64 string"
    ),
    "list-in-version-2": (
        "encoder.bias", lambda value: decode(value).tolist(), " must be an encoded array object"
    ),
}

# A meta field of the wrong JSON type: (edit meta in place, expected message).
MISTYPED_META = {
    "toggle-string": (
        lambda meta: meta["toggles"].update(use_clue_tracing="false"),
        "meta.toggles.use_clue_tracing must be a JSON boolean, got 'false'",
    ),
    "toggle-number": (
        lambda meta: meta["toggles"].update(use_graph=1),
        "meta.toggles.use_graph must be a JSON boolean, got 1",
    ),
    "tasks-repeated": (
        lambda meta: meta.update(tasks=["charge", "charge"]),
        "meta.tasks must not repeat a task",
    ),
    "tasks-object": (
        lambda meta: meta.update(tasks={"charge": 1}),
        "meta.tasks must be a JSON list, got dict",
    ),
    "seed-negative": (lambda meta: meta.update(seed=-1), "meta.seed must be an unsigned"),
    "seed-bool": (lambda meta: meta.update(seed=True), "meta.seed must be an unsigned"),
    "seed-string": (lambda meta: meta.update(seed="11"), "meta.seed must be an unsigned"),
    "heads-bool": (lambda meta: meta.update(heads=True), "meta.heads must be an integer"),
    "heads-zero": (lambda meta: meta.update(heads=0), "meta.heads must be an integer"),
    "heads-float": (lambda meta: meta.update(heads=4.0), "meta.heads must be an integer"),
    "dim-float": (lambda meta: meta.update(dim=16.0), "meta.dim must be an integer, got 16.0"),
    "leaky-slope-string": (
        lambda meta: meta.update(leaky_slope="steep"),
        "meta.leaky_slope must be a number, got 'steep'",
    ),
    "leaky-slope-bool": (
        lambda meta: meta.update(leaky_slope=True),
        "meta.leaky_slope must be a number, got True",
    ),
    "leaky-slope-beyond-float": (
        lambda meta: meta.update(leaky_slope=10**400),
        "meta.leaky_slope must be a number, got 1000",
    ),
    "leaky-slope-nan": (
        lambda meta: meta.update(leaky_slope=math.nan),
        "meta.leaky_slope must be a finite number, got non-finite nan",
    ),
    "leaky-slope-infinity": (
        lambda meta: meta.update(leaky_slope=math.inf),
        "meta.leaky_slope must be a finite number, got non-finite inf",
    ),
    "lexicon-list": (
        lambda meta: meta.update(lexicon=[]), "lexicon must be a JSON object, got list"
    ),
    "vocabs-list": (
        lambda meta: meta.update(vocabs=[]), "meta.vocabs must be a JSON object, got list"
    ),
    "vocabs-string": (
        lambda meta: meta["vocabs"].update(charge="abc"),
        "meta.vocabs.charge must be a JSON list, got str",
    ),
}


class TestCheckpointValidation:
    def predict_with(self, trained_checkpoint, tmp_path, corrupt, version=2):
        corpus_path, doc = trained_checkpoint
        doc = to_v1(doc) if version == 1 else copy.deepcopy(doc)
        corrupt(doc)
        path = tmp_path / "checkpoint.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return main([
            "predict", "--checkpoint", str(path),
            "--in", str(corpus_path), "--out", str(tmp_path / "preds.jsonl"),
        ])

    def test_intact_checkpoint_predicts(self, trained_checkpoint, tmp_path):
        assert self.predict_with(trained_checkpoint, tmp_path, lambda doc: None) == 0

    def test_extra_label_row_exits_3(self, trained_checkpoint, tmp_path, capsys):
        """Checked in the current format and in version 1, whose arrays are
        JSON lists."""
        def corrupt(doc):
            edit_array(
                doc["graph"]["label_matrices"], "charge",
                lambda rows: np.vstack([rows, rows[:1]]),
            )

        for version in (2, 1):
            assert self.predict_with(trained_checkpoint, tmp_path, corrupt, version) == 3
            assert "charge label matrix has shape" in capsys.readouterr().err

    def test_nan_in_label_matrix_exits_3(self, trained_checkpoint, tmp_path, capsys):
        def corrupt(doc):
            def put_nan(matrix):
                matrix[0, 0] = np.nan
                return matrix

            edit_array(doc["graph"]["label_matrices"], "article", put_nan)

        for version in (2, 1):
            assert self.predict_with(trained_checkpoint, tmp_path, corrupt, version) == 3
            assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["projection", "bias"])
    def test_nan_encoded_in_encoder_exits_3(self, trained_checkpoint, tmp_path, capsys, key):
        """A NaN survives the exact binary encoding, so the loader's
        finiteness check still sees it."""
        def corrupt(doc):
            def put_nan(array):
                array.flat[-1] = np.nan
                return array

            edit_array(doc["encoder"], key, put_nan)

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{key} contains non-finite" in err

    @pytest.mark.parametrize("name", MALFORMED_ARRAYS)
    def test_malformed_v2_array_exits_3(self, trained_checkpoint, tmp_path, capsys, name):
        field, edit, message = MALFORMED_ARRAYS[name]
        section, key = field.rsplit(".", 1)

        def corrupt(doc):
            container = doc
            for part in section.split("."):
                container = container[part]
            container[key] = edit(container[key])

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{field}{message}" in err

    @pytest.mark.parametrize("name", MISTYPED_META)
    def test_mistyped_meta_field_exits_3(self, trained_checkpoint, tmp_path, capsys, name):
        """Each of these loaded before and changed what ``predict`` did: a
        string toggle reads as true, a repeated task writes every row twice,
        an object of tasks reads as its keys."""
        edit, message = MISTYPED_META[name]
        assert self.predict_with(
            trained_checkpoint, tmp_path, lambda doc: edit(doc["meta"])
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_no_tasks_exits_3(self, trained_checkpoint, tmp_path, capsys, command):
        """A checkpoint without tasks would predict and score nothing, and
        exit 0 having written no row."""
        corpus_path, doc = trained_checkpoint
        doc = copy.deepcopy(doc)
        doc["meta"]["tasks"] = []
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        config_path, out_dir = write_config(tmp_path)
        argv = {
            "predict": ["--in", str(corpus_path), "--out", str(tmp_path / "preds.jsonl")],
            "evaluate": ["--config", str(config_path)],
        }[command]
        assert main([command, "--checkpoint", str(checkpoint), *argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "a model needs at least one task" in err
        assert not (tmp_path / "preds.jsonl").exists()
        assert not (out_dir / "metrics_test.json").exists()

    def test_mismatched_meta_dim_exits_3(self, trained_checkpoint, tmp_path, capsys):
        def corrupt(doc):
            doc["meta"]["dim"] += 1

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        assert "meta.dim" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda encoder: encoder.update(output_dim=999),
             "encoder.output_dim 999 contradicts the 16 rows of encoder.projection"),
            (lambda encoder: encoder.update(output_dim="x"),
             "encoder.output_dim must be an integer, got 'x'"),
            (lambda encoder: encoder.update(output_dim=None),
             "encoder.output_dim must be an integer, got None"),
            (lambda encoder: encoder.pop("output_dim"),
             "encoder.output_dim must be an integer, got None"),
        ],
        ids=["999", "string", "null", "deleted"],
    )
    def test_bad_encoder_output_dim_exits_3(
        self, trained_checkpoint, tmp_path, capsys, edit, message
    ):
        """``encoder.output_dim`` is checked as ``meta.dim`` is: it must be an
        integer equal to the projection's row count."""
        def corrupt(doc):
            edit(doc["encoder"])

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize(
        "section, key",
        [("meta", "toggles"), ("encoder", "bucket_count"), ("meta.lexicon", "motivation")],
        ids=["meta-toggles", "encoder-bucket-count", "meta-lexicon-motivation"],
    )
    def test_missing_key_is_named_as_missing(
        self, trained_checkpoint, tmp_path, capsys, section, key
    ):
        def corrupt(doc):
            container = doc
            for part in section.split("."):
                container = container[part]
            del container[key]

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        err = capsys.readouterr().err
        path = tmp_path / "checkpoint.json"
        assert f"checkpoint {path} has an invalid schema: missing '{key}'" in err

    def test_untrained_checkpoint_is_named(self, trained_checkpoint, tmp_path, capsys):
        """A checkpoint without label matrices (a pre-trained encoder) names
        itself in the error."""
        def corrupt(doc):
            doc["graph"]["label_matrices"] = {}

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        err = capsys.readouterr().err
        path = tmp_path / "checkpoint.json"
        assert f"checkpoint {path} has no trained label representations" in err

    @pytest.mark.parametrize("name", CONTRADICTIONS)
    def test_contradicting_state_exits_3(self, trained_checkpoint, tmp_path, capsys, name):
        corrupt, message = CONTRADICTIONS[name]
        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize(
        "name, edit",
        [
            ("bucket_count", float),  # 256.0, which still matches the projection
            ("ngram_min", float),  # 1.0
            ("ngram_max", lambda value: value + 0.5),  # 3.5
            ("ngram_max", lambda value: True),
        ],
        ids=["bucket-count-float", "ngram-min-float", "ngram-max-float", "ngram-max-bool"],
    )
    def test_non_integer_encoder_field_exits_3(
        self, trained_checkpoint, tmp_path, capsys, name, edit
    ):
        """A float or bool where the encoder needs an integer is a schema
        error, not a traceback (exit 1) or a silently changed encoder."""
        def corrupt(doc):
            doc["encoder"][name] = edit(doc["encoder"][name])

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and f"{name} must be an integer" in err

    def test_precomputed_table_of_another_dim_exits_3(
        self, trained_checkpoint, tmp_path, capsys
    ):
        """The checkpoint turned precomputed predicts over a table of its own
        dimension; rewritten with ``#dim 4``, the table no longer fits its
        label matrices."""
        corpus_path, _ = trained_checkpoint
        table = tmp_path / "table.tsv"

        def corrupt(doc):
            doc["meta"]["backend"] = "precomputed"
            doc["meta"]["embeddings_path"] = str(table)
            doc["encoder"] = {}

        write_full_table(table, corpus_path, dim=16)
        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 0
        write_full_table(table, corpus_path, dim=4)
        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "label matrix has shape" in err

    @pytest.mark.parametrize("name", LEXICON_EDITS)
    def test_malformed_meta_lexicon_exits_3(self, trained_checkpoint, tmp_path, capsys, name):
        edit, message = LEXICON_EDITS[name]
        assert self.predict_with(
            trained_checkpoint, tmp_path,
            lambda doc: edit(doc["meta"]["lexicon"], doc["meta"]["anchors"]),
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    @pytest.mark.parametrize(
        "anchors, message",
        [
            ({}, "meta.anchors lacks the anchor(s) of section(s) "
                 "['statement', 'date', 'location', 'process']"),
            ({"statement": "[STATEMENT]", "date": "[DATE]"},
             "meta.anchors lacks the anchor(s) of section(s) ['location', 'process']"),
            ([], "meta.anchors must be a JSON object, got list"),
        ],
        ids=["empty-object", "two-sections", "list"],
    )
    def test_malformed_meta_anchors_exits_3(
        self, trained_checkpoint, tmp_path, capsys, anchors, message
    ):
        assert self.predict_with(
            trained_checkpoint, tmp_path, lambda doc: doc["meta"].update(anchors=anchors)
        ) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and message in err

    def test_null_anchors_on_cases_without_sections_exits_3(
        self, trained_checkpoint, tmp_path, capsys, trace_corpus_path
    ):
        """A model trained on cases that carry their sections may have no
        anchors, so a null ``meta.anchors`` loads; predicting cases that
        carry none is then a data error naming the first such case."""
        _, doc = trained_checkpoint
        doc = copy.deepcopy(doc)
        doc["meta"]["anchors"] = None
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        assert main([
            "predict", "--checkpoint", str(checkpoint), "--in", trace_corpus_path,
            "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert "case trace-000 has no sections and no anchors were given" in err
        assert not out.exists()

    def test_legacy_gat_layers_are_ignored(self, trained_checkpoint, tmp_path):
        """A checkpoint in the older format, whose graph section also holds
        the GAT layers, predicts the same bytes as one without them."""
        assert self.predict_with(trained_checkpoint, tmp_path, lambda doc: None) == 0
        current = (tmp_path / "preds.jsonl").read_bytes()

        def add_layers(doc):
            meta = doc["meta"]
            gat = GatParams.initialize(meta["dim"], meta["heads"], 5, meta["leaky_slope"])
            layers = [
                {
                    "combine": layer.combine,
                    "leaky_slope": layer.leaky_slope,
                    "heads": [
                        {"W": W.tolist(), "omega": omega.tolist()}
                        for W, omega in zip(layer.W, layer.omega)
                    ],
                }
                for layer in gat.layers
            ]
            doc["graph"] = {"layers": layers, **doc["graph"]}

        assert self.predict_with(trained_checkpoint, tmp_path, add_layers) == 0
        assert (tmp_path / "preds.jsonl").read_bytes() == current

    @pytest.mark.parametrize("threshold", [1.5, 0])
    def test_threshold_out_of_range_exits_3(
        self, trained_checkpoint, tmp_path, capsys, threshold
    ):
        def corrupt(doc):
            doc["meta"]["threshold"] = threshold

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        assert "meta.threshold" in capsys.readouterr().err


class TestLoneSurrogate:
    """The JSON escape of a lone UTF-16 surrogate, such as ``"\\udcff"``, is
    valid JSON but not text: no UTF-8 file can hold it. The readers refuse
    it, naming the corpus line or the checkpoint file, before any work."""

    def predict(self, trained_checkpoint, tmp_path, edit_record=None, edit_doc=None):
        corpus_path, doc = trained_checkpoint
        records = [json.loads(line) for line in corpus_path.read_text("utf-8").splitlines()]
        doc = copy.deepcopy(doc)
        if edit_record:
            edit_record(records[1])
        if edit_doc:
            edit_doc(doc)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "preds.jsonl"
        code = main([
            "predict", "--checkpoint", str(checkpoint), "--in", str(corpus), "--out", str(out),
        ])
        return code, checkpoint, out

    @pytest.mark.parametrize("field", ["id", "fact"])
    def test_in_a_corpus_record_exits_3(self, trained_checkpoint, tmp_path, capsys, field):
        def edit(record):
            record[field] = "\udcff" + record[field]

        code, _, out = self.predict(trained_checkpoint, tmp_path, edit_record=edit)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2 holds a lone surrogate")
        assert not out.exists()

    def test_in_a_checkpoint_vocabulary_exits_3(self, trained_checkpoint, tmp_path, capsys):
        def edit(doc):
            doc["meta"]["vocabs"]["charge"][0] = "\udcff"

        code, checkpoint, out = self.predict(trained_checkpoint, tmp_path, edit_doc=edit)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: checkpoint {checkpoint} holds a lone surrogate")
        assert not out.exists()

    def test_a_surrogate_pair_is_text(self, trained_checkpoint, tmp_path):
        """A character beyond the Basic Multilingual Plane is escaped as a
        surrogate pair, which decodes to one valid character."""
        def edit(record):
            record["fact"] = "\U0001F600 " + record["fact"]

        code, _, out = self.predict(trained_checkpoint, tmp_path, edit_record=edit)
        assert code == 0
        assert '"\\ud83d\\ude00' in (tmp_path / "corpus.jsonl").read_text("utf-8")
        assert out.exists()


def write_full_table(path, corpus_path, dim=16, seed=3):
    """An embedding table keying every case of the corpus and every label."""
    corpus = load_corpus(corpus_path)
    keys = [case.id for case in corpus] + [
        label_key(task, label_id) for task in TASKS for label_id in range(corpus.vocab(task).size)
    ]
    rng = np.random.default_rng(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#dim {dim}\n")
        for key in keys:
            fh.write(key + "\t" + " ".join(repr(float(v)) for v in rng.normal(size=dim)) + "\n")


def precomputed_config(config_path, table, out_dir):
    """The hashed test config switched to the precomputed backend over ``table``."""
    doc = json.loads(config_path.read_text(encoding="utf-8"))
    doc["encoder"] = {"backend": "precomputed"}
    doc["paths"] = {**doc["paths"], "embeddings": str(table), "output_dir": str(out_dir)}
    path = config_path.with_name(f"{out_dir.name}.json")
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="class")
def precomputed_run(tmp_path_factory):
    """A hashed run's exported ``embeddings.tsv``, and a precomputed run
    trained on a table that keys every case."""
    tmp_path = tmp_path_factory.mktemp("precomputed")
    config_path, out_dir = write_config(tmp_path)
    assert main(["train", "--config", str(config_path)]) == 0
    corpus_path = tmp_path / "corpus.jsonl"
    table = tmp_path / "full.tsv"
    write_full_table(table, corpus_path)
    full_config = precomputed_config(config_path, table, tmp_path / "full")
    assert main(["train", "--config", str(full_config)]) == 0
    return {
        "corpus": corpus_path,
        "config": config_path,
        "exported": out_dir / "embeddings.tsv",
        "table": table,
        "full_config": full_config,
        "checkpoint": tmp_path / "full" / "checkpoint.json",
    }


class TestPrecomputedBackend:
    def evaluate(self, config, checkpoint):
        return main([
            "evaluate", "--config", str(config), "--checkpoint", str(checkpoint),
            "--split", "test",
        ])

    def predict(self, run, checkpoint, tmp_path):
        out = tmp_path / "preds.jsonl"
        code = main([
            "predict", "--checkpoint", str(checkpoint),
            "--in", str(run["corpus"]), "--out", str(out),
        ])
        return code, out

    def test_full_table_trains_evaluates_and_predicts(self, precomputed_run, tmp_path):
        run = precomputed_run
        doc = json.loads(run["checkpoint"].read_text(encoding="utf-8"))
        assert doc["meta"]["backend"] == "precomputed"
        assert doc["encoder"] == {}
        assert self.evaluate(run["full_config"], run["checkpoint"]) == 0
        code, out = self.predict(run, run["checkpoint"], tmp_path)
        assert code == 0
        ids = {json.loads(line)["id"] for line in out.read_text().strip().split("\n")}
        assert ids == {case.id for case in load_corpus(run["corpus"])}

    def test_exported_table_covers_only_the_training_split(self, precomputed_run, tmp_path, capsys):
        """``train`` exports the vectors of its training split and the label
        matrices; other splits' cases are missing from it, so every command
        that reaches them ends with a data error."""
        run = precomputed_run
        exported_config = precomputed_config(run["config"], run["exported"], tmp_path / "exported")
        assert main(["train", "--config", str(exported_config)]) == 3
        assert "no precomputed embedding for id" in capsys.readouterr().err

        doc = json.loads(run["checkpoint"].read_text(encoding="utf-8"))
        doc["meta"]["embeddings_path"] = str(run["exported"])
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps(doc), encoding="utf-8")
        assert self.evaluate(run["full_config"], checkpoint) == 3
        assert "no precomputed embedding for id" in capsys.readouterr().err
        assert self.predict(run, checkpoint, tmp_path)[0] == 3
        assert "no precomputed embedding for id" in capsys.readouterr().err

    def test_non_finite_table_value_exits_3(self, tmp_path, capsys):
        config_path, _ = write_config(tmp_path)
        table = tmp_path / "nan.tsv"
        write_full_table(table, tmp_path / "corpus.jsonl")
        lines = table.read_text(encoding="utf-8").split("\n")
        key, values = lines[1].split("\t")
        lines[1] = key + "\t" + " ".join(["nan"] + values.split()[1:])
        table.write_text("\n".join(lines), encoding="utf-8")
        config = precomputed_config(config_path, table, tmp_path / "nan_out")
        assert main(["train", "--config", str(config)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "nan.tsv line 2: non-finite" in err

    def test_relative_table_path_resolves_against_the_checkpoint(
        self, precomputed_run, tmp_path, monkeypatch
    ):
        """A table path relative to the training directory is stored relative
        to the checkpoint, so ``predict`` works from a sibling directory."""
        run = precomputed_run
        train_dir, sibling = tmp_path / "train", tmp_path / "sibling"
        train_dir.mkdir()
        sibling.mkdir()
        shutil.copy(run["table"], train_dir / "full.tsv")
        config = precomputed_config(run["config"], "full.tsv", train_dir / "relative_out")
        monkeypatch.chdir(train_dir)
        assert main(["train", "--config", str(config)]) == 0
        checkpoint = train_dir / "relative_out" / "checkpoint.json"
        doc = json.loads(checkpoint.read_text(encoding="utf-8"))
        assert doc["meta"]["embeddings_path"] == os.path.join("..", "full.tsv")

        monkeypatch.chdir(sibling)
        out = tmp_path / "preds.jsonl"
        assert main([
            "predict", "--checkpoint", os.path.join("..", "train", "relative_out", "checkpoint.json"),
            "--in", str(run["corpus"]), "--out", str(out),
        ]) == 0
        assert len(out.read_text(encoding="utf-8").strip().split("\n")) == len(
            load_corpus(run["corpus"])
        ) * len(TASKS)


class TestScenarioFlow:
    def test_train_and_evaluate_through_a_scenario_filter(self, tmp_path):
        config_path, out_dir = write_config(
            tmp_path,
            scenario={
                "kind": "confusing",
                "min_charge_count": 0,
                "charge_allowlist": ["robbery", "theft"],
            },
            train={**TRAIN_SECTION, "epochs": 10},
        )
        assert main(["train", "--config", str(config_path)]) == 0
        checkpoint = json.loads((out_dir / "checkpoint.json").read_text())
        assert checkpoint["meta"]["vocabs"]["charge"] == ["robbery", "theft"]
        assert main([
            "evaluate", "--config", str(config_path),
            "--checkpoint", str(out_dir / "checkpoint.json"), "--split", "val",
        ]) == 0
        doc = json.loads((out_dir / "metrics_val.json").read_text())
        assert set(doc) == {"imprisonment", "charge", "article"}


    @pytest.mark.parametrize("allowlist", [5, [[1]]], ids=["number", "nested-list"])
    def test_malformed_allowlist_exits_2(self, tmp_path, capsys, allowlist):
        config_path, _ = write_config(
            tmp_path, scenario={"kind": "confusing", "charge_allowlist": allowlist}
        )
        assert main(["trace", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "scenario.charge_allowlist" in err


class TestPretrainCommand:
    def test_pretrain_artifacts(self, tmp_path):
        config_path, out_dir = write_config(tmp_path)
        assert main(["pretrain", "--config", str(config_path)]) == 0
        checkpoint = json.loads((out_dir / "checkpoint.json").read_text())
        assert list(checkpoint) == ["meta", "encoder", "graph", "optimizer"]
        assert checkpoint["encoder"]["output_dim"] == 16
        assert checkpoint["graph"]["label_matrices"] == {}
        lines = (out_dir / "contrastive_loss.tsv").read_text().strip().split("\n")
        assert lines[0] == "epoch\tmean_loss"
        assert len(lines) == 1 + CONTRASTIVE_SECTION["epochs"]

    @pytest.mark.parametrize("use_contrastive", [True, False])
    def test_pretrain_is_train_without_stage_3(self, tmp_path, use_contrastive):
        """``pretrain`` writes the encoder ``train``'s stage 3 starts from
        (which the frozen encoder keeps), and the contrastive rows of
        ``train``'s loss log; without contrastive training there are none."""
        config_path, _ = write_config(
            tmp_path, train={**TRAIN_SECTION, "use_contrastive": use_contrastive}
        )
        for command in ("pretrain", "train"):
            out = tmp_path / command
            assert main([command, "--config", str(config_path), "--out", str(out)]) == 0
        pretrained, trained = (
            json.loads((tmp_path / command / "checkpoint.json").read_text())
            for command in ("pretrain", "train")
        )
        assert pretrained["encoder"] == trained["encoder"]
        rows = (tmp_path / "pretrain" / "contrastive_loss.tsv").read_text().split("\n")[1:-1]
        log = (tmp_path / "train" / "loss_log.tsv").read_text().split("\n")[1:-1]
        assert [row.split("\t") for row in rows] == [
            line.split("\t")[1:] for line in log if line.startswith("contrastive\t")
        ]
        assert len(rows) == (CONTRASTIVE_SECTION["epochs"] if use_contrastive else 0)

    def test_no_contrastive_epochs_accepts_any_negative_count(self, tmp_path):
        """Without contrastive epochs the negative count is never drawn, so
        one larger than the training split is no error in either command."""
        config_path, _ = write_config(
            tmp_path, contrastive={"epochs": 0, "negatives_per_anchor": 100}
        )
        for command in ("train", "pretrain"):
            assert main([command, "--config", str(config_path)]) == 0


def write_confusable_inputs(tmp_path, cases_per_charge=16, seed=44):
    corpus_path = tmp_path / "confusable.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for record in synth._records(synth.CONFUSABLE, cases_per_charge, seed, noisy=True):
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    lexicon_doc = synth._lexicon(synth.CONFUSABLE).to_dict()
    lexicon_doc["sections"] = {
        "statement": "[STATEMENT]", "date": "[DATE]",
        "location": "[LOCATION]", "process": "[PROCESS]",
    }
    lexicon_path = tmp_path / "confusable_lexicon.json"
    lexicon_path.write_text(json.dumps(lexicon_doc, ensure_ascii=False), encoding="utf-8")
    return corpus_path, lexicon_path


class TestAblateCommand:
    def test_full_grid_snapshot(self, tmp_path):
        # pinned-seed regression: 8 rows, and the full model dominates the
        # all-off row (and the single-module ablations) on test macro-F1
        corpus_path, lexicon_path = write_confusable_inputs(tmp_path)
        out_dir = tmp_path / "out"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "version": 1,
            "seed": 99,
            "paths": {
                "corpus": str(corpus_path),
                "lexicon": str(lexicon_path),
                "output_dir": str(out_dir),
            },
            "split": {"train_fraction": 0.75, "seed": 3},
            "encoder": {"output_dim": 32, "bucket_count": 1024},
            "contrastive": {"epochs": 5, "negatives_per_anchor": 5},
            "train": {"epochs": 80, "heads": 4},
        }), encoding="utf-8")
        assert main(["ablate", "--config", str(config), "--grid", "all"]) == 0
        lines = (out_dir / "ablation.tsv").read_text().strip().split("\n")
        assert len(lines) == 9
        header = lines[0].split("\t")
        f1_col = header.index("charge_f1")
        f1 = {
            line.split("\t")[0]: float(line.split("\t")[f1_col]) for line in lines[1:]
        }
        assert set(f1) == set(ABLATION_COMBOS)
        assert f1["full"] > f1["none"]
        assert f1["full"] >= f1["no_graph"]
        assert f1["full"] >= f1["no_clue"]

    def test_named_subset_includes_full(self, tmp_path):
        config_path, out_dir = write_config(
            tmp_path,
            train={**TRAIN_SECTION, "epochs": 12},
            contrastive={"epochs": 2, "negatives_per_anchor": 4},
        )
        assert main([
            "ablate", "--config", str(config_path), "--grid", "no_graph,no_clue",
        ]) == 0
        table = (out_dir / "ablation.tsv").read_text().strip().split("\n")
        combos = [line.split("\t")[0] for line in table[1:]]
        assert combos == ["full", "no_graph", "no_clue"]
        doc = json.loads((out_dir / "ablation.json").read_text())
        assert set(doc) == {"full", "no_graph", "no_clue"}

    def test_inputs_are_built_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_load_lexicon(path):
            calls.append(path)
            return load_lexicon(path)

        monkeypatch.setattr(cli, "load_lexicon", counting_load_lexicon)
        config_path, _ = write_config(
            tmp_path,
            train={**TRAIN_SECTION, "epochs": 5},
            contrastive={"epochs": 1, "negatives_per_anchor": 4},
        )
        assert main(["ablate", "--config", str(config_path), "--grid", "full,no_graph"]) == 0
        assert len(calls) == 1

    def test_scores_only_the_test_split(
        self, tmp_path, trace_corpus_path, lexicon_path, monkeypatch
    ):
        """Each combination is scored once, on the test split. A tracing
        combination traces the training cases for its fit and the test
        cases for its score, and no validation case."""
        scored, traced = [], []
        evaluate, extract = trainer.evaluate_model, trainer.extract_clues

        def counting_evaluate(model, corpus, *args, **kwargs):
            scored.append(corpus.ids())
            return evaluate(model, corpus, *args, **kwargs)

        def counting_extract(case, *args, **kwargs):
            traced.append(case.id)
            return extract(case, *args, **kwargs)

        monkeypatch.setattr(trainer, "evaluate_model", counting_evaluate)
        monkeypatch.setattr(cli, "evaluate_model", counting_evaluate)
        monkeypatch.setattr(trainer, "extract_clues", counting_extract)
        paths = {"corpus": trace_corpus_path, "lexicon": lexicon_path}
        config_path, _ = write_config(
            tmp_path,
            paths={**paths, "output_dir": str(tmp_path / "out")},
            train={**TRAIN_SECTION, "epochs": 5},
            contrastive={"epochs": 1, "negatives_per_anchor": 4},
        )
        assert main(["ablate", "--config", str(config_path), "--grid", "all"]) == 0
        train_part, _, test_part = split(load_corpus(trace_corpus_path), SplitSpec(0.8, seed=13))
        assert (len(train_part), len(test_part)) == (16, 2)
        assert scored == [test_part.ids()] * 8
        tracing = sum(clue for clue, _, _ in ABLATION_COMBOS.values())
        assert tracing == 4
        assert traced == (train_part.ids() + test_part.ids()) * tracing

    def test_empty_test_split_exits_3_before_any_fit(self, tmp_path, capsys, monkeypatch):
        fits, fit_model = [], trainer.fit_model

        def counting_fit_model(corpus, **kwargs):
            fits.append(len(corpus))
            return fit_model(corpus, **kwargs)

        monkeypatch.setattr(trainer, "fit_model", counting_fit_model)
        config_path, out_dir = write_config(tmp_path, split={"train_fraction": 0.95, "seed": 13})
        parts = split(load_corpus(tmp_path / "corpus.jsonl"), SplitSpec(0.95, seed=13))
        assert [len(part) for part in parts][1:] == [1, 0]
        assert main(["ablate", "--config", str(config_path)]) == 3
        assert fits == []
        assert capsys.readouterr().err == "data error: ablation requires a non-empty test split\n"
        assert not (out_dir / "ablation.tsv").exists()

    def test_unknown_combo_exits_2(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert main(["ablate", "--config", str(config_path), "--grid", "nope"]) == 2

    @pytest.mark.parametrize("grid", ["full", "full,full", " full , "])
    def test_full_alone_exits_2(self, tmp_path, capsys, grid):
        """The table compares each combination with ``full``, so ``full``
        alone leaves nothing to compare."""
        config_path, _ = write_config(tmp_path)
        assert main(["ablate", "--config", str(config_path), "--grid", grid]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_repeated_names_fit_once(self, tmp_path, monkeypatch):
        fits, run_pipeline = [], cli.run_pipeline

        def counting_run_pipeline(corpus, **kwargs):
            fits.append(kwargs["train_cfg"].use_graph)
            return run_pipeline(corpus, **kwargs)

        monkeypatch.setattr(cli, "run_pipeline", counting_run_pipeline)
        config_path, out_dir = write_config(
            tmp_path,
            train={**TRAIN_SECTION, "epochs": 5},
            contrastive={"epochs": 1, "negatives_per_anchor": 4},
        )
        assert main([
            "ablate", "--config", str(config_path), "--grid", "full,full,no_graph",
        ]) == 0
        assert fits == [True, False]
        table = (out_dir / "ablation.tsv").read_text().strip().split("\n")
        assert [line.split("\t")[0] for line in table[1:]] == ["full", "no_graph"]


class TestHelp:
    @pytest.mark.parametrize(
        "command", ["trace", "pretrain", "train", "evaluate", "predict", "ablate"]
    )
    def test_help_lists_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out

    def test_module_entry_point(self):
        import subprocess
        import sys

        repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(repo_root, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "lexjudge", "--help"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        for sub in ("trace", "pretrain", "train", "evaluate", "predict", "ablate"):
            assert sub in proc.stdout
