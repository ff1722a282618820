import copy
import json
import os

import pytest

import synth
from lexjudge.cli import ABLATION_COMBOS, main
from lexjudge import DivergenceError

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
        ],
    )
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, section, key, value):
        defaults = {
            "train": TRAIN_SECTION,
            "contrastive": CONTRASTIVE_SECTION,
            "split": {"train_fraction": 0.8, "seed": 13},
        }
        overrides = {section: {**defaults[section], key: value}}
        config_path, _ = write_config(tmp_path, **overrides)
        assert main(["train", "--config", str(config_path)]) == 2
        assert key in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, monkeypatch):
        config_path, _ = write_config(tmp_path)

        def explode(*args, **kwargs):
            raise DivergenceError("training loss diverged at epoch 0")

        monkeypatch.setattr("lexjudge.cli.run_pipeline", explode)
        assert main(["train", "--config", str(config_path)]) == 4

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


class TestCheckpointValidation:
    def predict_with(self, trained_checkpoint, tmp_path, corrupt):
        corpus_path, doc = trained_checkpoint
        doc = copy.deepcopy(doc)
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
        def corrupt(doc):
            rows = doc["graph"]["label_matrices"]["charge"]
            rows.append(list(rows[0]))

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        assert "charge label matrix has shape" in capsys.readouterr().err

    def test_nan_in_label_matrix_exits_3(self, trained_checkpoint, tmp_path, capsys):
        def corrupt(doc):
            doc["graph"]["label_matrices"]["article"][0][0] = float("nan")

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_mismatched_meta_dim_exits_3(self, trained_checkpoint, tmp_path, capsys):
        def corrupt(doc):
            doc["meta"]["dim"] += 1

        assert self.predict_with(trained_checkpoint, tmp_path, corrupt) == 3
        assert "meta.dim" in capsys.readouterr().err


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

    def test_unknown_combo_exits_2(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        assert main(["ablate", "--config", str(config_path), "--grid", "nope"]) == 2


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
