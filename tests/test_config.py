import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import synth
from lexjudge import (
    ConfigError, ContrastiveConfig, Corpus, ScenarioKind, SplitSpec, Task, TrainConfig,
)
from lexjudge.config import CONFIG_SCHEMA, RunConfig, load_run_config


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def base_doc(**extra):
    doc = {"version": 1, "seed": 7}
    doc.update(extra)
    return doc


class TestLoadRunConfig:
    def test_defaults(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, base_doc()))
        assert cfg.seed == 7
        assert cfg.backend == "hashed"
        assert cfg.threshold == 0.8
        split = cfg.split_spec()
        assert split.train_fraction == 0.8
        train = cfg.train_config()
        assert train.epochs == 5000  # reference recipe; runs override
        assert train.learning_rate == 0.01
        assert train.heads == 4
        contrastive = cfg.contrastive_config()
        assert contrastive.temperature == 0.05
        assert contrastive.negatives_per_anchor == 7

    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "cannot read config file"),
            ("{nope", "config file .* is not valid JSON"),
            (b"\xff\xfe{\x00}\x00", "config file .* is not UTF-8"),
        ],
        ids=["missing", "invalid-json", "utf-16"],
    )
    def test_unreadable_file(self, tmp_path, text, message):
        path = tmp_path / "config.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_run_config(path)

    def test_version_required(self, tmp_path):
        with pytest.raises(ConfigError, match="version"):
            load_run_config(write_config(tmp_path, {"seed": 1}))

    def test_unknown_section_key(self, tmp_path):
        doc = base_doc(train={"epochs": 5, "bogus": True})
        with pytest.raises(ConfigError, match="bogus"):
            load_run_config(write_config(tmp_path, doc))

    def test_bad_backend(self, tmp_path):
        doc = base_doc(encoder={"backend": "quantum"})
        with pytest.raises(ConfigError, match="backend"):
            load_run_config(write_config(tmp_path, doc))

    def test_env_seed_overrides_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMDR_SEED", "1234")
        cfg = load_run_config(write_config(tmp_path, base_doc()))
        assert cfg.seed == 1234

    def test_flag_outranks_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMDR_SEED", "1234")
        cfg = load_run_config(write_config(tmp_path, base_doc()), seed_flag=9)
        assert cfg.seed == 9

    def test_non_integer_env_seed_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMDR_SEED", "abc")
        with pytest.raises(ConfigError, match="SEMDR_SEED"):
            load_run_config(write_config(tmp_path, base_doc()))

    @pytest.mark.parametrize("seed", [True, 1.0, -1])
    def test_seed_must_be_an_unsigned_integer(self, tmp_path, seed):
        with pytest.raises(ConfigError, match="seed must be an unsigned 64-bit integer, got"):
            load_run_config(write_config(tmp_path, base_doc(seed=seed)))

    @pytest.mark.parametrize(
        "section, key, value, kind",
        [
            ("paths", "corpus", ["a"], "a string"),
            ("paths", "output_dir", 7, "a string"),
            ("paths", "checkpoint", True, "a string"),
            ("scenario", "case_cap", 2.5, "an integer"),
            ("scenario", "charge_allowlist", "robbery", "a JSON list"),
            ("split", "seed", "13", "an integer"),
            ("encoder", "backend", 5, "a string"),
            ("contrastive", "epochs", 3.0, "an integer"),
            ("train", "tasks", "charge", "a JSON list"),
            ("train", "use_graph", "false", "a JSON boolean"),
            ("tracer", "threshold", "0.5", "a number"),
        ],
    )
    def test_every_key_is_checked_at_load(self, tmp_path, section, key, value, kind):
        doc = base_doc(**{section: {key: value}})
        message = f"{section}.{key} must be {kind}, got {value!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_run_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize(
        "section, key",
        [
            ("paths", "corpus"),
            ("encoder", "backend"),
            ("split", "seed"),
            ("contrastive", "dropout_rate"),
            ("train", "tasks"),
            ("train", "epochs"),
            ("tracer", "threshold"),
        ],
    )
    def test_null_only_where_the_default_is_none(self, tmp_path, section, key):
        doc = base_doc(**{section: {key: None}})
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be")):
            load_run_config(write_config(tmp_path, doc))

    def test_invalid_task_name(self, tmp_path):
        doc = base_doc(train={"tasks": ["charge", "sentence"]})
        cfg = load_run_config(write_config(tmp_path, doc))
        with pytest.raises(ConfigError, match="task"):
            cfg.train_config()


def resolve(cfg: RunConfig, section: str):
    """Build the stage config that reads ``section``."""
    return {
        "train": cfg.train_config,
        "encoder": cfg.encoder_params,
        "contrastive": cfg.contrastive_config,
        "split": cfg.split_spec,
        "tracer": lambda: cfg.threshold,
    }[section]()


class TestValueTypes:
    """Values are checked against their key's kind, never coerced: a toggle
    is a JSON boolean, an integer key takes an integer, a real-valued key
    a number, and bools count as neither."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "use_graph", "false"),
            ("train", "freeze_encoder", "no"),
            ("train", "use_clue_tracing", 1),
            ("train", "use_contrastive", None),
        ],
    )
    def test_toggle_must_be_a_boolean(self, section, key, value):
        cfg = RunConfig(**{section: {key: value}})
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be a JSON boolean")):
            resolve(cfg, section)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "epochs", 2.9),
            ("train", "heads", True),
            ("train", "batch_size", 2.5),
            ("encoder", "output_dim", 16.7),
            ("encoder", "bucket_count", "256"),
            ("contrastive", "negatives_per_anchor", False),
            ("contrastive", "epochs", 3.0),
            ("split", "seed", "13"),
        ],
    )
    def test_integer_key_rejects_non_integers_and_bools(self, section, key, value):
        cfg = RunConfig(**{section: {key: value}})
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be an integer")):
            resolve(cfg, section)

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "learning_rate", True),
            ("train", "leaky_slope", "0.2"),
            ("train", "dropout_rate", None),
            ("contrastive", "temperature", "0.05"),
            ("split", "train_fraction", False),
            ("tracer", "threshold", "0.5"),
            ("tracer", "threshold", True),
        ],
    )
    def test_real_key_rejects_bools_and_non_numbers(self, section, key, value):
        cfg = RunConfig(**{section: {key: value}})
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be a number")):
            resolve(cfg, section)

    def test_scenario_count_must_be_an_integer(self):
        cfg = RunConfig(scenario={"kind": "confusing", "case_cap": 2.5})
        corpus = Corpus.from_records(synth.separable_records(cases_per_charge=2, seed=2))
        with pytest.raises(ConfigError, match=re.escape("scenario.case_cap must be an integer")):
            cfg.scenario_spec(corpus)

    def test_numeric_tower_values_pass_converted(self):
        """Estimator parameter search may hand in numpy scalars or other
        ``numbers.Integral``/``numbers.Real`` values."""
        cfg = RunConfig(
            train={"epochs": np.int64(3), "batch_size": np.int32(2),
                   "learning_rate": Fraction(1, 50), "leaky_slope": 0},
            encoder={"output_dim": np.int64(8), "bucket_count": 64},
            tracer={"threshold": np.float64(0.75)},
        )
        train = cfg.train_config()
        assert (train.epochs, train.batch_size) == (3, 2)
        assert type(train.epochs) is int and type(train.batch_size) is int
        assert train.learning_rate == 0.02 and type(train.learning_rate) is float
        assert train.leaky_slope == 0.0 and type(train.leaky_slope) is float
        assert cfg.encoder_params().output_dim == 8
        assert cfg.threshold == 0.75 and type(cfg.threshold) is float

    @pytest.mark.parametrize(
        "make",
        [TrainConfig, ContrastiveConfig, lambda seed: SplitSpec(0.8, seed=seed)],
        ids=["train", "contrastive", "split"],
    )
    def test_numpy_integer_seed_is_stored_as_int(self, make):
        """The seed check takes any integer, as every integer key does; the
        config keeps a Python int, the type the splitmix64 arithmetic needs."""
        seed = make(seed=np.int64(11)).seed
        assert seed == 11 and type(seed) is int

    def test_null_batch_size_means_full_batch(self):
        assert RunConfig(train={"batch_size": None}).train_config().batch_size is None


class TestScenarioResolution:
    def corpus(self):
        records = synth.separable_records(cases_per_charge=4, seed=2)
        return Corpus.from_records(records)

    def test_none_when_absent(self, tmp_path):
        cfg = load_run_config(write_config(tmp_path, base_doc()))
        assert cfg.scenario_spec(self.corpus()) is None

    def test_high_frequency_defaults(self, tmp_path):
        doc = base_doc(scenario={"kind": "high_frequency"})
        cfg = load_run_config(write_config(tmp_path, doc))
        spec = cfg.scenario_spec(self.corpus())
        assert spec.kind is ScenarioKind.HIGH_FREQUENCY
        assert spec.min_charge_count == 101
        assert spec.min_article_count == 10
        assert spec.max_charge_count is None

    def test_low_frequency_defaults(self, tmp_path):
        doc = base_doc(scenario={"kind": "low_frequency"})
        spec = load_run_config(write_config(tmp_path, doc)).scenario_spec(self.corpus())
        assert (spec.min_charge_count, spec.max_charge_count) == (50, 100)

    def test_allowlist_maps_surfaces_to_ids(self, tmp_path):
        doc = base_doc(scenario={
            "kind": "confusing",
            "min_charge_count": 0,
            "charge_allowlist": ["robbery", "fraud"],
            "case_cap": 5,
        })
        corpus = self.corpus()
        spec = load_run_config(write_config(tmp_path, doc)).scenario_spec(corpus)
        vocab = corpus.vocab(Task.CHARGE)
        assert spec.charge_allowlist == {
            vocab.label_id("robbery"), vocab.label_id("fraud")
        }
        assert spec.case_cap == 5

    def test_null_count_where_the_preset_leaves_it_unset(self, tmp_path):
        doc = base_doc(scenario={
            "kind": "low_frequency", "min_article_count": None, "case_cap": None,
            "charge_allowlist": None,
        })
        spec = load_run_config(write_config(tmp_path, doc)).scenario_spec(self.corpus())
        assert (spec.min_charge_count, spec.max_charge_count) == (50, 100)
        assert (spec.min_article_count, spec.case_cap, spec.charge_allowlist) == (None,) * 3

    @pytest.mark.parametrize(
        "kind, key",
        [
            ("high_frequency", "min_article_count"),
            ("low_frequency", "max_charge_count"),
            ("confusing", "min_charge_count"),
        ],
    )
    def test_null_count_where_the_preset_sets_it(self, tmp_path, kind, key):
        doc = base_doc(scenario={"kind": kind, key: None})
        message = f"scenario.{key} must be an integer, got None"
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_run_config(write_config(tmp_path, doc))

    def test_unknown_allowlist_surface(self, tmp_path):
        doc = base_doc(scenario={"kind": "confusing", "charge_allowlist": ["arson"]})
        cfg = load_run_config(write_config(tmp_path, doc))
        with pytest.raises(ConfigError, match="arson"):
            cfg.scenario_spec(self.corpus())

    def test_unknown_kind(self, tmp_path):
        doc = base_doc(scenario={"kind": "weird"})
        cfg = load_run_config(write_config(tmp_path, doc))
        with pytest.raises(ConfigError, match="kind"):
            cfg.scenario_spec(self.corpus())


def test_readme_schema_names_every_key():
    """README's "Config schema" table has a row for each section of
    ``CONFIG_SCHEMA`` and no other, naming each of its keys in backticks."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8").split("### Config schema", 1)[1]
    rows = {}
    for line in text.split("\n\n")[2].split("\n"):
        cells = re.split(r"(?<!\\)\|", line)  # a cell may hold an escaped \|
        name = re.fullmatch(r"`(\w+)`", cells[1].strip())
        if name:
            rows[name.group(1)] = cells[2]
    assert set(rows) == set(CONFIG_SCHEMA)
    for section, kinds in CONFIG_SCHEMA.items():
        missing = [key for key in kinds if f"`{key}`" not in rows[section]]
        assert not missing, f"README's {section} row does not name {missing}"
