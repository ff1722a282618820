"""Run configuration: one JSON document with a version field.

Precedence for the master seed is flag > SEMDR_SEED environment variable >
config file > default. Section defaults document the reference recipe;
desk-scale runs override them in the file.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .contrastive import ContrastiveConfig
from .corpus import (
    SCENARIO_DEFAULTS, Corpus, ScenarioKind, ScenarioSpec, SplitSpec, Task, TASKS,
)
from .encoder import DropoutSpec, HashedEncoderParams
from .errors import ConfigError
from .rng import derive
from .trainer import TrainConfig
from .validation import check_kind, check_seed, check_threshold, read_input

CONFIG_VERSION = 1
SEED_ENV_VAR = "SEMDR_SEED"

_TOP_LEVEL_KEYS = {
    "version", "seed", "paths", "scenario", "split", "encoder",
    "contrastive", "train", "tracer",
}
_PATH_KEYS = {"corpus", "lexicon", "embeddings", "checkpoint", "output_dir"}
_ENCODER_KEYS = {"backend", "bucket_count", "ngram_min", "ngram_max", "output_dim"}
_CONTRASTIVE_KEYS = {
    "temperature", "negatives_per_anchor", "epochs", "learning_rate", "dropout_rate",
}
_TRAIN_KEYS = {
    "epochs", "learning_rate", "tasks", "use_clue_tracing", "use_contrastive",
    "use_graph", "freeze_encoder", "heads", "leaky_slope", "batch_size",
    "dropout_rate",
}
_SPLIT_KEYS = {"train_fraction", "seed"}
_SCENARIO_KEYS = {
    "kind", "min_charge_count", "max_charge_count", "min_article_count",
    "charge_allowlist", "case_cap",
}
_TRACER_KEYS = {"threshold"}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(unknown)}")


def _get(section: dict, path: str, default, kind: type):
    """The value at ``path`` (``"<section>.<key>"``), else ``default``,
    checked by ``check_kind``. A key whose default is None may stay None."""
    value = section.get(path.split(".", 1)[1], default)
    if value is None and default is None:
        return None
    return check_kind(value, kind, path, ConfigError)


@contextmanager
def _section_values(name: str):
    """Report a value that a section's config object rejects as a
    ConfigError naming the section (used as a method decorator)."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name} section: {exc}") from exc


@dataclass
class RunConfig:
    seed: int = 0
    paths: dict = field(default_factory=dict)
    scenario: dict | None = None
    split: dict = field(default_factory=dict)
    encoder: dict = field(default_factory=dict)
    contrastive: dict = field(default_factory=dict)
    train: dict = field(default_factory=dict)
    tracer: dict = field(default_factory=dict)

    def path(self, name: str, required: bool = False) -> str | None:
        value = self.paths.get(name)
        if required and not value:
            raise ConfigError(f"config is missing paths.{name}")
        if required and not os.path.exists(value):
            raise ConfigError(f"paths.{name} does not exist: {value}")
        return value

    @property
    def backend(self) -> str:
        return self.encoder.get("backend", "hashed")

    @property
    @_section_values("tracer")
    def threshold(self) -> float:
        return check_threshold(_get(self.tracer, "tracer.threshold", 0.8, float))

    @_section_values("encoder")
    def encoder_params(self) -> HashedEncoderParams:
        """The hashed encoder's initial parameters, seeded from the master seed."""
        return HashedEncoderParams.initialize(
            output_dim=_get(self.encoder, "encoder.output_dim", 256, int),
            bucket_count=_get(self.encoder, "encoder.bucket_count", 4096, int),
            ngram_min=_get(self.encoder, "encoder.ngram_min", 1, int),
            ngram_max=_get(self.encoder, "encoder.ngram_max", 3, int),
            seed=derive(self.seed, "encoder"),
        )

    @_section_values("split")
    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train_fraction=_get(self.split, "split.train_fraction", 0.8, float),
            seed=_get(self.split, "split.seed", derive(self.seed, "split"), int),
        )

    @_section_values("contrastive")
    def contrastive_config(self) -> ContrastiveConfig:
        section = self.contrastive
        return ContrastiveConfig(
            temperature=_get(section, "contrastive.temperature", 0.05, float),
            negatives_per_anchor=_get(section, "contrastive.negatives_per_anchor", 7, int),
            epochs=_get(section, "contrastive.epochs", 20, int),
            learning_rate=_get(section, "contrastive.learning_rate", 0.01, float),
            dropout=DropoutSpec(
                rate=_get(section, "contrastive.dropout_rate", 0.1, float),
                seed=derive(self.seed, "dropout"),
            ),
            seed=derive(self.seed, "contrastive"),
        )

    @_section_values("train")
    def train_config(self) -> TrainConfig:
        section = self.train
        tasks = section.get("tasks")
        if tasks is None:
            task_tuple = TASKS
        else:
            try:
                task_tuple = tuple(Task(t) for t in tasks)
            except ValueError as exc:
                raise ConfigError(f"invalid task in train.tasks: {exc}") from exc
        return TrainConfig(
            epochs=_get(section, "train.epochs", 5000, int),
            learning_rate=_get(section, "train.learning_rate", 0.01, float),
            seed=self.seed,
            tasks=task_tuple,
            use_clue_tracing=_get(section, "train.use_clue_tracing", True, bool),
            use_contrastive=_get(section, "train.use_contrastive", True, bool),
            use_graph=_get(section, "train.use_graph", True, bool),
            freeze_encoder_after_contrastive=_get(section, "train.freeze_encoder", True, bool),
            heads=_get(section, "train.heads", 4, int),
            leaky_slope=_get(section, "train.leaky_slope", 0.2, float),
            batch_size=_get(section, "train.batch_size", None, int),
            dropout_rate=_get(section, "train.dropout_rate", 0.5, float),
        )

    def scenario_spec(self, corpus: Corpus) -> ScenarioSpec | None:
        """Resolve the scenario section against a loaded corpus (the
        allowlist is written as charge surface strings)."""
        if self.scenario is None:
            return None
        section = self.scenario
        try:
            kind = ScenarioKind(section["kind"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid scenario.kind: {exc}") from exc
        allowlist = section.get("charge_allowlist")
        if allowlist is not None:
            if not isinstance(allowlist, list) or not all(isinstance(s, str) for s in allowlist):
                raise ConfigError(
                    f"scenario.charge_allowlist must be a list of charge names, got {allowlist!r}"
                )
            vocab = corpus.vocab(Task.CHARGE)
            try:
                allowlist = frozenset(vocab.label_id(s) for s in allowlist)
            except KeyError as exc:
                raise ConfigError(f"scenario allowlist: {exc}") from exc
        defaults = SCENARIO_DEFAULTS[kind]
        counts = {
            key: _get(section, f"scenario.{key}", defaults.get(key), int)
            for key in ("min_charge_count", "max_charge_count", "min_article_count", "case_cap")
        }
        try:
            return ScenarioSpec(kind=kind, charge_allowlist=allowlist, **counts)
        except ValueError as exc:
            raise ConfigError(f"invalid scenario section: {exc}") from exc


def load_run_config(path, seed_flag: int | None = None) -> RunConfig:
    """Read and validate a config file, applying the seed precedence."""
    doc = read_input(path, "config file", ConfigError, as_json=True)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _check_keys(doc, _TOP_LEVEL_KEYS, "config")
    version = doc.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}, got {version!r}")
    sections = {
        "paths": _PATH_KEYS,
        "split": _SPLIT_KEYS,
        "encoder": _ENCODER_KEYS,
        "contrastive": _CONTRASTIVE_KEYS,
        "train": _TRAIN_KEYS,
        "tracer": _TRACER_KEYS,
    }
    for name, allowed in sections.items():
        section = doc.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        _check_keys(section, allowed, name)
    scenario = doc.get("scenario")
    if scenario is not None:
        if not isinstance(scenario, dict):
            raise ConfigError("config section 'scenario' must be an object")
        _check_keys(scenario, _SCENARIO_KEYS, "scenario")

    seed = doc.get("seed", 0)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from None
    if seed_flag is not None:
        seed = seed_flag
    check_seed(seed, "seed", ConfigError)

    backend = doc.get("encoder", {}).get("backend", "hashed")
    if backend not in ("hashed", "precomputed"):
        raise ConfigError(f"encoder.backend must be 'hashed' or 'precomputed', got {backend!r}")

    return RunConfig(
        seed=seed,
        paths=doc.get("paths", {}),
        scenario=scenario,
        split=doc.get("split", {}),
        encoder=doc.get("encoder", {}),
        contrastive=doc.get("contrastive", {}),
        train=doc.get("train", {}),
        tracer=doc.get("tracer", {}),
    )
