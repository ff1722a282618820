"""Run configuration: one JSON document with a version field.

Precedence for the master seed is flag > SEMDR_SEED environment variable >
config file > default. Section defaults document the reference recipe;
desk-scale runs override them in the file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .contrastive import ContrastiveConfig
from .corpus import Corpus, ScenarioKind, ScenarioSpec, SplitSpec, Task, TASKS
from .encoder import DropoutSpec
from .errors import ConfigError
from .rng import derive
from .trainer import TrainConfig

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
    def threshold(self) -> float:
        return float(self.tracer.get("threshold", 0.8))

    def encoder_args(self) -> dict:
        return {
            "output_dim": int(self.encoder.get("output_dim", 256)),
            "bucket_count": int(self.encoder.get("bucket_count", 4096)),
            "ngram_min": int(self.encoder.get("ngram_min", 1)),
            "ngram_max": int(self.encoder.get("ngram_max", 3)),
        }

    @_section_values("split")
    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            train_fraction=float(self.split.get("train_fraction", 0.8)),
            seed=int(self.split.get("seed", derive(self.seed, "split"))),
        )

    @_section_values("contrastive")
    def contrastive_config(self) -> ContrastiveConfig:
        return ContrastiveConfig(
            temperature=float(self.contrastive.get("temperature", 0.05)),
            negatives_per_anchor=int(self.contrastive.get("negatives_per_anchor", 7)),
            epochs=int(self.contrastive.get("epochs", 20)),
            learning_rate=float(self.contrastive.get("learning_rate", 0.01)),
            dropout=DropoutSpec(
                rate=float(self.contrastive.get("dropout_rate", 0.1)),
                seed=derive(self.seed, "dropout"),
            ),
            seed=derive(self.seed, "contrastive"),
        )

    @_section_values("train")
    def train_config(self, overrides: dict | None = None) -> TrainConfig:
        section = dict(self.train)
        if overrides:
            section.update(overrides)
        tasks = section.get("tasks")
        if tasks is None:
            task_tuple = TASKS
        else:
            try:
                task_tuple = tuple(Task(t) for t in tasks)
            except ValueError as exc:
                raise ConfigError(f"invalid task in train.tasks: {exc}") from exc
        batch_size = section.get("batch_size")
        return TrainConfig(
            epochs=int(section.get("epochs", 5000)),
            learning_rate=float(section.get("learning_rate", 0.01)),
            seed=self.seed,
            tasks=task_tuple,
            use_clue_tracing=bool(section.get("use_clue_tracing", True)),
            use_contrastive=bool(section.get("use_contrastive", True)),
            use_graph=bool(section.get("use_graph", True)),
            freeze_encoder_after_contrastive=bool(section.get("freeze_encoder", True)),
            heads=int(section.get("heads", 4)),
            leaky_slope=float(section.get("leaky_slope", 0.2)),
            batch_size=int(batch_size) if batch_size is not None else None,
            dropout_rate=float(section.get("dropout_rate", 0.5)),
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
        allowlist = None
        if section.get("charge_allowlist") is not None:
            vocab = corpus.vocab(Task.CHARGE)
            try:
                allowlist = frozenset(vocab.label_id(s) for s in section["charge_allowlist"])
            except KeyError as exc:
                raise ConfigError(f"scenario allowlist: {exc}") from exc
        defaults = {
            ScenarioKind.HIGH_FREQUENCY: {"min_charge_count": 101, "min_article_count": 10},
            ScenarioKind.LOW_FREQUENCY: {"min_charge_count": 50, "max_charge_count": 100},
            ScenarioKind.CONFUSING: {},
        }[kind]
        min_charge = int(section.get("min_charge_count", defaults.get("min_charge_count", 0)))
        max_charge = section.get("max_charge_count", defaults.get("max_charge_count"))
        min_article = section.get("min_article_count", defaults.get("min_article_count"))
        case_cap = section.get("case_cap")
        try:
            return ScenarioSpec(
                kind=kind,
                min_charge_count=min_charge,
                max_charge_count=int(max_charge) if max_charge is not None else None,
                min_article_count=int(min_article) if min_article is not None else None,
                charge_allowlist=allowlist,
                case_cap=int(case_cap) if case_cap is not None else None,
            )
        except ValueError as exc:
            raise ConfigError(f"invalid scenario section: {exc}") from exc


def load_run_config(path, seed_flag: int | None = None) -> RunConfig:
    """Read and validate a config file, applying the seed precedence."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
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
    if not isinstance(seed, int) or not 0 <= seed < (1 << 64):
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {seed!r}")

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
