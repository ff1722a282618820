"""Run configuration: one JSON document with a version field.

Precedence for the master seed is flag > SEMDR_SEED environment variable >
config file > default. A key left out takes the default of the stage
object that reads it (``TrainConfig``, ``ContrastiveConfig``,
``DropoutSpec``, ``SplitSpec``, ``HashedEncoderParams.initialize``, and
``ScenarioSpec`` with its preset's counts); those defaults document the
reference recipe, and desk-scale runs override them in the file.
"""

from __future__ import annotations

import inspect
import os
from contextlib import contextmanager
from dataclasses import dataclass, field

from .contrastive import ContrastiveConfig
from .corpus import SCENARIO_DEFAULTS, Corpus, ScenarioKind, ScenarioSpec, SplitSpec, Task
from .encoder import DropoutSpec, HashedEncoderParams
from .errors import ConfigError
from .rng import derive
from .trainer import TrainConfig
from .validation import check_kind, check_seed, check_threshold, read_input

CONFIG_VERSION = 1
SEED_ENV_VAR = "SEMDR_SEED"

# Each section's keys and the kind of value each must have (``check_kind``).
CONFIG_SCHEMA: dict[str, dict[str, type]] = {
    "paths": dict.fromkeys(("corpus", "lexicon", "embeddings", "checkpoint", "output_dir"), str),
    "scenario": {
        "kind": str, "min_charge_count": int, "max_charge_count": int,
        "min_article_count": int, "charge_allowlist": list, "case_cap": int,
    },
    "split": {"train_fraction": float, "seed": int},
    "encoder": {
        "backend": str, "output_dim": int, "bucket_count": int, "ngram_min": int, "ngram_max": int,
    },
    "contrastive": {
        "temperature": float, "negatives_per_anchor": int, "epochs": int,
        "learning_rate": float, "dropout_rate": float,
    },
    "train": {
        "epochs": int, "learning_rate": float, "tasks": list, "use_clue_tracing": bool,
        "use_contrastive": bool, "use_graph": bool, "freeze_encoder": bool, "heads": int,
        "leaky_slope": float, "batch_size": int, "dropout_rate": float,
    },
    "tracer": {"threshold": float},
}

# The stage object whose parameters give a section's defaults.
_STAGES = {
    "scenario": ScenarioSpec, "split": SplitSpec, "encoder": HashedEncoderParams.initialize,
    "contrastive": ContrastiveConfig, "train": TrainConfig,
}


@contextmanager
def _section_values(name: str):
    """Report a value that a section's config object rejects, or a size it
    cannot allocate, as a ConfigError naming the section (used as a method
    decorator)."""
    try:
        yield
    except (TypeError, ValueError, MemoryError) as exc:
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

    def _given(self, name: str) -> dict:
        """The keys section ``name`` sets, each checked against
        ``CONFIG_SCHEMA``: an unknown key, or a value of another kind, is a
        ConfigError naming it. A null passes where the key's default is None."""
        section = getattr(self, name) or {}
        kinds = CONFIG_SCHEMA[name]
        unknown = set(section) - set(kinds)
        if unknown:
            raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
        return {
            key: value if value is None and key in self._null_keys(name)
            else check_kind(value, kinds[key], f"{name}.{key}", ConfigError)
            for key, value in section.items()
        }

    def _null_keys(self, name: str) -> set[str]:
        """The keys of section ``name`` whose default is None: the stage
        object's parameters that default to None, less the preset's counts."""
        if name not in _STAGES:
            return set()
        params = inspect.signature(_STAGES[name]).parameters
        keys = {key for key, param in params.items() if param.default is None}
        if name == "scenario":
            keys -= set(SCENARIO_DEFAULTS[self._scenario_kind()])
        return keys

    def _scenario_kind(self) -> ScenarioKind:
        try:
            return ScenarioKind(self.scenario["kind"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid scenario.kind: {exc}") from exc

    def path(self, name: str, required: bool = False) -> str | None:
        value = self._given("paths").get(name)
        if required and not value:
            raise ConfigError(f"config is missing paths.{name}")
        if required and not os.path.exists(value):
            raise ConfigError(f"paths.{name} does not exist: {value}")
        return value

    @property
    def backend(self) -> str:
        return self._given("encoder").get("backend", "hashed")

    @property
    @_section_values("tracer")
    def threshold(self) -> float:
        return check_threshold(self._given("tracer").get("threshold", 0.8))

    @_section_values("encoder")
    def encoder_params(self) -> HashedEncoderParams:
        """The hashed encoder's initial parameters, seeded from the master seed."""
        values = self._given("encoder")
        values.pop("backend", None)
        return HashedEncoderParams.initialize(**values, seed=derive(self.seed, "encoder"))

    @_section_values("split")
    def split_spec(self) -> SplitSpec:
        return SplitSpec(**{"seed": derive(self.seed, "split"), **self._given("split")})

    @_section_values("contrastive")
    def contrastive_config(self) -> ContrastiveConfig:
        values = self._given("contrastive")
        rate = {"rate": values.pop("dropout_rate")} if "dropout_rate" in values else {}
        return ContrastiveConfig(
            **values,
            dropout=DropoutSpec(**rate, seed=derive(self.seed, "dropout")),
            seed=derive(self.seed, "contrastive"),
        )

    @_section_values("train")
    def train_config(self) -> TrainConfig:
        return TrainConfig(**self._given("train"), seed=self.seed)

    @_section_values("scenario")
    def scenario_spec(self, corpus: Corpus) -> ScenarioSpec | None:
        """Resolve the scenario section against a loaded corpus (the
        allowlist is written as charge surface strings)."""
        if self.scenario is None:
            return None
        values = self._given("scenario")
        kind = self._scenario_kind()
        del values["kind"]
        allowlist = values.pop("charge_allowlist", None)
        if allowlist is not None:
            if not all(isinstance(s, str) for s in allowlist):
                raise ConfigError(
                    f"scenario.charge_allowlist must be a list of charge names, got {allowlist!r}"
                )
            vocab = corpus.vocab(Task.CHARGE)
            try:
                allowlist = frozenset(vocab.label_id(s) for s in allowlist)
            except KeyError as exc:
                raise ConfigError(f"scenario allowlist: {exc}") from exc
        return ScenarioSpec.preset(kind, charge_allowlist=allowlist, **values)


def load_run_config(path, seed_flag: int | None = None) -> RunConfig:
    """Read and validate a config file, applying the seed precedence. Every
    key is checked against ``CONFIG_SCHEMA`` here, whichever sections the
    command goes on to read."""
    doc = read_input(path, "config file", ConfigError, as_json=True)
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - {"version", "seed", *CONFIG_SCHEMA}
    if unknown:
        raise ConfigError(f"unknown key(s) in config: {sorted(unknown)}")
    version = doc.get("version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}, got {version!r}")
    # An absent scenario section means no scenario filter.
    sections = {name: doc.get(name, None if name == "scenario" else {}) for name in CONFIG_SCHEMA}
    for name, section in sections.items():
        if not isinstance(section, dict) and not (name == "scenario" and section is None):
            raise ConfigError(f"config section {name!r} must be an object")

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

    cfg = RunConfig(seed=seed, **sections)
    for name in CONFIG_SCHEMA:
        cfg._given(name)
    if cfg.backend not in ("hashed", "precomputed"):
        raise ConfigError(
            f"encoder.backend must be 'hashed' or 'precomputed', got {cfg.backend!r}"
        )
    return cfg
