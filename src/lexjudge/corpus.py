"""Corpus ingestion, label vocabularies, scenario filtering, and splits.

The corpus file is UTF-8 JSONL, one case per line:

    {"id": "...", "fact": "...",
     "sections": {"statement": "...", "date": "...", "location": "...", "process": "..."},
     "labels": {"imprisonment": "...", "charge": "...", "article": "..."}}

``sections`` is optional; when absent the clue tracer segments the fact
text. Label vocabularies assign dense ids 0..K-1 in first-occurrence
order. Splits shuffle with the documented splitmix64 Fisher-Yates pass,
so identical seeds give identical partitions everywhere.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

from .clues import SECTION_NAMES, SectionMap
from .errors import DataError
from .rng import SplitMix64, derive
from .validation import check_fraction, check_seed, check_unicode, read_input


class Task(enum.Enum):
    IMPRISONMENT = "imprisonment"
    CHARGE = "charge"
    ARTICLE = "article"


TASKS: tuple[Task, ...] = (Task.IMPRISONMENT, Task.CHARGE, Task.ARTICLE)
# The task names in TASKS order: the per-case loops index by position, so
# they neither hash the enum nor read its ``value`` descriptor.
_TASK_NAMES: tuple[str, ...] = tuple(task.value for task in TASKS)


@dataclass(frozen=True)
class JudgmentLabels:
    """Per-task gold label ids for one case."""

    imprisonment: int
    charge: int
    article: int

    def get(self, task: Task) -> int:
        return getattr(self, task.value)


@dataclass
class CriminalCase:
    """One legal document with its gold labels and optional sections."""

    id: str
    fact_text: str
    labels: JudgmentLabels
    sections: SectionMap | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("case id must be non-empty")
        if not self.fact_text:
            raise ValueError(f"case {self.id}: fact_text must be non-empty")


class LabelVocab:
    """Ordered label vocabulary for one task; ids are dense 0..K-1."""

    def __init__(self, task: Task, entries: Sequence[str]):
        if not entries:
            raise ValueError(f"{task.value} vocabulary must be non-empty")
        if any(not isinstance(e, str) or not e for e in entries):
            raise ValueError(f"{task.value} vocabulary entries must be non-empty strings")
        if len(set(entries)) != len(entries):
            raise ValueError(f"{task.value} vocabulary entries must be unique")
        self.task = task
        self.entries: tuple[str, ...] = tuple(entries)
        self._ids = {surface: i for i, surface in enumerate(self.entries)}

    @property
    def size(self) -> int:
        return len(self.entries)

    def label_id(self, surface: str) -> int:
        try:
            return self._ids[surface]
        except KeyError:
            raise KeyError(f"unknown {self.task.value} label {surface!r}") from None

    def surface(self, label_id: int) -> str:
        return self.entries[label_id]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabelVocab)
            and self.task is other.task
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"LabelVocab({self.task.value}, {len(self.entries)} labels)"


class Corpus:
    """A list of cases plus the per-task label vocabularies they resolve in."""

    def __init__(self, cases: Sequence[CriminalCase], vocabs: dict[Task, LabelVocab]):
        seen: set[str] = set()
        for case in cases:
            if case.id in seen:
                raise DataError(f"duplicate case id {case.id!r}")
            seen.add(case.id)
        for task in TASKS:
            if task not in vocabs:
                raise ValueError(f"missing vocabulary for task {task.value}")
        n_imprisonment, n_charge, n_article = (vocabs[task].size for task in TASKS)
        for case in cases:
            labels = case.labels
            if not (
                0 <= labels.imprisonment < n_imprisonment
                and 0 <= labels.charge < n_charge
                and 0 <= labels.article < n_article
            ):
                task = next(t for t in TASKS if not 0 <= labels.get(t) < vocabs[t].size)
                raise ValueError(f"case {case.id}: {task.value} label id out of range")
        self.cases: list[CriminalCase] = list(cases)
        self.vocabs = dict(vocabs)

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self) -> Iterator[CriminalCase]:
        return iter(self.cases)

    def __getitem__(self, i: int) -> CriminalCase:
        return self.cases[i]

    def ids(self) -> list[str]:
        return [case.id for case in self.cases]

    def vocab(self, task: Task) -> LabelVocab:
        return self.vocabs[task]

    def gold_ids(self, task: Task) -> list[int]:
        return [case.labels.get(task) for case in self.cases]

    @classmethod
    def from_records(cls, records: Sequence[dict]) -> "Corpus":
        """Build a corpus from in-memory records in the JSONL schema
        (vocabularies derived in first-occurrence order)."""
        if not records:
            raise DataError("empty corpus")
        parsed = [
            _parse_record(obj, f"record {i}") for i, obj in enumerate(records, start=1)
        ]
        return _build_corpus(parsed)


def _parse_sections(obj: dict, where: str) -> SectionMap | None:
    sections = obj.get("sections")
    if sections is None:
        return None
    if not isinstance(sections, dict):
        raise DataError(f"{where}: 'sections' must be an object")
    for key in sections:
        if key not in SECTION_NAMES:
            raise DataError(f"{where}: unknown section {key!r}")
    values = {k: sections.get(k, "") for k in SECTION_NAMES}
    for key, value in values.items():
        if not isinstance(value, str):
            raise DataError(f"{where}: section {key!r} must be a string")
    if not values["process"]:
        raise DataError(f"{where}: sections.process must be non-empty")
    return SectionMap(**values)


def _parse_record(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise DataError(f"{where}: record must be a JSON object")
    case_id = obj.get("id")
    if not isinstance(case_id, str) or not case_id:
        raise DataError(f"{where}: missing or empty 'id' field")
    fact = obj.get("fact")
    if not isinstance(fact, str) or not fact:
        raise DataError(f"{where}: missing or empty 'fact' field")
    labels = obj.get("labels")
    if not isinstance(labels, dict):
        raise DataError(f"{where}: missing 'labels' object")
    surfaces = tuple(map(labels.get, _TASK_NAMES))
    for name, value in zip(_TASK_NAMES, surfaces):
        if not isinstance(value, str) or not value:
            raise DataError(f"{where}: missing '{name}' field in labels")
    return {
        "id": case_id,
        "fact": fact,
        "sections": _parse_sections(obj, where),
        "surfaces": surfaces,
    }


def _build_corpus(records: Sequence[dict]) -> Corpus:
    """Records whose ``surfaces`` are label strings in ``TASKS`` order as a
    corpus; each vocabulary takes its labels in first-occurrence order."""
    ids: tuple[dict[str, int], ...] = tuple({} for _ in TASKS)
    by_imprisonment, by_charge, by_article = ids
    cases = []
    for rec in records:
        imprisonment, charge, article = rec["surfaces"]
        labels = JudgmentLabels(
            imprisonment=by_imprisonment.setdefault(imprisonment, len(by_imprisonment)),
            charge=by_charge.setdefault(charge, len(by_charge)),
            article=by_article.setdefault(article, len(by_article)),
        )
        cases.append(
            CriminalCase(
                id=rec["id"], fact_text=rec["fact"], labels=labels, sections=rec["sections"]
            )
        )
    vocabs = {task: LabelVocab(task, list(order)) for task, order in zip(TASKS, ids)}
    return Corpus(cases, vocabs)


def load_corpus(path) -> Corpus:
    """Load a JSONL corpus file, preserving file order.

    Raises DataError for I/O problems, malformed lines (naming the line
    number), duplicate ids, and empty files.
    """
    lines = read_input(path, "corpus file", DataError).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records = []
    for lineno, line in enumerate(lines, start=1):
        where = f"line {lineno}"
        if not line.strip():
            raise DataError(f"{where}: blank line in corpus file")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: invalid JSON: {exc}") from exc
        records.append(_parse_record(check_unicode(obj, line, where, DataError), where))
    if not records:
        raise DataError("empty corpus")
    return _build_corpus(records)


class ScenarioKind(enum.Enum):
    HIGH_FREQUENCY = "high_frequency"
    LOW_FREQUENCY = "low_frequency"
    CONFUSING = "confusing"


# The count bounds of each scenario when ``ScenarioSpec.preset`` or a config
# leaves them out.
SCENARIO_DEFAULTS: dict[ScenarioKind, dict[str, int]] = {
    ScenarioKind.HIGH_FREQUENCY: {"min_charge_count": 101, "min_article_count": 10},
    ScenarioKind.LOW_FREQUENCY: {"min_charge_count": 50, "max_charge_count": 100},
    ScenarioKind.CONFUSING: {"min_charge_count": 0},
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Charge-frequency filter defining one of the three testing scenarios.

    Bounds are inclusive and evaluated against charge frequencies counted
    on the input corpus, before filtering.
    """

    kind: ScenarioKind
    min_charge_count: int = 0
    max_charge_count: int | None = None
    min_article_count: int | None = None
    charge_allowlist: frozenset[int] | None = None
    case_cap: int | None = None

    def __post_init__(self):
        if self.max_charge_count is not None and self.min_charge_count > self.max_charge_count:
            raise ValueError("min_charge_count must not exceed max_charge_count")
        if self.case_cap is not None and self.case_cap <= 0:
            raise ValueError("case_cap must be positive when present")

    @classmethod
    def preset(cls, kind: ScenarioKind | str, **overrides) -> "ScenarioSpec":
        """A spec of ``kind`` whose counts default to its preset in
        ``SCENARIO_DEFAULTS``; ``overrides`` set any field, counts included."""
        kind = ScenarioKind(kind)
        return cls(kind, **{**SCENARIO_DEFAULTS[kind], **overrides})


def filter_scenario(corpus: Corpus, spec: ScenarioSpec, seed: int = 0) -> Corpus:
    """Retain the cases matching a scenario spec; vocabularies are re-derived.

    Charge/article frequencies are counted on the input corpus. When
    ``case_cap`` truncates, the retained subset is drawn uniformly at
    random from the seeded generator and kept in corpus order.
    """
    if len(corpus) == 0:
        raise DataError("cannot filter an empty corpus")
    charge_counts = Counter(case.labels.charge for case in corpus)
    article_counts = Counter(case.labels.article for case in corpus)
    kept = []
    for case in corpus:
        count = charge_counts[case.labels.charge]
        if count < spec.min_charge_count:
            continue
        if spec.max_charge_count is not None and count > spec.max_charge_count:
            continue
        if (
            spec.min_article_count is not None
            and article_counts[case.labels.article] < spec.min_article_count
        ):
            continue
        if spec.charge_allowlist is not None and case.labels.charge not in spec.charge_allowlist:
            continue
        kept.append(case)
    if not kept:
        raise DataError("scenario filter produced an empty corpus")
    if spec.case_cap is not None and len(kept) > spec.case_cap:
        order = list(range(len(kept)))
        SplitMix64(derive(seed, "scenario-cap")).shuffle(order)
        kept = [kept[i] for i in sorted(order[: spec.case_cap])]
    old_vocabs = corpus.vocabs
    records = [
        {
            "id": case.id,
            "fact": case.fact_text,
            "sections": case.sections,
            "surfaces": tuple(old_vocabs[task].surface(case.labels.get(task)) for task in TASKS),
        }
        for case in kept
    ]
    return _build_corpus(records)


@dataclass(frozen=True)
class SplitSpec:
    """Seeded train/validation/test split; the non-train mass is halved,
    validation taking the odd case."""

    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        check_fraction(self.train_fraction, "train_fraction")
        object.__setattr__(self, "seed", check_seed(self.seed))


def split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Partition a corpus into (train, validation, test).

    A splitmix64-driven Fisher-Yates shuffle orders the cases; the first
    floor(n * train_fraction) go to train and the remainder is split as
    evenly as possible, validation receiving the extra case when odd.
    Sub-corpora keep the parent vocabularies so label ids stay aligned.
    """
    n = len(corpus)
    if n < 3:
        raise DataError(f"need at least 3 cases to split, got {n}")
    order = list(range(n))
    SplitMix64(spec.seed).shuffle(order)
    n_train = math.floor(n * spec.train_fraction)
    remainder = n - n_train
    n_test = remainder // 2
    n_val = remainder - n_test
    train_idx = order[:n_train]
    val_idx = order[n_train : n_train + n_val]
    test_idx = order[n_train + n_val :]
    make = lambda idx: Corpus([corpus.cases[i] for i in idx], corpus.vocabs)
    return make(train_idx), make(val_idx), make(test_idx)


__all__ = [
    "Task", "TASKS", "JudgmentLabels", "CriminalCase", "LabelVocab", "Corpus",
    "load_corpus", "ScenarioKind", "ScenarioSpec", "filter_scenario",
    "SplitSpec", "split",
]
