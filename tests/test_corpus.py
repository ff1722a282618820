import json

import pytest
from hypothesis import given, strategies as st

from lexjudge import (
    Corpus,
    DataError,
    ScenarioSpec,
    SplitSpec,
    Task,
    TASKS,
    filter_scenario,
    load_corpus,
    split,
)
from lexjudge.corpus import SCENARIO_DEFAULTS, ScenarioKind


def record(i, charge="theft", article="a1", imprisonment="m1", fact="some fact text"):
    return {
        "id": f"case-{i}",
        "fact": fact,
        "labels": {"imprisonment": imprisonment, "charge": charge, "article": article},
    }


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


class TestLoadCorpus:
    def test_three_valid_lines(self, tmp_path):
        records = [
            record(0, charge="theft"),
            record(1, charge="robbery"),
            record(2, charge="theft", article="a2"),
        ]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, records)
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.vocab(Task.CHARGE).size == 2
        assert corpus.vocab(Task.ARTICLE).size == 2
        assert corpus.vocab(Task.IMPRISONMENT).size == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read corpus file .*missing.jsonl"):
            load_corpus(tmp_path / "missing.jsonl")

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty corpus"):
            load_corpus(path)

    def test_missing_charge_names_line(self, tmp_path):
        good = record(0)
        bad = record(1)
        del bad["labels"]["charge"]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [good, bad])
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps(record(0)) + "\n{not json\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path)

    def test_non_utf8_file_is_an_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(json.dumps(record(0)).encode() + b"\n" + b'{"id": "\xff"}\n')
        with pytest.raises(DataError, match="corpus file .*corpus.jsonl is not UTF-8"):
            load_corpus(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [record(0), record(0)])
        with pytest.raises(DataError, match="duplicate"):
            load_corpus(path)

    def test_order_preserved_and_first_occurrence_vocab(self, tmp_path):
        records = [record(2, charge="z"), record(0, charge="a"), record(1, charge="z")]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, records)
        corpus = load_corpus(path)
        assert corpus.ids() == ["case-2", "case-0", "case-1"]
        assert corpus.vocab(Task.CHARGE).entries == ("z", "a")

    def test_sections_require_process(self, tmp_path):
        rec = record(0)
        rec["sections"] = {"statement": "s", "process": ""}
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, [rec])
        with pytest.raises(DataError, match="process"):
            load_corpus(path)


def corpus_with_counts(counts: dict[str, int]) -> Corpus:
    records = []
    i = 0
    for charge, count in counts.items():
        for _ in range(count):
            records.append(record(i, charge=charge, article=f"art-{charge}"))
            i += 1
    return Corpus.from_records(records)


class TestFilterScenario:
    def test_high_frequency_keeps_only_frequent_charge(self):
        corpus = corpus_with_counts({"X": 150, "Y": 60, "Z": 20})
        spec = ScenarioSpec.preset("high_frequency", min_charge_count=100, min_article_count=None)
        out = filter_scenario(corpus, spec)
        assert len(out) == 150
        assert out.vocab(Task.CHARGE).entries == ("X",)

    def test_low_frequency_band(self):
        corpus = corpus_with_counts({"X": 150, "Y": 60, "Z": 20})
        spec = ScenarioSpec.preset("low_frequency", min_charge_count=50, max_charge_count=100)
        out = filter_scenario(corpus, spec)
        assert len(out) == 60
        assert out.vocab(Task.CHARGE).entries == ("Y",)

    def test_confusing_allowlist_with_cap(self):
        corpus = corpus_with_counts({"X": 150, "Y": 60})
        allow = {corpus.vocab(Task.CHARGE).label_id("X")}
        spec = ScenarioSpec.preset("confusing", charge_allowlist=frozenset(allow), case_cap=10)
        out = filter_scenario(corpus, spec, seed=3)
        assert len(out) == 10
        assert set(out.vocab(Task.CHARGE).entries) == {"X"}
        assert all(c.labels.charge == 0 for c in out)

    def test_cap_is_seeded_and_order_preserving(self):
        corpus = corpus_with_counts({"X": 40})
        spec = ScenarioSpec.preset("confusing", charge_allowlist=frozenset({0}), case_cap=11)
        first = filter_scenario(corpus, spec, seed=9)
        second = filter_scenario(corpus, spec, seed=9)
        third = filter_scenario(corpus, spec, seed=10)
        assert first.ids() == second.ids()
        assert first.ids() != third.ids()
        positions = [int(i.split("-")[1]) for i in first.ids()]
        assert positions == sorted(positions)

    def test_article_floor(self):
        records = [record(i, charge="X", article=f"rare-{i}") for i in range(5)]
        records += [record(100 + i, charge="X", article="common") for i in range(5)]
        corpus = Corpus.from_records(records)
        spec = ScenarioSpec.preset("high_frequency", min_charge_count=1, min_article_count=5)
        out = filter_scenario(corpus, spec)
        assert len(out) == 5
        assert out.vocab(Task.ARTICLE).entries == ("common",)

    def test_empty_result_is_an_error(self):
        corpus = corpus_with_counts({"X": 5})
        with pytest.raises(DataError, match="empty"):
            filter_scenario(corpus, ScenarioSpec.preset("high_frequency", min_charge_count=100))

    def test_idempotent_on_high_frequency(self):
        corpus = corpus_with_counts({"X": 150, "Y": 60})
        spec = ScenarioSpec.preset("high_frequency", min_charge_count=100, min_article_count=None)
        once = filter_scenario(corpus, spec)
        twice = filter_scenario(once, spec)
        assert once.ids() == twice.ids()


class TestSplit:
    def test_80_10_10(self):
        corpus = corpus_with_counts({"X": 100})
        train, val, test = split(corpus, SplitSpec(0.8, seed=1))
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_odd_remainder_goes_to_validation(self):
        corpus = corpus_with_counts({"X": 101})
        train, val, test = split(corpus, SplitSpec(0.8, seed=1))
        assert (len(train), len(val), len(test)) == (80, 11, 10)

    def test_same_seed_same_partition(self):
        corpus = corpus_with_counts({"X": 37})
        a = split(corpus, SplitSpec(0.8, seed=42))
        b = split(corpus, SplitSpec(0.8, seed=42))
        assert [part.ids() for part in a] == [part.ids() for part in b]

    def test_different_seed_different_partition(self):
        corpus = corpus_with_counts({"X": 37})
        a = split(corpus, SplitSpec(0.8, seed=42))
        b = split(corpus, SplitSpec(0.8, seed=43))
        assert a[0].ids() != b[0].ids()

    def test_too_small(self):
        corpus = corpus_with_counts({"X": 2})
        with pytest.raises(DataError):
            split(corpus, SplitSpec(0.8, seed=1))

    def test_vocabs_shared_with_parent(self):
        corpus = corpus_with_counts({"X": 5, "Y": 5})
        train, val, test = split(corpus, SplitSpec(0.6, seed=0))
        for part in (train, val, test):
            assert part.vocab(Task.CHARGE).entries == corpus.vocab(Task.CHARGE).entries

    @given(n=st.integers(3, 200), seed=st.integers(0, 2**32), numer=st.integers(1, 9))
    def test_split_is_a_partition(self, n, seed, numer):
        corpus = corpus_with_counts({"X": n})
        fraction = numer / 10
        train, val, test = split(corpus, SplitSpec(fraction, seed=seed))
        ids = train.ids() + val.ids() + test.ids()
        assert len(ids) == n
        assert set(ids) == set(corpus.ids())
        assert len(val) - len(test) in (0, 1)


class TestScenarioSpecValidation:
    def test_min_above_max_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.preset("low_frequency", min_charge_count=101, max_charge_count=100)

    def test_non_positive_cap_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.preset("confusing", charge_allowlist=frozenset({0}), case_cap=0)

    @pytest.mark.parametrize("kind", list(ScenarioKind))
    def test_preset_fills_the_kinds_counts(self, kind):
        assert ScenarioSpec.preset(kind) == ScenarioSpec(kind, **SCENARIO_DEFAULTS[kind])
        assert ScenarioSpec.preset(kind.value, case_cap=3) == ScenarioSpec(
            kind, **SCENARIO_DEFAULTS[kind], case_cap=3
        )

    def test_preset_of_an_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.preset("rare")

    def test_split_fraction_bounds(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0, seed=0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0, seed=0)


def test_task_enum_covers_all():
    assert tuple(t.value for t in TASKS) == ("imprisonment", "charge", "article")
