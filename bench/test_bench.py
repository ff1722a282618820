"""Tests of the benchmark's own code.

Run from the repository root: ``python -m pytest bench``.
"""

import itertools
import json
import math
from pathlib import Path

import pytest

import inputs
import run
import spans
import workloads
from lexjudge import Task
from lexjudge.clues import levenshtein, match_element, trace_sections, SectionMap, Lexicon
from lexjudge.corpus import LabelVocab
from lexjudge.metrics import report
from measure import (
    fit_problems,
    latency_summary,
    macro_f1,
    median,
    percentile,
    provenance_problems,
    row_problems,
    scaled_seconds,
    tail_percentile,
)

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
START, END = inputs.TEMPLATE["start"], inputs.TEMPLATE["end"]


def _area(record):
    fact = record["fact"]
    return fact[fact.index(START) + len(START) : fact.index(END)].strip()


def _rows(proba=(0.25, 0.75)):
    return [{"id": "c", "task": task, "pred": "x", "proba": list(proba)} for task in workloads.TASKS]


# -- generator ----------------------------------------------------------------


def test_generator_is_deterministic_for_a_seed():
    assert inputs.exact_records(7, 40, "fit") == inputs.exact_records(7, 40, "fit")
    assert inputs.exact_records(7, 40, "fit") != inputs.exact_records(8, 40, "fit")
    assert inputs.fuzzy_records(7, 2) == inputs.fuzzy_records(7, 2)
    assert inputs.fuzzy_records(7, 2) != inputs.fuzzy_records(8, 2)


def test_generated_files_are_byte_identical(tmp_path):
    for workload in run.WORKLOADS:
        first, second = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        first.mkdir()
        second.mkdir()
        workloads.write_inputs(workload, 3, first)
        workloads.write_inputs(workload, 3, second)
        for path in first.iterdir():
            assert path.read_bytes() == (second / path.name).read_bytes()


def test_exact_records_carry_every_clue_verbatim():
    lexicon = inputs.lexicon_doc()
    for record in inputs.exact_records(5, 30, "req"):
        area = _area(record)
        for name in inputs.CLUE_FIELDS:
            assert any(term in area for term in lexicon[name])


def test_fuzzy_hits_are_one_transposition_from_a_distinctive_term():
    records, expected = inputs.fuzzy_records(11, 2)
    assert expected == ["fuzzy", "fallback_area"] * 6
    for record, kind in zip(records, expected):
        area = _area(record)
        charge = record["labels"]["charge"]
        if kind == "fuzzy":
            for name in inputs.CLUE_FIELDS:
                terms = inputs.distinctive_terms(charge, name)
                assert not any(term in area for term in terms)
                assert min(
                    levenshtein(area[i : i + len(term)], term)
                    for term in terms
                    for i in range(len(area) - len(term) + 1)
                ) == 2


def test_fuzzy_request_sets_search_the_same_lengths_whatever_the_seed():
    # 6 pairs per charge use each of a field's 1, 2 or 3 terms equally often.
    def raw_area(record):  # unstripped: a transposition may move a space to an end
        fact = record["fact"]
        return fact[fact.index(START) + len(START) : fact.index(END)]

    lengths = {
        seed: sorted(len(raw_area(r)) for r in inputs.fuzzy_records(seed, 6)[0])
        for seed in (1, 2, 3)
    }
    assert lengths[1] == lengths[2] == lengths[3]


def test_predict_exact_requests_come_in_batches(tmp_path):
    paths, expected = workloads.write_inputs("predict-exact", 2, tmp_path)
    batches = workloads.EXACT_REQUESTS // workloads.EXACT_BATCH
    assert len(paths.requests) == len(expected) == batches
    for path, kinds in zip(paths.requests, expected):
        assert len(path.read_text().splitlines()) == len(kinds) == workloads.EXACT_BATCH
        assert set(kinds) == {"exact"}


def test_fallback_twin_searches_an_area_as_long_as_its_hit():
    records, _ = inputs.fuzzy_records(4, 3)
    for hit, fallback in zip(records[::2], records[1::2]):
        assert len(_area(hit)) == len(_area(fallback))
        assert hit["labels"] == fallback["labels"]


def test_every_possible_fallback_area_falls_back():
    lexicon = Lexicon.from_dict(inputs.lexicon_doc())
    for charge in inputs.CHARGES:
        choices = [inputs.distinctive_terms(charge, name) for name in inputs.CLUE_FIELDS]
        for terms in itertools.product(*choices):
            area = inputs.clue_area(inputs.filler(term) for term in terms)
            for name in inputs.CLUE_FIELDS:
                assert match_element(area, lexicon.terms_for(name), workloads.THRESHOLD) is None


# -- statistics ----------------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "n, q",
    [(1, 50.0), (10, 50.0), (20, 50.0), (40, 75.0), (100, 90.0), (1000, 99.0), (5000, 99.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    assert tail_percentile(n) == pytest.approx(q)
    samples = list(range(n))
    beyond = sum(1 for s in samples if s > percentile(samples, tail_percentile(n)))
    if q > 50.0:
        assert beyond >= 10


def test_latency_summary_states_percentile_and_sample_count():
    samples = [(f"c{i}", 1.0) for i in range(990)] + [(f"s{i}", 5.0) for i in range(10)]
    summary = latency_summary(samples)
    assert (summary["samples"], summary["cases"], summary["tail_q"]) == (1000, 1000, 99.0)
    assert summary["p50_ms"] == 1.0 and summary["tail_ms"] == 1.0
    assert summary["cases_per_s"] == pytest.approx(1000 * 1000 / 1040.0)
    short = latency_summary([("a", 3.0), ("b", 1.0), ("c", 2.0)])
    assert (short["tail_q"], short["p50_ms"], short["tail_ms"]) == (50.0, 2.0, 2.0)
    assert median([3.0, 1.0, 2.0, 10.0]) == 2.5


def test_latency_tail_is_taken_over_case_medians():
    # 1,000 cases, three passes. 11 cases are slow on every pass; a burst
    # slows 45 other cases on one pass. Only the former reach the tail.
    samples = []
    for p in range(3):
        for i in range(1000):
            ms = 4.0 if i < 11 else 9.0 if p == 1 and 500 <= i < 545 else 1.0
            samples.append((f"c{i}", ms))
    summary = latency_summary(samples)
    assert (summary["cases"], summary["samples"], summary["tail_q"]) == (1000, 3000, 99.0)
    assert summary["tail_ms"] == 4.0
    assert percentile([ms for _, ms in samples], 99.0) == 9.0  # pooled, the burst shows


def test_scaled_seconds_removes_probes_and_scales_each_stretch():
    # Probes whose work takes 1 s then 2 s: the host runs at full, then half
    # speed. Each probe's span is a little longer than its work.
    starts, ends, work = [0.0, 5.0, 10.0], [1.5, 6.5, 12.5], [1.0, 1.0, 2.0]

    def scaled(start, end, reference_s=1.0):
        return scaled_seconds(starts, ends, work, start, end, reference_s)

    # No probe inside: the latest probe before sets the speed.
    assert scaled(2.0, 4.0) == pytest.approx(2.0)
    assert scaled(13.0, 17.0) == pytest.approx(2.0)
    # Before any probe: the first one's speed.
    assert scaled_seconds([3.0], [5.0], [2.0], 1.0, 2.0, 1.0) == pytest.approx(0.5)
    # 4 s before the first probe inside, 3.5 s to the slow one, 0.5 s after it.
    assert scaled(1.0, 13.0) == pytest.approx(4.0 + 1.75 + 0.25)
    assert scaled(1.0, 13.0, 2.0) == pytest.approx(12.0)
    with pytest.raises(ValueError):
        scaled_seconds([], [], [], 0.0, 1.0, 1.0)


def test_macro_f1_matches_the_program_report():
    golds = ["a", "b", "c", "a", "b", "c", "a", "a"]
    preds = ["a", "c", "c", "b", "b", "c", "a", "c"]
    vocab = LabelVocab(Task.CHARGE, ["a", "b", "c"])
    ids = lambda xs: [vocab.label_id(x) for x in xs]
    assert macro_f1(golds, preds) == pytest.approx(report(ids(golds), ids(preds), 3).f1)


# -- correctness gates ---------------------------------------------------------


def test_row_gate_accepts_sound_rows_and_rejects_corrupted_ones():
    assert row_problems(_rows(), workloads.TASKS, "c") == []
    assert row_problems(_rows((0.5, math.nan)), workloads.TASKS, "c")
    assert row_problems(_rows((0.5, math.inf)), workloads.TASKS, "c")
    assert row_problems(_rows((0.5, 0.6)), workloads.TASKS, "c")
    assert row_problems(_rows()[:2], workloads.TASKS, "c")


def test_provenance_gate_rejects_the_wrong_kind():
    exact = {"motivation": "exact", "action": "exact", "harm": "exact"}
    assert provenance_problems(exact, "exact", "c") == []
    assert provenance_problems({**exact, "harm": "fuzzy"}, "exact", "c")
    assert provenance_problems(exact, "fallback_area", "c")
    assert provenance_problems({}, "exact", "c")


def test_fit_gate_rejects_each_corruption():
    rows = [_rows()]
    assert fit_problems([1.0, 0.5], 0.9, 0.85, 0.9, rows, rows) == []
    assert fit_problems([1.0, math.nan], 0.9, 0.85, 0.9, rows, rows)
    assert fit_problems([1.0], 0.8, 0.85, 0.8, rows, rows)
    assert fit_problems([1.0], 0.9, 0.85, 0.91, rows, rows)
    assert fit_problems([1.0], 0.9, 0.85, 0.9, rows, [_rows((0.3, 0.7))])


# -- tracing and the entry point ------------------------------------------------


def test_tracer_wraps_then_restores_and_tags_match_outcomes():
    import lexjudge.clues as clues

    original = clues.match_element
    lexicon = Lexicon.from_dict(inputs.lexicon_doc())
    tracer = spans.Tracer(enabled=True)
    with tracer.install():
        assert clues.match_element is not original
        trace_sections(SectionMap(process="motivated by greed for money, nothing else"), lexicon)
    assert clues.match_element is original
    tags = sorted(s[6] for s in tracer.spans if s[1] == "clues.match")
    assert tags == ["exact", "miss", "miss"]
    assert tracer.counts["windows"] > 0


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.LAYER_METRICS)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_run_refuses_a_directory_without_the_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "predict-exact", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
