import numpy as np
import pytest
from hypothesis import given, strategies as st

from lexjudge import MetricsReport, Task, ablation_table, confusion, report


class TestConfusion:
    def test_perfect_diagonal(self):
        matrix = confusion([0, 1], [0, 1], 2)
        assert np.array_equal(matrix, np.eye(2, dtype=np.int64))

    def test_single_off_diagonal(self):
        matrix = confusion([0], [1], 2)
        assert matrix[0, 1] == 1 and matrix.sum() == 1

    def test_empty_is_zero_matrix_and_report_errors(self):
        assert not confusion([], [], 3).any()
        with pytest.raises(ValueError):
            report([], [], 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            confusion([0, 5], [0, 1], 2)


class TestReport:
    def test_hand_computed_example(self):
        # golds [A,A,B,B], preds [A,B,B,B]
        r = report([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert r.acc == pytest.approx(0.75)
        assert r.mp == pytest.approx((1.0 + 2 / 3) / 2)
        assert r.mp == pytest.approx(0.83333, abs=5e-6)
        assert r.mr == pytest.approx(0.75)
        assert r.f1 == pytest.approx((2 / 3 + 0.8) / 2)
        assert r.f1 == pytest.approx(0.73333, abs=5e-6)

    def test_perfect_predictions(self):
        r = report([0, 1, 2], [0, 1, 2], 3)
        assert (r.acc, r.mp, r.mr, r.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_all_one_class_predictions_balanced_golds(self):
        r = report([0, 0, 1, 1], [0, 0, 0, 0], 2)
        assert r.acc == pytest.approx(0.5)
        assert r.mr == pytest.approx(0.5)

    def test_zero_denominator_conventions(self):
        # class 1 never gold, never predicted; class 2 gold but never predicted
        r = report([0, 0, 2], [0, 0, 0], 3)
        by_id = {c.label_id: c for c in r.per_class}
        assert by_id[1].precision == 0.0 and by_id[1].recall == 0.0 and by_id[1].f1 == 0.0
        assert by_id[2].recall == 0.0 and by_id[2].f1 == 0.0
        # macro runs over gold-supported classes only (0 and 2)
        assert r.mr == pytest.approx((1.0 + 0.0) / 2)

    def test_per_class_support(self):
        r = report([0, 0, 1], [0, 1, 1], 2, task=Task.CHARGE)
        assert [c.support for c in r.per_class] == [2, 1]
        assert r.task is Task.CHARGE

    def test_as_dict_is_the_json_document(self):
        """The report's fields in order, each class as an object, and the
        task as its name last; a report without a task has no task entry."""
        r = report([0, 0, 1], [0, 1, 1], 2, task=Task.CHARGE)
        classes = [
            {"label_id": 0, "precision": 1.0, "recall": 0.5, "f1": 2 / 3, "support": 2},
            {"label_id": 1, "precision": 0.5, "recall": 1.0, "f1": 2 / 3, "support": 1},
        ]
        doc = r.as_dict()
        assert list(doc) == ["acc", "mp", "mr", "f1", "per_class", "task"]
        assert doc["task"] == "charge" and list(doc["per_class"]) == classes
        assert (doc["acc"], doc["mp"], doc["mr"], doc["f1"]) == (r.acc, r.mp, r.mr, r.f1)
        assert list(report([0, 1], [0, 1], 2).as_dict()) == ["acc", "mp", "mr", "f1", "per_class"]

    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60)
    )
    def test_metrics_in_unit_interval_and_acc_identity(self, pairs):
        golds = [g for g, _ in pairs]
        preds = [p for _, p in pairs]
        r = report(golds, preds, 4)
        for value in (r.acc, r.mp, r.mr, r.f1):
            assert 0.0 <= value <= 1.0
        # accuracy equals the support-weighted mean of per-class recall
        weighted = sum(c.recall * c.support for c in r.per_class) / len(golds)
        assert r.acc == pytest.approx(weighted, abs=1e-12)

    @given(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=40)
    )
    def test_invariant_under_label_permutation(self, pairs):
        golds = [g for g, _ in pairs]
        preds = [p for _, p in pairs]
        perm = [2, 0, 1]
        direct = report(golds, preds, 3)
        permuted = report([perm[g] for g in golds], [perm[p] for p in preds], 3)
        assert direct.acc == pytest.approx(permuted.acc)
        assert direct.mp == pytest.approx(permuted.mp)
        assert direct.mr == pytest.approx(permuted.mr)
        assert direct.f1 == pytest.approx(permuted.f1)

    def test_f1_between_min_and_max_of_p_r(self):
        r = report([0, 0, 1, 1, 1], [0, 1, 1, 1, 0], 2)
        for c in r.per_class:
            if c.precision > 0 and c.recall > 0:
                assert min(c.precision, c.recall) <= c.f1 <= max(c.precision, c.recall)


def fake_report(f1: float, task=Task.CHARGE) -> MetricsReport:
    return MetricsReport(acc=f1, mp=f1, mr=f1, f1=f1, per_class=(), task=task)


class TestAblationTable:
    def test_two_combinations_one_task(self):
        table = ablation_table(
            {
                "full": {Task.CHARGE: fake_report(0.9)},
                "no_graph": {Task.CHARGE: fake_report(0.7)},
            }
        )
        lines = table.strip().split("\n")
        assert len(lines) == 3
        header = lines[0].split("\t")
        assert header == ["combination", "charge_acc", "charge_mp", "charge_mr",
                          "charge_f1", "charge_delta_f1"]
        row = dict(zip(header, lines[2].split("\t")))
        assert row["combination"] == "no_graph"
        assert float(row["charge_delta_f1"]) == pytest.approx(-0.2)

    def test_full_grid_eight_rows(self):
        reports = {
            name: {Task.CHARGE: fake_report(0.5), Task.ARTICLE: fake_report(0.25, Task.ARTICLE)}
            for name in (
                "full", "no_clue", "no_contrastive", "no_graph",
                "clue_only", "contrastive_only", "graph_only", "none",
            )
        }
        table = ablation_table(reports)
        assert len(table.strip().split("\n")) == 9

    def test_missing_task_names_combination(self):
        with pytest.raises(ValueError, match="no_graph"):
            ablation_table(
                {
                    "full": {Task.CHARGE: fake_report(0.9), Task.ARTICLE: fake_report(0.8, Task.ARTICLE)},
                    "no_graph": {Task.CHARGE: fake_report(0.7)},
                }
            )

    def test_requires_two_combinations(self):
        with pytest.raises(ValueError):
            ablation_table({"full": {Task.CHARGE: fake_report(0.9)}})

    def test_requires_baseline(self):
        with pytest.raises(ValueError, match="full"):
            ablation_table(
                {
                    "no_clue": {Task.CHARGE: fake_report(0.9)},
                    "no_graph": {Task.CHARGE: fake_report(0.7)},
                }
            )
