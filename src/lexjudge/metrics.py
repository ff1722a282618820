"""Evaluation metrics: accuracy, macro-precision/recall/F1, and the
ablation comparison table.

Macro averages run over classes with gold support > 0; zero-denominator
precision/recall are defined as 0, as is F1 when both components vanish.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .corpus import Task, TASKS


@dataclass(frozen=True)
class ClassMetrics:
    label_id: int
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    acc: float
    mp: float
    mr: float
    f1: float
    per_class: tuple[ClassMetrics, ...]
    task: Task | None = None

    def as_dict(self) -> dict:
        out = asdict(self)
        task = out.pop("task")
        if task is not None:
            out["task"] = task.value
        return out


def confusion(golds: Sequence[int], preds: Sequence[int], num_classes: int) -> np.ndarray:
    """Count matrix indexed [gold][pred]."""
    if len(golds) != len(preds):
        raise ValueError(f"golds and preds differ in length: {len(golds)} vs {len(preds)}")
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    for g, p in zip(golds, preds):
        if not 0 <= g < num_classes:
            raise ValueError(f"gold label {g} out of range")
        if not 0 <= p < num_classes:
            raise ValueError(f"predicted label {p} out of range")
        matrix[g, p] += 1
    return matrix


def report(
    golds: Sequence[int],
    preds: Sequence[int],
    num_classes: int,
    task: Task | None = None,
) -> MetricsReport:
    """Accuracy plus per-class and macro precision/recall/F1."""
    if len(golds) == 0:
        raise ValueError("cannot compute metrics on empty input")
    matrix = confusion(golds, preds, num_classes)
    total = matrix.sum()
    acc = float(np.trace(matrix) / total)
    per_class = []
    macro_p = []
    macro_r = []
    macro_f = []
    for k in range(num_classes):
        tp = float(matrix[k, k])
        fp = float(matrix[:, k].sum() - tp)
        fn = float(matrix[k, :].sum() - tp)
        support = int(matrix[k, :].sum())
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        per_class.append(ClassMetrics(k, precision, recall, f1, support))
        if support > 0:
            macro_p.append(precision)
            macro_r.append(recall)
            macro_f.append(f1)
    return MetricsReport(
        acc=acc,
        mp=float(np.mean(macro_p)),
        mr=float(np.mean(macro_r)),
        f1=float(np.mean(macro_f)),
        per_class=tuple(per_class),
        task=task,
    )


def ablation_table(
    reports: Mapping[str, Mapping[Task, MetricsReport]], baseline: str = "full"
) -> str:
    """TSV comparing toggle combinations, with per-task delta-F1 columns
    against the full model."""
    if len(reports) < 2:
        raise ValueError("ablation table needs at least 2 combinations")
    if baseline not in reports:
        raise ValueError(f"baseline combination {baseline!r} missing from reports")
    task_order = [t for t in TASKS if t in next(iter(reports.values()))]
    task_set = set(task_order)
    for combo, per_task in reports.items():
        if set(per_task) != task_set:
            raise ValueError(f"combination {combo!r} reports a different task set")
    header = ["combination"]
    for task in task_order:
        header += [f"{task.value}_{m}" for m in ("acc", "mp", "mr", "f1")]
    header += [f"{task.value}_delta_f1" for task in task_order]
    lines = ["\t".join(header)]
    base = reports[baseline]
    for combo, per_task in reports.items():
        row = [combo]
        for task in task_order:
            r = per_task[task]
            row += [format(v, ".6f") for v in (r.acc, r.mp, r.mr, r.f1)]
        for task in task_order:
            row.append(format(per_task[task].f1 - base[task].f1, ".6f"))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
