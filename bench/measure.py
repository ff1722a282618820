"""Statistics and correctness gates for the benchmark.

Kept free of numpy and lexjudge so the helpers can be tested, and imported
by ``run.py`` before the BLAS thread count is pinned.
"""

from __future__ import annotations

import bisect
import math
from typing import Mapping, Sequence

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(n: int, wanted: float = 99.0) -> float:
    """The percentile to report as the tail of ``n`` samples.

    ``wanted`` when at least TAIL_BEYOND samples lie beyond it, otherwise
    the highest percentile that still has TAIL_BEYOND samples beyond it.
    Never below the median: with fewer than 2 * TAIL_BEYOND samples no
    percentile above the median has enough samples beyond it, and the tail
    is reported as the median.
    """
    if n < 1:
        raise ValueError("no samples")
    highest = 100.0 * (n - TAIL_BEYOND) / n
    return max(50.0, min(wanted, highest))


def latency_summary(samples: Sequence[tuple[str, float]]) -> dict:
    """Latency of (case id, milliseconds) samples: the median over all
    samples; the tail over cases, taken on each case's median over the run's
    passes (with the percentile used and the number of cases); and the
    closed-loop rate one caller achieves.

    Each case is predicted once per pass, so its median leaves out the
    passes that a burst of noise on a shared host slowed, while a case that
    is slow on every pass stays in the tail.
    """
    times = [ms for _, ms in samples]
    by_case: dict[str, list[float]] = {}
    for case, ms in samples:
        by_case.setdefault(case, []).append(ms)
    case_ms = [median(values) for values in by_case.values()]
    q = tail_percentile(len(case_ms))
    return {
        "p50_ms": percentile(times, 50.0),
        "tail_ms": percentile(case_ms, q),
        "tail_q": q,
        "cases": len(case_ms),
        "samples": len(times),
        "cases_per_s": 1000.0 * len(times) / sum(times),
    }


def scaled_seconds(
    starts: Sequence[float],
    ends: Sequence[float],
    work: Sequence[float],
    start: float,
    end: float,
    reference_s: float,
) -> float:
    """Seconds of ``[start, end]`` at the speed of a host on which a probe's
    reference work takes ``reference_s``, with the probes' own time left out.

    Probe ``i`` ran from ``starts[i]`` to ``ends[i]`` (in time order) and
    its reference work took ``work[i]`` seconds. A probe runs inside the
    measured program, so it lies wholly inside or wholly outside the
    interval. Each stretch of the interval before a probe is scaled by that
    probe's speed, the stretch after the last probe inside by the last
    probe's; an interval with no probe inside takes the speed of the latest
    probe before it (of the first one, if none ran before).
    """
    if not starts:
        raise ValueError("no probe has run")
    if end < start:
        raise ValueError("interval ends before it starts")
    lo = bisect.bisect_left(starts, start)
    hi = bisect.bisect_left(starts, end)
    if lo == hi:
        return (end - start) * reference_s / work[max(lo - 1, 0)]
    total, cursor = 0.0, start
    for i in range(lo, hi):
        total += (starts[i] - cursor) * reference_s / work[i]
        cursor = ends[i]
    return total + (end - cursor) * reference_s / work[hi - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def macro_f1(golds: Sequence[str], preds: Sequence[str]) -> float:
    """Macro F1 over the gold classes, by label surface string.

    Same definition as ``lexjudge.metrics.report`` (classes with gold
    support, zero denominators give 0), but independent of any label-id
    vocabulary.
    """
    if len(golds) != len(preds) or not golds:
        raise ValueError("golds and preds must be non-empty and aligned")
    scores = []
    for label in sorted(set(golds)):
        tp = sum(1 for g, p in zip(golds, preds) if g == label and p == label)
        fp = sum(1 for g, p in zip(golds, preds) if g != label and p == label)
        fn = sum(1 for g, p in zip(golds, preds) if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores.append(
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return sum(scores) / len(scores)


def row_problems(rows: Sequence[Mapping], tasks: Sequence[str], case_id: str) -> list[str]:
    """Problems with one case's prediction rows: one row per task, each
    probability finite and the row summing to 1."""
    problems = []
    got = [row.get("task") for row in rows]
    if sorted(got) != sorted(tasks):
        problems.append(f"{case_id}: prediction rows for tasks {got}, expected {list(tasks)}")
    for row in rows:
        proba = row.get("proba") or []
        if not proba or not all(isinstance(p, float) and math.isfinite(p) for p in proba):
            problems.append(f"{case_id}/{row.get('task')}: non-finite or empty probabilities")
        elif abs(math.fsum(proba) - 1.0) > 1e-9:
            problems.append(f"{case_id}/{row.get('task')}: probabilities sum to {math.fsum(proba)!r}")
    return problems


def provenance_problems(
    observed: Mapping[str, str], expected: str, case_id: str
) -> list[str]:
    """Problems when a case's traced fields are not all of the expected kind."""
    if not observed:
        return [f"{case_id}: no clue provenance was recorded"]
    return [
        f"{case_id}: field {name} traced as {kind}, expected {expected}"
        for name, kind in sorted(observed.items())
        if kind != expected
    ]


def fit_problems(
    losses: Sequence[float],
    macro_f1_value: float,
    floor: float,
    program_f1: float,
    rows_in_memory: Sequence[Sequence[Mapping]],
    rows_reloaded: Sequence[Sequence[Mapping]],
) -> list[str]:
    """Gates on one fit: finite losses, macro F1 at or above the floor and
    equal to the program's own evaluation, and a reloaded checkpoint that
    predicts the test split exactly as the in-memory model does."""
    problems = []
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append("training loss is missing or non-finite")
    if not macro_f1_value >= floor:
        problems.append(f"macro F1 {macro_f1_value!r} is below the floor {floor}")
    if abs(macro_f1_value - program_f1) > 1e-12:
        problems.append(
            f"macro F1 {macro_f1_value!r} differs from evaluate_model's {program_f1!r}"
        )
    if list(rows_in_memory) != list(rows_reloaded):
        problems.append("the reloaded checkpoint predicts the test split differently")
    return problems
