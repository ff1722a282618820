"""The three benchmark workloads, driven through lexjudge's public functions.

Every workload fits the criterion-6 recipe once or more (the ``train`` path:
corpus load, trace, split, contrastive, graph training, evaluate on test,
``save_checkpoint``) and then runs the ``predict`` path (``load_checkpoint``
and ``predict_records``, one case at a time) in a closed loop with one
caller. The workloads differ in what dominates:

* fit-confusable fits twice, then spends the run's seconds predicting
  2,000 unseen exact cases;
* predict-exact and predict-fuzzy fit once to prepare their checkpoint and
  spend the run's seconds predicting their request sets.

Requests come in files (1,000 exact cases, or one fuzzy pair), each set up
on its own.

The predict workloads report their preparation fit as ``fit_s`` so that
every workload reports every end-to-end metric.

Every reported time is scaled to a fixed host speed by a ``SpeedProbe``
(see ``probe.py``): fits by the whole probe, set-ups and predictions by its
interpreter part. The run's details keep the unscaled fit seconds as well.

Imported only after ``run.py`` has pinned the BLAS thread count.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from lexjudge import (
    ContrastiveConfig,
    Corpus,
    DivergenceError,
    DropoutSpec,
    HashedEncoderParams,
    SplitSpec,
    Task,
    TrainConfig,
)
from lexjudge.checkpoint import load_checkpoint, save_checkpoint
from lexjudge.clues import load_lexicon
from lexjudge.corpus import load_corpus, split
from lexjudge.rng import derive
from lexjudge.trainer import evaluate_model, predict_records, run_pipeline

import inputs
from measure import (
    fit_problems,
    latency_summary,
    macro_f1,
    median,
    provenance_problems,
    row_problems,
)
from probe import INTERPRETER, INTERVAL_S, WHOLE, SpeedProbe
from spans import Tracer

# The criterion-6 recipe: dim 64, 2048 buckets, 10 contrastive epochs,
# 250 graph epochs, one fixed model seed. The workload seed only moves the
# generated inputs.
MODEL_SEED = 4242
THRESHOLD = 0.8
DIM = 64
BUCKETS = 2048
CONTRASTIVE_EPOCHS = 10
GRAPH_EPOCHS = 250
HEADS = 4
# Train on 20% of a 600-case corpus: 120 training cases keep one fit short
# enough to repeat within a run, and the 240-case test split keeps macro F1
# from moving much from seed to seed.
TRAIN_FRACTION = 0.2

FIT_CASES = 600
# Unseen exact cases predicted by fit-confusable and predict-exact. They
# come in files of EXACT_BATCH cases, one set-up each, so that the loop
# holds one file's cases at a time.
FIT_REQUESTS = 2_000
# 2,000 rather than about 10k cases, so that each is timed in some ten
# passes: the tail is taken over the cases' median latencies.
EXACT_REQUESTS = 2_000
EXACT_BATCH = 1_000
# predict-fuzzy's cases come in files of one fuzzy hit and its fallback
# twin, so that a run ends within about a second of its deadline with the
# two kinds of case in equal numbers.
FUZZY_PAIRS_PER_CHARGE = 2
WARMUP = {"fit-confusable": 30, "predict-exact": 200, "predict-fuzzy": 0}
F1_FLOOR = 0.7

FITS = {"fit-confusable": 2, "predict-exact": 1, "predict-fuzzy": 1}
MIN_SETUPS = 5
TASKS = tuple(task.value for task in Task)
MAX_REPORTED_PROBLEMS = 20

END_TO_END = (
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("macro_f1", "ratio"),
    ("predict_p50_ms", "ms"),
    ("predict_p99_ms", "ms"),
    ("predict_cases_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Paths:
    lexicon: Path
    fit: Path
    requests: list[Path]
    checkpoint: Path


@dataclass
class FitRecord:
    seconds: float
    unscaled_seconds: float
    digest: str
    macro_f1: float
    checkpoint_bytes: int


@dataclass
class Outcome:
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)


class Aborted(Exception):
    """An operation failed in a way the workload cannot continue past."""


def write_inputs(
    workload: str, seed: int, workdir: Path
) -> tuple[Paths, list[list[str]] | None]:
    """Generate the workload's files; returns their paths and, for each
    request file, the provenance each case's fields must get."""
    paths = Paths(
        lexicon=workdir / "lexicon.json",
        fit=workdir / "fit.jsonl",
        requests=[],
        checkpoint=workdir / "checkpoint.json",
    )
    inputs.write_json(paths.lexicon, inputs.lexicon_doc())
    inputs.write_jsonl(paths.fit, inputs.exact_records(seed, FIT_CASES, "fit"))
    if workload == "predict-fuzzy":
        records, kinds = inputs.fuzzy_records(seed, FUZZY_PAIRS_PER_CHARGE)
        size = 2
    else:
        count = FIT_REQUESTS if workload == "fit-confusable" else EXACT_REQUESTS
        records = inputs.exact_records(seed, count, "req")
        kinds = ["exact"] * count
        size = EXACT_BATCH
    batches = [records[i : i + size] for i in range(0, len(records), size)]
    expected = [kinds[i : i + size] for i in range(0, len(kinds), size)]
    for i, batch in enumerate(batches):
        paths.requests.append(workdir / f"requests-{i}.jsonl")
        inputs.write_jsonl(paths.requests[-1], batch)
    return paths, expected


def _split_spec() -> SplitSpec:
    return SplitSpec(TRAIN_FRACTION, seed=derive(MODEL_SEED, "split"))


def _golds(corpus: Corpus, case) -> dict[str, str]:
    return {task.value: corpus.vocab(task).surface(case.labels.get(task)) for task in Task}


def _requests(corpus: Corpus, expected: list[str]) -> list[tuple]:
    """(one-case corpus, gold surfaces, expected provenance) per case."""
    return [
        (Corpus([case], corpus.vocabs), _golds(corpus, case), kind)
        for case, kind in zip(corpus, expected)
    ]


def _surface_f1(rows_per_case: list[list[dict]], golds: list[dict[str, str]]) -> float:
    """Mean over the tasks of the macro F1 of predicted surfaces."""
    scores = []
    for task in TASKS:
        preds = [next(r["pred"] for r in rows if r["task"] == task) for rows in rows_per_case]
        scores.append(macro_f1([g[task] for g in golds], preds))
    return sum(scores) / len(scores)


class WorkloadRun:
    """One run of one workload: counts attempts, failures and gate problems."""

    def __init__(self, workload: str, paths: Paths, expected: list[list[str]] | None):
        self.workload = workload
        self.paths = paths
        self.expected = expected
        self.tracer = Tracer(enabled=False)
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failed = 0
        self.divergences = 0
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_REPORTED_PROBLEMS:
            self.problems.append(text)

    def _clue_problems(self, expected: str, where: str) -> list[str]:
        clue_sets = self.tracer.clue_sets
        if not clue_sets:
            return [f"{where}: no clue provenance was recorded"]
        out = []
        for clues in clue_sets:
            observed = {name: kind.value for name, kind in clues.provenance.items()}
            out += provenance_problems(observed, expected, where)
        return out

    # -- the train path ----------------------------------------------------

    def fit(self) -> FitRecord:
        """One fit of the recipe on the fit corpus, then its gates."""
        tracer = self.tracer
        self.attempted += 1
        tracer.clue_sets.clear()
        started = time.perf_counter()
        try:
            with tracer.span("fit"):
                with tracer.span("corpus.load"):
                    corpus = load_corpus(self.paths.fit)
                lexicon, anchors = load_lexicon(self.paths.lexicon)
                result = run_pipeline(
                    corpus,
                    lexicon=lexicon,
                    anchors=anchors,
                    threshold=THRESHOLD,
                    split_spec=_split_spec(),
                    encoder_params=HashedEncoderParams.initialize(
                        output_dim=DIM, bucket_count=BUCKETS, seed=derive(MODEL_SEED, "encoder")
                    ),
                    contrastive_cfg=ContrastiveConfig(
                        epochs=CONTRASTIVE_EPOCHS,
                        negatives_per_anchor=7,
                        dropout=DropoutSpec(rate=0.1, seed=derive(MODEL_SEED, "dropout")),
                        seed=derive(MODEL_SEED, "contrastive"),
                    ),
                    train_cfg=TrainConfig(epochs=GRAPH_EPOCHS, seed=MODEL_SEED, heads=HEADS),
                )
                with tracer.span("metrics.evaluate"):
                    reports = evaluate_model(result.model, result.test)
                with tracer.span("checkpoint.save"):
                    save_checkpoint(self.paths.checkpoint, result.model, result.optimizer_state)
        except DivergenceError as exc:
            self.divergences += 1
            self.failed += 1
            raise Aborted(f"fit diverged: {exc}") from exc
        except Exception as exc:
            self.failed += 1
            raise Aborted(f"fit failed: {exc!r}") from exc
        ended = time.perf_counter()

        problems = self._clue_problems("exact", "fit corpus")
        with tracer.paused():
            test = result.test
            rows_in_memory = [
                predict_records(result.model, Corpus([c], test.vocabs)) for c in test
            ]
            f1 = _surface_f1(rows_in_memory, [_golds(test, c) for c in test])
            model, _ = load_checkpoint(self.paths.checkpoint)
            fresh = split(load_corpus(self.paths.fit), _split_spec())[2]
            rows_reloaded = [predict_records(model, Corpus([c], fresh.vocabs)) for c in fresh]
        problems += fit_problems(
            [value for _, _, value in result.loss_log],
            f1,
            F1_FLOOR,
            sum(r.f1 for r in reports.values()) / len(reports),
            rows_in_memory,
            rows_reloaded,
        )
        for rows, case in zip(rows_reloaded, fresh):
            problems += row_problems(rows, TASKS, case.id)
        for text in problems:
            self.problem(text)
        data = self.paths.checkpoint.read_bytes()
        return FitRecord(
            self.probe.scaled(started, ended, WHOLE),
            ended - started,
            hashlib.sha256(data).hexdigest(),
            f1,
            len(data),
        )

    # -- the predict path --------------------------------------------------

    def setup(self, batch: int) -> tuple[float, object, list[tuple]]:
        """One timed set-up: load request file ``batch``, the lexicon and the
        checkpoint the fit wrote, as the CLI ``predict`` path does. Returns
        the scaled seconds, the model and the freshly loaded request cases.

        Each batch of requests comes from its own set-up: prediction writes
        traced clues into the cases it is given, so reused cases would skip
        segmentation.
        """
        tracer = self.tracer
        started = time.perf_counter()
        with tracer.span("corpus.load"):
            corpus = load_corpus(self.paths.requests[batch])
        load_lexicon(self.paths.lexicon)
        with tracer.span("checkpoint.load"):
            model, _ = load_checkpoint(self.paths.checkpoint)
        seconds = self.probe.scaled(started, time.perf_counter(), INTERPRETER)
        return seconds, model, _requests(corpus, self.expected[batch])

    def predict_loop(self, seconds: float, warmup: int) -> dict:
        """Closed loop, one caller: predict one case at a time, request file
        after request file, each freshly set up, until one whole pass over
        the request set is done and ``seconds`` have passed.

        The first ``warmup`` cases are left out of the latency samples, and
        so is a case shorter than the probe interval that a probe interrupted
        or directly preceded: the probe's time is taken out of it, but not
        the caches the probe cleared, and with a probe about every 100 cases
        such cases would sit right at the 99th percentile. Which short cases
        a probe hits does not depend on the case, so this leaves the rest a
        fair sample.
        """
        tracer = self.tracer
        setups: list[float] = []
        samples: list[tuple[str, float]] = []
        first_rows: list[list[dict]] = []
        first_golds: list[dict[str, str]] = []
        done = 0
        disturbed = 0
        probes_seen = self.probe.count
        batches = 0
        deadline = time.perf_counter() + seconds
        while batches < len(self.paths.requests) or time.perf_counter() < deadline:
            index = batches % len(self.paths.requests)
            model = cases = None  # the last batch's, let go before the next set-up
            took, model, cases = self.setup(index)
            setups.append(took)
            for one, golds, expected in cases:
                case_id = one[0].id
                tracer.clue_sets.clear()
                self.attempted += 1
                try:
                    with tracer.span("predict.case"):
                        started = time.perf_counter()
                        rows = predict_records(model, one)
                        ended = time.perf_counter()
                except Exception as exc:
                    self.failed += 1
                    self.problem(f"{case_id}: prediction raised {exc!r}")
                    continue
                problems = row_problems(rows, TASKS, case_id)
                if problems:
                    self.failed += 1
                problems += self._clue_problems(expected, case_id)
                if len(tracer.clue_sets) > 1:
                    problems.append(f"{case_id}: traced {len(tracer.clue_sets)} clue sets")
                for text in problems:
                    self.problem(text)
                done += 1
                probed, probes_seen = self.probe.count != probes_seen, self.probe.count
                if probed and ended - started < INTERVAL_S:
                    disturbed += 1
                elif done > warmup:
                    samples.append((case_id, self.probe.scaled(started, ended, INTERPRETER) * 1e3))
                if batches < len(self.paths.requests):
                    first_rows.append([{"task": r["task"], "pred": r["pred"]} for r in rows])
                    first_golds.append(golds)
            batches += 1
        if not samples or not first_rows:
            raise Aborted("no prediction succeeded after the warm-up")
        summary = latency_summary(samples)
        summary.update(
            macro_f1=_surface_f1(first_rows, first_golds),
            setups=setups,
            batches=batches,
            warmup=warmup,
            disturbed=disturbed,
        )
        return summary


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(run: WorkloadRun, seconds: float) -> Outcome:
    """The untraced run: every end-to-end metric."""
    workload = run.workload
    fits: list[FitRecord] = []
    with run.tracer.install(), run.probe.running():
        while len(fits) < FITS[workload]:
            fits.append(run.fit())
        loop = run.predict_loop(seconds, WARMUP[workload])
        setups = loop["setups"]
        while len(setups) < MIN_SETUPS:
            setups.append(run.setup(0)[0])
    if len({f.digest for f in fits}) != 1:
        run.problem("repeated fits wrote different checkpoints")
    macro = fits[0].macro_f1 if workload == "fit-confusable" else loop["macro_f1"]
    metrics = {
        "setup_s": median(setups),
        "fit_s": median([f.seconds for f in fits]),
        "macro_f1": macro,
        "predict_p50_ms": loop["p50_ms"],
        "predict_p99_ms": loop["tail_ms"],
        "predict_cases_per_s": loop["cases_per_s"],
        "peak_rss_mb": _peak_rss_mb(),
    }
    details = {
        "fit_seconds": [f.seconds for f in fits],
        "fit_seconds_unscaled": [f.unscaled_seconds for f in fits],
        "setup_seconds": setups,
        "predict_samples": loop["samples"],
        "predict_batches": loop["batches"],
        "predict_warmup_excluded": loop["warmup"],
        "predict_probe_disturbed_excluded": loop["disturbed"],
        "predict_p99_is_percentile": loop["tail_q"],
        "predict_p99_over_cases": loop["cases"],
        "probes": run.probe.count,
        "probe_work_ms_quartiles": {
            kind: statistics.quantiles([seconds * 1e3 for seconds in work], n=4)
            for kind, work in run.probe.work.items()
        },
        "fail_rate": run.failed / run.attempted,
    }
    return Outcome(metrics, details)


def measure_traced(run: WorkloadRun, spans_path: Path) -> Outcome:
    """The traced run: one untraced fit for the overhead baseline, then one
    traced fit, one set-up and one pass over the request set, so that every
    count repeats exactly for a given seed. The speed probe runs here too,
    so the overhead compares scaled fit times; span times are unscaled and
    include the probes that interrupted them (3 to 6% of the run)."""
    with run.probe.running():
        with run.tracer.install():
            untraced = run.fit()
        run.tracer = Tracer(enabled=True)
        try:
            with run.tracer.install():
                traced = run.fit()
                loop = run.predict_loop(0.0, 0)
        finally:
            run.tracer.write(spans_path)
    if traced.digest != untraced.digest:
        run.problem("tracing changed the checkpoint the fit wrote")
    metrics = run.tracer.layer_metrics({
        "checkpoint.bytes": traced.checkpoint_bytes,
        "trainer.divergences": run.divergences,
        "trace.overhead_s": traced.seconds - untraced.seconds,
    })
    details = {
        "untraced_fit_s": untraced.seconds,
        "traced_fit_s": traced.seconds,
        "untraced_fit_s_unscaled": untraced.unscaled_seconds,
        "traced_fit_s_unscaled": traced.unscaled_seconds,
        "spans": len(run.tracer.spans),
        "spans_file": spans_path.name,
        "predicted_cases": loop["samples"],
        "fail_rate": run.failed / run.attempted,
    }
    return Outcome(metrics, details)
