"""lexjudge benchmark: one workload per run, in a fresh process.

Run from the repository root:

    python3 bench/run.py --workload fit-confusable --seed 1 --seconds 20 --trace 0

Workloads: fit-confusable, predict-exact, predict-fuzzy (see
``WORKLOADS``). Inputs are generated from ``--seed`` into a scratch
directory under ``bench/out/`` that is removed when the run ends; the
program sees only the generated JSONL and lexicon files.

With ``--trace 0`` the run reports every end-to-end metric; with
``--trace 1`` it reports every per-layer metric from a traced run and
writes its spans to ``bench/out/spans-<workload>-seed<seed>.jsonl``. Every
run also writes a report with the environment (BLAS threads, numpy, Python,
nproc, commit) to ``bench/out/<workload>-seed<seed>-trace<trace>.json``.

Times are scaled to a fixed host speed by a periodic reference probe (see
``probe.py``), because the shared hosts it runs on change speed by up to 2x
within a second; each report keeps the unscaled fit seconds too.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when every correctness gate passed, 1 when one failed,
and 2 when the repository's sources are not found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# Why each workload exists; BENCHMARK.json carries a one-line form of each.
WORKLOADS = {
    "fit-confusable": (
        "The CLI train path on a confusable corpus is dominated by autodiff, "
        "graph, contrastive and trainer, while its tracing is exact-only and "
        "costs almost nothing: the GAT kernel must show its gain here, and "
        "bounded fuzzy matching and run manifests must not slow it down."
    ),
    "predict-exact": (
        "Prediction where every clue is found exactly costs clue segmentation "
        "and exact match, featurize and scoring, with no autodiff and no GAT: "
        "the bypass workload for the GAT kernel and for the fuzzy matcher."
    ),
    "predict-fuzzy": (
        "Prediction on cases whose clue terms are misspelled or missing spends "
        "nearly all its time in the fuzzy pass of match_element, so bounded "
        "fuzzy matching shows its gain here; exact-path layers are negligible."
    ),
}

# One BLAS thread (at or below nproc on any machine), fixed before numpy loads.
BLAS_THREADS = 1
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside a
    git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest(src: Path) -> str:
    """SHA-256 over the package's source files, to identify the program
    where there is no git checkout."""
    digest = hashlib.sha256()
    for path in sorted((src / "lexjudge").rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "lexjudge" / "__init__.py").is_file():
        print(
            f"bench: no src/lexjudge under {root}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    import numpy

    import workloads
    from spans import LAYER_METRICS

    environment = {
        "blas_threads": BLAS_THREADS,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "source_sha256": source_digest(src),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = OUT_DIR / f"{stem}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        paths, expected = workloads.write_inputs(args.workload, args.seed, workdir)
        run = workloads.WorkloadRun(args.workload, paths, expected)
        try:
            if args.trace:
                outcome = workloads.measure_traced(run, OUT_DIR / f"spans-{stem}.jsonl")
            else:
                outcome = workloads.measure(run, args.seconds)
        except workloads.Aborted as exc:
            run.problem(str(exc))
            outcome = workloads.Outcome()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = dict(LAYER_METRICS if args.trace else workloads.END_TO_END)
    missing = [name for name in units if name not in outcome.metrics]
    if outcome.metrics and missing:
        run.problem(f"metrics not measured: {missing}")
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in outcome.metrics
        },
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment,
        "details": outcome.details,
        "problems": run.problems,
        "result": result,
    }
    with open(OUT_DIR / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for text in run.problems:
        print(f"bench: correctness gate failed: {text}", file=sys.stderr)
    print(json.dumps({"environment": environment, "details": outcome.details}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
