"""SHA-256 digests of lexjudge's deterministic outputs, one per line.

Not a pytest module. Run it on two checkouts and diff the output to check
that a change leaves every output byte unchanged:

    python tests/output_digests.py > digests.txt

The script imports the ``src`` tree of its own checkout. It covers:

* eight stage-3 branches of ``run_pipeline`` (separable corpus, 5 cases
  per charge, seed 8; split 0.8 with seed 14; dim 16, 256 buckets; 3
  contrastive and 15 graph epochs; model seed 77; 4 heads): the checkpoint
  bytes, and the Python ``repr`` of ``loss_log`` and ``attention``;
* the CLI ``trace``, ``pretrain``, ``train``, ``evaluate`` and ``predict``
  outputs on ``tests/data/trace_corpus.jsonl`` with ``lexicon.json`` (seed
  11, dim 16, 256 buckets, 3 contrastive and 25 graph epochs);
* the checkpoint of the benchmark's fit recipe on the fit-confusable
  inputs of workload seed 111 (about 10 s).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]

import synth  # noqa: E402
from lexjudge import (  # noqa: E402
    ContrastiveConfig,
    DropoutSpec,
    HashedEncoderParams,
    SplitSpec,
    TrainConfig,
    load_corpus,
    load_lexicon,
    run_pipeline,
    save_checkpoint,
)
from lexjudge.cli import main  # noqa: E402
from lexjudge.rng import derive  # noqa: E402

BRANCHES = {
    "graph, frozen": {},
    "graph, unfrozen, dropout 0.2": {
        "freeze_encoder_after_contrastive": False, "dropout_rate": 0.2,
    },
    "graph, unfrozen, dropout 0": {
        "freeze_encoder_after_contrastive": False, "dropout_rate": 0.0,
    },
    "graph, minibatch 7": {"batch_size": 7},
    "graph, unfrozen, minibatch 7, dropout 0.3": {
        "freeze_encoder_after_contrastive": False, "batch_size": 7, "dropout_rate": 0.3,
    },
    "label fine-tune, frozen": {"use_graph": False},
    "label fine-tune, unfrozen, dropout 0.5": {
        "use_graph": False, "freeze_encoder_after_contrastive": False, "dropout_rate": 0.5,
    },
    "graph, no clue tracing, no contrastive": {
        "use_clue_tracing": False, "use_contrastive": False,
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digest(path: Path) -> str:
    return sha256(path.read_bytes())


def branch_digests(work: Path):
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=5, seed=8)
    for name, overrides in BRANCHES.items():
        result = run_pipeline(
            corpus,
            lexicon=lexicon,
            anchors=anchors,
            split_spec=SplitSpec(0.8, seed=14),
            encoder_params=HashedEncoderParams.initialize(
                output_dim=16, bucket_count=256, seed=1
            ),
            contrastive_cfg=ContrastiveConfig(
                epochs=3, negatives_per_anchor=3, dropout=DropoutSpec(rate=0.1, seed=5), seed=6,
            ),
            train_cfg=TrainConfig(epochs=15, seed=77, heads=4, **overrides),
        )
        path = work / "branch.json"
        save_checkpoint(path, result.model, result.optimizer_state)
        yield f"{name}: checkpoint", file_digest(path)
        yield f"{name}: loss_log", sha256(repr(result.loss_log).encode())
        yield f"{name}: attention", sha256(repr(result.attention).encode())


def cli_digests(work: Path):
    data = ROOT / "tests" / "data"
    config = work / "config.json"
    config.write_text(json.dumps({
        "version": 1,
        "seed": 11,
        "paths": {
            "corpus": str(data / "trace_corpus.jsonl"),
            "lexicon": str(data / "lexicon.json"),
            "output_dir": str(work / "out"),
        },
        "split": {"train_fraction": 0.8, "seed": 13},
        "encoder": {"backend": "hashed", "output_dim": 16, "bucket_count": 256},
        "contrastive": {"epochs": 3, "negatives_per_anchor": 4},
        "train": {"epochs": 25, "heads": 4},
    }), encoding="utf-8")
    commands = [
        ["trace", "--config", str(config), "--out", str(work / "trace" / "clues.jsonl")],
        ["pretrain", "--config", str(config), "--out", str(work / "pretrain")],
        ["train", "--config", str(config), "--out", str(work / "train")],
        ["evaluate", "--config", str(config), "--checkpoint",
         str(work / "train" / "checkpoint.json"), "--out", str(work / "evaluate")],
        ["predict", "--checkpoint", str(work / "train" / "checkpoint.json"),
         "--in", str(data / "trace_corpus.jsonl"),
         "--out", str(work / "predict" / "predictions.jsonl")],
    ]
    for argv in commands:
        for folder in ("trace", "predict"):
            (work / folder).mkdir(exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"lexjudge {argv[0]} exited {code}")
    for folder in ("trace", "pretrain", "train", "evaluate", "predict"):
        for path in sorted((work / folder).iterdir()):
            yield f"CLI {folder}/{path.name}", file_digest(path)


def bench_digest(work: Path):
    import inputs
    import workloads as w

    inputs.write_json(work / "lexicon.json", inputs.lexicon_doc())
    inputs.write_jsonl(work / "fit.jsonl", inputs.exact_records(111, w.FIT_CASES, "fit"))
    lexicon, anchors = load_lexicon(work / "lexicon.json")
    result = run_pipeline(
        load_corpus(work / "fit.jsonl"),
        lexicon=lexicon,
        anchors=anchors,
        threshold=w.THRESHOLD,
        split_spec=SplitSpec(w.TRAIN_FRACTION, seed=derive(w.MODEL_SEED, "split")),
        encoder_params=HashedEncoderParams.initialize(
            output_dim=w.DIM, bucket_count=w.BUCKETS, seed=derive(w.MODEL_SEED, "encoder")
        ),
        contrastive_cfg=ContrastiveConfig(
            epochs=w.CONTRASTIVE_EPOCHS,
            negatives_per_anchor=7,
            dropout=DropoutSpec(rate=0.1, seed=derive(w.MODEL_SEED, "dropout")),
            seed=derive(w.MODEL_SEED, "contrastive"),
        ),
        train_cfg=TrainConfig(epochs=w.GRAPH_EPOCHS, seed=w.MODEL_SEED, heads=w.HEADS),
    )
    path = work / "checkpoint.json"
    save_checkpoint(path, result.model, result.optimizer_state)
    yield f"bench recipe checkpoint ({path.stat().st_size:,} bytes)", file_digest(path)


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for section in (branch_digests, cli_digests, bench_digest):
            folder = work / section.__name__
            folder.mkdir()
            for name, digest in section(folder):
                print(f"{digest}  {name}", flush=True)


if __name__ == "__main__":
    main_digests()
