"""SHA-256 digests of lexjudge's deterministic outputs, one per line;
checkpoint lines also give the file's size in bytes.

Not a pytest module. Run it on two checkouts and diff the output to check
that a change leaves every output byte unchanged:

    python tests/output_digests.py > digests.txt

The script imports the ``src`` tree of its own checkout. It covers:

* ten stage-3 branches of ``run_pipeline`` (separable corpus, 5 cases
  per charge, seed 8; split 0.8 with seed 14; dim 16, 256 buckets; 3
  contrastive and 15 graph epochs; model seed 77; 4 heads), two of them
  on a task subset out of node order: the checkpoint bytes, and the
  Python ``repr`` of ``loss_log`` and ``attention``;
* the CLI ``trace``, ``pretrain``, ``train``, ``evaluate``, ``predict`` and
  ``ablate --grid full,no_graph`` outputs on ``tests/data/trace_corpus.jsonl``
  with ``lexicon.json`` (seed 11, dim 16, 256 buckets, 3 contrastive and 25
  graph epochs);
* the checkpoint of the benchmark's fit recipe on the fit-confusable
  inputs of workload seed 111 (about 10 s), and the prediction rows
  (``predict_records``, written as the CLI ``predict`` writes them) of
  that checkpoint, reloaded, on the predict-exact and predict-fuzzy
  request sets of workload seed 111;
* ``featurize`` over 401 seeded texts, one of each length from 0 to 400
  characters, mixing characters of one to four UTF-8 bytes and the clue
  separator, at 7 and 4,096 buckets and n-gram ranges (1, 3), (2, 4) and
  (3, 5): the concatenated feature bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
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
    Task,
    TrainConfig,
    featurize,
    load_checkpoint,
    load_corpus,
    load_lexicon,
    predict_records,
    run_pipeline,
    save_checkpoint,
)
from lexjudge.cli import main  # noqa: E402
from lexjudge.encoder import CLUE_SEPARATOR  # noqa: E402
from lexjudge.rng import derive  # noqa: E402

BRANCHES = {
    "graph, frozen": {},
    "graph, unfrozen, dropout 0.2": {
        "freeze_encoder": False, "dropout_rate": 0.2,
    },
    "graph, unfrozen, dropout 0": {
        "freeze_encoder": False, "dropout_rate": 0.0,
    },
    "graph, minibatch 7": {"batch_size": 7},
    "graph, unfrozen, minibatch 7, dropout 0.3": {
        "freeze_encoder": False, "batch_size": 7, "dropout_rate": 0.3,
    },
    "label fine-tune, frozen": {"use_graph": False},
    "label fine-tune, unfrozen, dropout 0.5": {
        "use_graph": False, "freeze_encoder": False, "dropout_rate": 0.5,
    },
    "graph, no clue tracing, no contrastive": {
        "use_clue_tracing": False, "use_contrastive": False,
    },
    "graph, tasks article and charge": {"tasks": (Task.ARTICLE, Task.CHARGE)},
    "graph, tasks article and charge, unfrozen, minibatch 7": {
        "tasks": (Task.ARTICLE, Task.CHARGE), "freeze_encoder": False,
        "batch_size": 7,
    },
}


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
        yield f"{name}: checkpoint", path.read_bytes()
        yield f"{name}: loss_log", repr(result.loss_log).encode()
        yield f"{name}: attention", repr(result.attention).encode()


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
        ["ablate", "--config", str(config), "--grid", "full,no_graph",
         "--out", str(work / "ablate")],
    ]
    for argv in commands:
        for folder in ("trace", "predict"):
            (work / folder).mkdir(exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code != 0:
            raise SystemExit(f"lexjudge {argv[0]} exited {code}")
    for folder in ("trace", "pretrain", "train", "evaluate", "predict", "ablate"):
        for path in sorted((work / folder).iterdir()):
            yield f"CLI {folder}/{path.name}", path.read_bytes()


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
    yield "bench recipe checkpoint", path.read_bytes()
    model, _ = load_checkpoint(path)
    for workload in ("predict-exact", "predict-fuzzy"):
        folder = work / workload
        folder.mkdir()
        paths, _ = w.write_inputs(workload, 111, folder)
        rows = [row for req in paths.requests for row in predict_records(model, load_corpus(req))]
        lines = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
        yield f"bench recipe predictions, {workload} requests", lines.encode()


# one code point range per UTF-8 width: ASCII, Latin-1 to Cyrillic, CJK, emoji
SCRIPTS = [(0x20, 0x7E), (0xA0, 0x4FF), (0x4E00, 0x9FFF), (0x1F600, 0x1F64F)]


def featurize_digests(work: Path):
    rng = random.Random("featurize digests")
    texts = [
        "".join(
            CLUE_SEPARATOR if rng.random() < 0.02 else chr(rng.randint(*rng.choice(SCRIPTS)))
            for _ in range(length)
        )
        for length in range(401)
    ]
    for buckets in (7, 4096):
        for ngrams in ((1, 3), (2, 4), (3, 5)):
            params = HashedEncoderParams(
                projection=[[0.0] * buckets], bias=[0.0], bucket_count=buckets,
                ngram_min=ngrams[0], ngram_max=ngrams[1],
            )
            data = b"".join(featurize(text, params).tobytes() for text in texts)
            yield f"featurize, {buckets} buckets, n-grams {ngrams[0]}-{ngrams[1]}", data


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for section in (branch_digests, cli_digests, bench_digest, featurize_digests):
            folder = work / section.__name__
            folder.mkdir()
            for name, data in section(folder):
                size = f" ({len(data):,} bytes)" if "checkpoint" in name else ""
                print(f"{hashlib.sha256(data).hexdigest()}  {name}{size}", flush=True)


if __name__ == "__main__":
    main_digests()
