"""A fit's bytes do not depend on the BLAS thread count.

OpenBLAS splits a product that sums over rows across its threads, and the
split changes how the sums round. ``autodiff.t_matmul`` pads the rows of
every such product in the backward passes; this test fits the same model
in two processes, at one and at two BLAS threads, and compares the
checkpoints byte for byte: a frozen, full-batch fit and a fit whose
encoder trains in stage 3 on minibatches. On one core OpenBLAS runs one
thread either way, and the test shows nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# 520 benchmark records (416 training cases): at dim 256 and 4,096 buckets,
# the unpadded products give different label matrices at two threads.
FIT = """
import sys
from pathlib import Path
import inputs
from lexjudge import (
    ContrastiveConfig, DropoutSpec, HashedEncoderParams, SplitSpec, TrainConfig,
    load_corpus, load_lexicon, run_pipeline, save_checkpoint,
)
from lexjudge.rng import derive

work = Path(sys.argv[1])
inputs.write_json(work / "lexicon.json", inputs.lexicon_doc())
inputs.write_jsonl(work / "fit.jsonl", inputs.exact_records(5, 520, "fit"))
lexicon, anchors = load_lexicon(work / "lexicon.json")
corpus = load_corpus(work / "fit.jsonl")
unfrozen = {"freeze_encoder": False, "batch_size": 100}
for name, overrides in [("frozen", {}), ("unfrozen", unfrozen)]:
    result = run_pipeline(
        corpus,
        lexicon=lexicon,
        anchors=anchors,
        split_spec=SplitSpec(0.8, seed=derive(4242, "split")),
        encoder_params=HashedEncoderParams.initialize(output_dim=256, bucket_count=4096, seed=1),
        contrastive_cfg=ContrastiveConfig(
            epochs=2, negatives_per_anchor=7, dropout=DropoutSpec(rate=0.1, seed=5), seed=6,
        ),
        train_cfg=TrainConfig(epochs=2, seed=4242, heads=4, **overrides),
    )
    save_checkpoint(work / f"{name}.json", result.model, result.optimizer_state)
"""


def fit_checkpoints(work: Path, threads: int) -> list[bytes]:
    work.mkdir()
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "OMP_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]),
    }
    done = subprocess.run(
        [sys.executable, "-c", FIT, str(work)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return [(work / f"{name}.json").read_bytes() for name in ("frozen", "unfrozen")]


def test_checkpoint_bytes_equal_at_one_and_two_threads(tmp_path):
    one = fit_checkpoints(tmp_path / "one", 1)
    assert fit_checkpoints(tmp_path / "two", 2) == one
