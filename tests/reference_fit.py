"""One fit of the reference recipe, in process, on one BLAS thread; prints
its CPU seconds, the process's peak RSS and digests of what it trained.

Not a pytest module. Run it in alternating processes on two checkouts to
compare them in pairs measured on the same host:

    python tests/reference_fit.py

The script imports the ``src`` tree of its own checkout, and the
benchmark's input generator (``bench/inputs.py``) for its records. The
recipe is the README's encoder and contrastive defaults (dim 256, 4,096
buckets, 20 contrastive epochs, 7 negatives, dropout 0.1) on
``inputs.exact_records(5, 2000, "fit")``, split 0.8 with seed
``derive(4242, "split")``: 1,600 training cases and 9 labels. Stage 3
runs 20 graph epochs with 4 heads at model seed 4242. The graph has 1,609
nodes and 11,227 edges.

Output, one ``name: value`` line each:

* ``fit_cpu_s``: ``time.process_time`` around ``fit_model`` alone;
* ``peak_rss_mb``: ``ru_maxrss`` of this process just after the fit,
  which covers input generation and loading too;
* ``label_matrices`` and ``attention``: SHA-256 of the label matrices'
  bytes in task order and of the ``repr`` of the fit's attention rows, so
  that two runs can be checked to have trained the same model.

It takes about 10 CPU seconds and 450 MB.
"""

from __future__ import annotations

import hashlib
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import inputs  # noqa: E402
from lexjudge import (  # noqa: E402
    ContrastiveConfig,
    DropoutSpec,
    HashedEncoderParams,
    SplitSpec,
    TrainConfig,
    load_corpus,
    load_lexicon,
    split,
)
from lexjudge.rng import derive  # noqa: E402
from lexjudge.trainer import fit_model  # noqa: E402

MODEL_SEED = 4242


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        inputs.write_json(work / "lexicon.json", inputs.lexicon_doc())
        inputs.write_jsonl(work / "fit.jsonl", inputs.exact_records(5, 2000, "fit"))
        lexicon, anchors = load_lexicon(work / "lexicon.json")
        corpus = load_corpus(work / "fit.jsonl")
    train, _, _ = split(corpus, SplitSpec(0.8, seed=derive(MODEL_SEED, "split")))
    start = time.process_time()
    result = fit_model(
        train,
        encoder_params=HashedEncoderParams.initialize(
            output_dim=256, bucket_count=4096, seed=derive(MODEL_SEED, "encoder")
        ),
        lexicon=lexicon,
        anchors=anchors,
        threshold=0.8,
        contrastive_cfg=ContrastiveConfig(
            epochs=20,
            negatives_per_anchor=7,
            dropout=DropoutSpec(rate=0.1, seed=derive(MODEL_SEED, "dropout")),
            seed=derive(MODEL_SEED, "contrastive"),
        ),
        train_cfg=TrainConfig(epochs=20, seed=MODEL_SEED, heads=4),
    )
    cpu = time.process_time() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    matrices = b"".join(
        result.model.label_matrices[task].tobytes() for task in result.model.tasks
    )
    print(f"fit_cpu_s: {cpu:.2f}")
    print(f"peak_rss_mb: {peak:.1f}")
    print(f"label_matrices: {hashlib.sha256(matrices).hexdigest()}")
    print(f"attention: {hashlib.sha256(repr(result.attention).encode()).hexdigest()}")


if __name__ == "__main__":
    main()
