"""Source mutants of lexjudge's numerical core, each with the tests that
must catch it.

Not a pytest module. Run it to check that every mutant is still killed:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants only

Each entry of ``MUTANTS`` names a module of ``src/lexjudge``, an exact
snippet of its source, the snippet's replacement and the test ids expected
to fail on the mutant. The script copies ``src`` into a temporary
directory, with ``tests``, ``bench``, ``pyproject.toml`` and ``README.md``
beside it, since some tests find the package, the benchmark or the README
from their own path. It first runs every listed test once on the
unmutated copy, and stops if one fails. It then applies one mutant at a
time to the copy and runs that mutant's tests in one pytest subprocess
(never two at once), printing ``killed`` when some test fails, ``survived`` when all pass and
``error`` when pytest stops otherwise (a test id that names nothing, or
a run past ``TIMEOUT_S``).
It prints the total time last, and exits 1 unless every mutant was killed.
``tests/test_mutants.py`` checks that each snippet occurs exactly once in
its module, so an edit of the source cannot leave an entry that mutates
nothing.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml", "README.md")
TIMEOUT_S = 600  # per pytest run; the slowest mutant's tests take a few seconds


class Mutant(NamedTuple):
    name: str
    module: str  # file name under src/lexjudge
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # clues.match_element's bounded fuzzy pass
    Mutant(
        "cut-off without slack", "clues.py",
        "distance = int((1.0 - threshold) * longest) + 1",
        "distance = int((1.0 - threshold) * longest)",
        ("tests/test_clues.py::TestFuzzyPassBounds::test_cutoff_is_the_largest_accepted_distance",
         "tests/test_clues.py::TestMatchElement::test_accepts_window_on_the_float_boundary"),
    ),
    Mutant(
        "strict accept test", "clues.py",
        "if score >= threshold and (fuzzy_best is None or key < fuzzy_best):",
        "if score > threshold and (fuzzy_best is None or key < fuzzy_best):",
        ("tests/test_clues.py::TestMatchElement",),
    ),
    Mutant(
        "anchored DP with a zero top row", "clues.py",
        "carry = int(anchored)", "carry = 0",
        ("tests/test_clues.py::TestMatchElementAgreesWithReference",),
    ),
    Mutant(
        "unanchored DP with a counting top row", "clues.py",
        "carry = int(anchored)", "carry = 1",
        ("tests/test_clues.py::TestMatchElementAgreesWithReference",),
    ),
    Mutant(
        "filter admits only ends below the cut-off", "clues.py",
        "if bound <= cutoff", "if bound < cutoff",
        ("tests/test_clues.py::TestMatchElement",),
    ),
    Mutant(
        "candidate starts miss the widest window", "clues.py",
        "range(max(0, end - high), end - low + 1)",
        "range(max(0, end - high + 1), end - low + 1)",
        ("tests/test_clues.py::TestMatchElement",),
    ),
    Mutant(
        "verification stops at a bound that ties", "clues.py",
        "if -neg_bound < (threshold if fuzzy_best is None else -fuzzy_best[0]):",
        "if -neg_bound <= (threshold if fuzzy_best is None else -fuzzy_best[0]):",
        ("tests/test_clues.py::TestMatchElement",),
    ),
    Mutant(
        "pigeonhole filter with one piece too few", "clues.py",
        "pieces = cutoff + 1", "pieces = max(cutoff, 1)",
        ("tests/test_clues.py::TestFuzzyPassBounds",),
    ),
    # gradients and the training loop
    Mutant(
        "one view's projection gradient scaled by 1.001", "contrastive.py",
        '{"projection": g_p0 + g_p1 + g_p2,',
        '{"projection": g_p0 * 1.001 + g_p1 + g_p2,',
        ("tests/test_acceptance.py::test_criterion_1_gradient_oracle",),
    ),
    Mutant(
        "unfrozen encoder's projection gradient scaled by 1.001", "trainer.py",
        'grads["encoder.projection"], grads["encoder.bias"] = project(g_nodes)',
        ('g_p, grads["encoder.bias"] = project(g_nodes); '
         'grads["encoder.projection"] = g_p * 1.001'),
        ("tests/test_trainer.py::TestStage3Objective::"
         "test_unfrozen_encoder_gradients_with_fixed_dropout_mask",),
    ),
    Mutant(
        "a full layer's omega gradient scaled by 1.001", "graph.py",
        "[(g_src * projected).sum(axis=0), (g_dst * projected).sum(axis=0)]",
        "[(g_src * projected).sum(axis=0) * 1.001, (g_dst * projected).sum(axis=0)]",
        ("tests/test_graph.py::TestGraphGradients",),
    ),
    Mutant(
        "backward() before the finiteness check", "trainer.py",
        "        loss = objective(theta, epoch)\n",
        "        loss = objective(theta, epoch)\n        loss.backward()\n",
        ("tests/test_trainer.py::TestDescend",),
    ),
    Mutant(
        "Adam without bias correction", "trainer.py",
        "step = m / (1.0 - state.beta1 ** t)", "step = m.copy()",
        ("tests/test_trainer.py::TestAdam",),
    ),
    Mutant(
        "minibatch gradient written at the first rows", "trainer.py",
        "slice(len(facts)) if rows is None else rows]",
        "slice(len(facts)) if rows is None else slice(len(rows))]",
        ("tests/test_tape_oracle.py::test_stage3_closed_form_equals_the_composed_tape"
         "[graph, unfrozen, minibatch 7, dropout 0.3]",),
    ),
    Mutant(
        "fact gradient assigned over the graph's node gradient", "trainer.py",
        "else rows] += reduce(", "else rows] = reduce(",
        ("tests/test_trainer.py::TestStage3Objective::"
         "test_unfrozen_encoder_gradients_with_fixed_dropout_mask",
         "tests/test_tape_oracle.py::test_stage3_closed_form_equals_the_composed_tape"
         "[graph, unfrozen, dropout 0.2]"),
    ),
    Mutant(
        "fact gradient added at the fact rows shifted by one", "trainer.py",
        "g_nodes[slice(len(facts)) if", "g_nodes[slice(1, len(facts) + 1) if",
        ("tests/test_trainer.py::TestStage3Objective::"
         "test_unfrozen_encoder_gradients_with_fixed_dropout_mask",
         "tests/test_tape_oracle.py::test_stage3_closed_form_equals_the_composed_tape"
         "[graph, unfrozen, dropout 0.2]"),
    ),
    # graph attention layers
    Mutant(
        "receiver layer's unpadded product", "graph.py",
        "z = ad.t_matmul(block, x)", "z = (block.T @ x)",
        ("tests/test_blas_threads.py",
         "tests/test_graph.py::TestLabelOnlyLastLayer::test_block_product_goes_through_t_matmul"),
    ),
    Mutant(
        "receiver layer's heads swapped in the block", "graph.py",
        "at = (dst[:, None] * n_heads + np.arange(n_heads)) * n_out",
        "at = (dst[:, None] * n_heads + np.arange(n_heads)[::-1]) * n_out",
        ("tests/test_graph.py::TestLabelOnlyLastLayer",),
    ),
    Mutant(
        "edge softmax without its max shift", "graph.py",
        "numer = np.exp(logits - shift[row])", "numer = np.exp(logits)",
        ("tests/test_tape_oracle.py::TestExtremeScores",),
    ),
    Mutant(
        "edge softmax backward without the leaky factor", "graph.py",
        "return alpha * (g_alpha - g_mean) * factor", "return alpha * (g_alpha - g_mean)",
        ("tests/test_graph.py::TestGraphGradients",),
    ),
    Mutant(
        "ELU by exp, not expm1", "graph.py",
        "np.where(positive, summed, np.expm1(summed))",
        "np.where(positive, summed, np.exp(summed))",
        ("tests/test_graph.py::TestGatForward",),
    ),
    Mutant(
        "t_matmul without padding", "autodiff.py",
        "pad = -a.shape[-2] % 32", "pad = 0",
        ("tests/test_blas_threads.py",
         "tests/test_autodiff.py::TestTMatmul::test_product_operands_have_rows_padded_to_32"),
    ),
    # the contrastive objective
    Mutant(
        "InfoNCE positive not scaled by the temperature", "contrastive.py",
        "pos_sim = (a * p).sum(axis=1) * (1.0 / temperature)",
        "pos_sim = (a * p).sum(axis=1)",
        ("tests/test_contrastive.py::TestObjectiveMatchesOracle",),
    ),
    Mutant(
        "InfoNCE backward without the temperature", "contrastive.py",
        "np.split(g * g_sims * (1.0 / temperature), [1], axis=1)",
        "np.split(g * g_sims, [1], axis=1)",
        ("tests/test_contrastive.py::TestGradients",),
    ),
    Mutant(
        "InfoNCE zero row normalized by 1", "contrastive.py",
        "norms = [np.where(r == 0.0, np.inf, r) for r in norms]",
        "norms = [np.where(r == 0.0, 1.0, r) for r in norms]",
        ("tests/test_contrastive.py::TestZeroViewRows",),
    ),
    Mutant(
        "negatives drawn for one row too few", "encoder.py",
        "self.count = len(features)", "self.count = len(features) - 1",
        ("tests/test_contrastive.py::TestGradients",),
    ),
    # encoder and scoring
    Mutant(
        "dropout keeps a uniform strictly above the rate", "encoder.py",
        "kept = to_uniform(stream_u64_at(spec.seed, index)) >= spec.rate",
        "kept = to_uniform(stream_u64_at(spec.seed, index)) > spec.rate",
        ("tests/test_encoder.py::TestDropout",),
    ),
    Mutant(
        "featurize leads on ASCII bytes only", "encoder.py",
        "bounds = np.flatnonzero((data & 0xC0) != 0x80)",
        "bounds = np.flatnonzero((data & 0x80) != 0x80)",
        ("tests/test_encoder.py::TestFeaturizeMatchesReference",),
    ),
    Mutant(
        "scores returned unchecked", "predictor.py",
        "if scores.size and np.isfinite(scores).all():", "if scores.size:",
        ("tests/test_score_readers.py",),
    ),
    Mutant(
        "softmax without its max shift", "predictor.py",
        "shifted = np.exp(scores - scores.max())", "shifted = np.exp(scores)",
        ("tests/test_predictor.py::TestPredictProba",),
    ),
    Mutant(
        "glorot draws from the second output on", "rng.py",
        "u = to_uniform(stream_u64_at(seed, np.arange(size)))",
        "u = to_uniform(stream_u64_at(seed, np.arange(1, size + 1)))",
        ("tests/test_rng.py::TestGlorotAndFnv::test_glorot_draws_the_stream_in_order",),
    ),
    Mutant(
        "metrics document without its task", "metrics.py",
        "if task is not None:", "if False:",
        ("tests/test_metrics.py::TestReport::test_as_dict_is_the_json_document",),
    ),
    # the embedding table's writer
    Mutant(
        "embedding id with a carriage return written", "encoder.py",
        r'any(c in key for c in "\t\r\n")', r'any(c in key for c in "\t\n")',
        ("tests/test_encoder.py::TestEmbeddingTable::test_writer_refuses_a_key_its_reader_would",
         "tests/test_cli.py::TestTrainCommand::test_unwritable_embedding_id_exits_3"),
    ),
    Mutant(
        "embedding id written twice", "encoder.py",
        "if key in lines:", "if key in ():",
        ("tests/test_encoder.py::TestEmbeddingTable::test_writer_refuses_a_key_its_reader_would",
         "tests/test_cli.py::TestTrainCommand::test_unwritable_embedding_id_exits_3"),
    ),
    # checkpoint validation
    Mutant(
        "array with surplus bytes accepted", "checkpoint.py",
        "if len(data) != expected:", "if len(data) < expected:",
        ("tests/test_cli.py::TestCheckpointValidation::test_malformed_v2_array_exits_3",),
    ),
    Mutant(
        "zero heads accepted", "checkpoint.py",
        "if heads < 1:", "if heads < 0:",
        ("tests/test_cli.py::TestCheckpointValidation::test_mistyped_meta_field_exits_3",),
    ),
    Mutant(
        "encoder dimension not checked against the meta", "checkpoint.py",
        'if (meta["backend"], dim) != (model.backend_kind, model.dim):',
        'if meta["backend"] != model.backend_kind:',
        ("tests/test_cli.py::TestCheckpointValidation::test_mismatched_meta_dim_exits_3",),
    ),
    Mutant(
        "meta.dim's type not checked", "checkpoint.py",
        'dim = check_kind(meta["dim"], int, "meta.dim")', 'dim = meta["dim"]',
        ("tests/test_cli.py::TestCheckpointValidation::test_mistyped_meta_field_exits_3",),
    ),
    Mutant(
        "encoder.output_dim not checked against the projection", "checkpoint.py",
        "if output_dim != encoder_params.output_dim:", "if output_dim < 1:",
        ("tests/test_cli.py::TestCheckpointValidation::test_bad_encoder_output_dim_exits_3",),
    ),
)


def source(module: str) -> str:
    return (ROOT / "src" / "lexjudge" / module).read_text(encoding="utf-8")


def run(mutants) -> bool:
    """Apply each mutant in turn to one copy of the sources, restoring the
    module after its tests run; True when every mutant is killed."""
    survived = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="lexjudge-mutants-") as work:
        copy = Path(work)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, copy / name)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def pytest(tests) -> int | None:
            try:
                return subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                     *tests],
                    cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                return None  # a hang is no failed test

        # a kill means something only if the same tests pass unmutated
        if pytest(dict.fromkeys(test for mutant in mutants for test in mutant.tests)) != 0:
            print("the listed tests fail on the unmutated source", file=sys.stderr)
            return False
        for mutant in mutants:
            path = copy / "src" / "lexjudge" / mutant.module
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
            began = time.perf_counter()
            returncode = pytest(mutant.tests)
            path.write_text(original, encoding="utf-8")
            # exit 1: some test failed. An error (a test id that names
            # nothing, say) or a timeout kills no mutant.
            status = {0: "survived", 1: "killed"}.get(returncode, "error")
            if status != "killed":
                survived.append(mutant.name)
            print(f"{status:8}  {time.perf_counter() - began:5.1f} s  {mutant.name}", flush=True)
    print(f"{len(mutants) - len(survived)} of {len(mutants)} killed "
          f"in {time.perf_counter() - start:.1f} s")
    return not survived


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {sorted(unknown)}", file=sys.stderr)
        return 2
    return 0 if run(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
