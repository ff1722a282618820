"""The closed-form losses equal the composed tape.

``stage3_objective`` and ``contrastive_objective`` are each a few forward
steps whose hand-written backward steps run in a fixed order;
``tests/tape_reference.py`` composes the same losses op by op. Values and
gradients must agree to 1e-12 on every stage-3 branch of
``tests/output_digests.py`` and on contrastive epochs, and every
max-shifted step must stay finite at extreme scores.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import lexjudge.trainer as trainer
import synth
import tape_reference as ref
from gat_reference import gat_forward_reference
from lexjudge import (
    ContrastiveConfig,
    DropoutSpec,
    HashedEncoderParams,
    SplitSpec,
    TrainConfig,
    contrastive_objective,
    run_pipeline,
)
from lexjudge.clues import full_text_clues
from lexjudge.contrastive import info_nce
from lexjudge.corpus import TASKS, Task
from lexjudge.encoder import HashedRows, clue_text, featurize
from lexjudge.graph import GatParams, build_graph, gat_forward

from contrastive_reference import contrastive_loss

ATOL = 1e-12


def digest_branches() -> dict[str, dict]:
    """``BRANCHES`` of ``tests/output_digests.py``, read without running it:
    the dict's expression alone is evaluated, with ``Task`` its one name."""
    source = (Path(__file__).resolve().parent / "output_digests.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "BRANCHES":
            expression = compile(ast.Expression(node.value), "output_digests.py", "eval")
            return eval(expression, {"__builtins__": {}, "Task": Task})
    raise AssertionError("output_digests.py defines no BRANCHES")


BRANCHES = digest_branches()


def assert_same(loss, ref_value, ref_grads):
    """The loss handle's value and gradients equal the composed tape's."""
    assert abs(loss.value - ref_value) <= ATOL
    grads = loss.backward()
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        np.testing.assert_allclose(grads[key], ref_grads[key], rtol=0, atol=ATOL, err_msg=key)


def test_branches_are_the_ten_digest_branches():
    assert len(BRANCHES) == 10


@pytest.mark.parametrize("name", list(BRANCHES))
def test_stage3_closed_form_equals_the_composed_tape(monkeypatch, name):
    """Every stage-3 step of a short run of the branch, on its own inputs."""
    overrides = BRANCHES[name]
    calls = []
    objective = trainer.stage3_objective

    def recording(*args, **kwargs):
        result = objective(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(trainer, "stage3_objective", recording)
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=5, seed=8)
    run_pipeline(
        corpus,
        lexicon=lexicon,
        anchors=anchors,
        split_spec=SplitSpec(0.8, seed=14),
        encoder_params=HashedEncoderParams.initialize(output_dim=16, bucket_count=256, seed=1),
        contrastive_cfg=ContrastiveConfig(
            epochs=3, negatives_per_anchor=3, dropout=DropoutSpec(rate=0.1, seed=5), seed=6,
        ),
        train_cfg=TrainConfig(epochs=3, seed=77, heads=4, **overrides),
    )
    assert len(calls) == 3
    for args, kwargs, loss in calls:
        assert (kwargs["gat"] is None) == (overrides.get("use_graph") is False)
        unfrozen = overrides.get("freeze_encoder") is False
        assert (kwargs["encoder_inputs"] is not None) == unfrozen
        assert (kwargs["rows"] is not None) == ("batch_size" in overrides)
        assert_same(loss, *ref.stage3_composed(*args, **kwargs))


def contrastive_features(n_per=4):
    corpus, _, _ = synth.separable_corpus(cases_per_charge=n_per, seed=8)
    params = HashedEncoderParams.initialize(output_dim=16, bucket_count=256, seed=1)
    features = np.stack([
        featurize(clue_text(full_text_clues(case.fact_text)), params) for case in corpus
    ])
    return features, params


@pytest.mark.parametrize("epoch", [0, 3])
def test_contrastive_closed_form_equals_the_composed_tape(epoch):
    features, params = contrastive_features()
    cfg = ContrastiveConfig(
        negatives_per_anchor=3, dropout=DropoutSpec(rate=0.1, seed=5), seed=6
    )
    assert_same(
        contrastive_objective(
            HashedRows(features, slice(None)), params.projection, params.bias, cfg, epoch
        ),
        *ref.contrastive_composed(features, params.projection, params.bias, cfg, epoch),
    )


class TestExtremeScores:
    """Every softmax inside a step is max-shifted, so scores near 1e3 give
    finite values and gradients."""

    def test_gat_attention_logits_near_1e3(self):
        corpus, _, _ = synth.separable_corpus(cases_per_charge=2, seed=3)
        graph = build_graph(corpus)
        features = np.random.default_rng(4).normal(size=(graph.num_nodes, 8))
        params = GatParams.initialize(8, 2, 5)
        for layer in params.layers:
            layer.omega *= 1e3 / np.abs(layer.omega).sum(axis=1, keepdims=True)
        collected = []
        out = gat_forward(graph, features, params, collect_attention=collected)
        projected = features @ params.layers[0].W[0].T
        first = params.layers[0].omega[0] @ np.concatenate(
            [projected[graph.edge_src], projected[graph.edge_dst]], axis=1
        ).T
        assert np.abs(first).max() > 500
        for _, _, alpha in collected:
            sums = np.bincount(graph.edge_src, weights=alpha, minlength=graph.num_nodes)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)
        np.testing.assert_allclose(
            out, gat_forward_reference(graph, features, params), rtol=0, atol=1e-9
        )
        golds = {task: corpus.gold_ids(task) for task in TASKS}
        loss = trainer.stage3_objective(
            params.to_param_dict(), graph, golds, TASKS,
            gat=params, fact_vectors=features[: len(corpus)], nodes=features,
        )
        assert np.isfinite(loss.value)
        grads = loss.backward()
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_cross_entropy_scores_near_1e3(self):
        """Through the unfrozen label fine-tune, whose backward reaches the
        facts (and the encoder) as well as the labels."""
        rng = np.random.default_rng(6)
        features = rng.normal(size=(5, 6))
        theta = {
            "labels.charge": rng.normal(size=(3, 4)) * 300,
            "encoder.projection": rng.normal(size=(4, 6)),
            "encoder.bias": rng.normal(size=4),
        }
        gold = np.array([0, 2, 1, 1, 0])
        facts = np.tanh(features @ theta["encoder.projection"].T + theta["encoder.bias"])
        logits = facts @ theta["labels.charge"].T
        assert np.abs(logits).max() > 1e3
        loss = trainer.stage3_objective(
            theta, None, {Task.CHARGE: gold}, (Task.CHARGE,),
            encoder_inputs=features,
        )
        value, grads = loss.value, loss.backward()
        shift = logits.max(axis=1)
        expected = np.mean(
            shift + np.log(np.exp(logits - shift[:, None]).sum(axis=1)) - logits[range(5), gold]
        )
        assert value == pytest.approx(expected, rel=1e-12)
        assert grads.keys() == theta.keys()
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_info_nce_scores_near_1e3(self):
        rng = np.random.default_rng(7)
        anchors, positives, negatives = (rng.normal(size=(4, 6)) for _ in range(3))
        neg_idx = np.array([[1, 2], [0, 3], [3, 1], [2, 0]])
        temperature = 1e-3
        value, backward = info_nce(anchors, positives, negatives, neg_idx, temperature)
        expected = np.mean([
            contrastive_loss(
                anchors[i], positives[i], [negatives[j] for j in neg_idx[i]], temperature
            )
            for i in range(4)
        ])
        assert np.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-12)
        grads = backward(1.0)
        assert [g.shape for g in grads] == [(4, 6)] * 3
        assert all(np.all(np.isfinite(g)) for g in grads)
