"""Acceptance suite.

One test per criterion; each prints a "[acceptance] criterion N (...):
PASS/FAIL" line (run with ``pytest tests/test_acceptance.py -s`` to see
them live). Tolerances are pinned in the asserts.
"""

import json
import math
import time

import numpy as np
import pytest

import synth
from lexjudge import (
    AdamState,
    ContrastiveConfig,
    DropoutSpec,
    GatParams,
    HashedEncoderParams,
    ReasoningGraph,
    SplitSpec,
    Task,
    TrainConfig,
    adam_step,
    contrastive_objective,
    evaluate_model,
    fuzzy_score,
    gat_forward,
    predict_proba,
    report,
    run_pipeline,
)
from lexjudge.cli import main
from lexjudge.encoder import HashedRows
from lexjudge.graph import FactNode, LabelNode, LayerParams
from lexjudge.rng import derive
from lexjudge.trainer import stage3_objective

from contrastive_reference import contrastive_loss, cosine_sim
from gat_reference import graph_loss_reference
from gradcheck import worst_gradient_error


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed {suffix}"


def six_node_instance(seed=123):
    """3 fact nodes + 3 charge-label nodes, dim 8, 2 heads per layer."""
    rng = np.random.default_rng(seed)
    nodes = [FactNode(f"f{i}") for i in range(3)] + [
        LabelNode(Task.CHARGE, i) for i in range(3)
    ]
    neighbors = [
        [0, 3], [1, 4], [2, 5],
        [3, 0, 4, 5], [4, 1, 3, 5], [5, 2, 3, 4],
    ]
    graph = ReasoningGraph(nodes, neighbors)
    features = rng.normal(size=(6, 8)) * 0.8
    params = GatParams.initialize(dim=8, heads=2, seed=7)
    hf = rng.normal(size=(3, 8)) * 0.8
    golds = {Task.CHARGE: [0, 1, 2]}
    return graph, features, params, hf, golds


def test_criterion_1_gradient_oracle():
    started = time.perf_counter()
    step = 1e-4

    # (a) contrastive loss w.r.t. the encoder projection, dim-8 instance
    rng = np.random.default_rng(17)
    features = rng.uniform(0.0, 1.0, size=(6, 16))
    projection = rng.normal(size=(8, 16)) * 0.3
    bias = rng.normal(size=8) * 0.1
    cfg = ContrastiveConfig(
        temperature=0.05, negatives_per_anchor=3, epochs=1,
        dropout=DropoutSpec(rate=0.1, seed=4), seed=9,
    )
    worst = worst_gradient_error(
        lambda theta: contrastive_objective(
            HashedRows(features, slice(None)), theta["projection"], bias, cfg, 0
        ),
        {"projection": projection}, ["projection"], step,
    )

    # (b) total_loss through the 2-layer, 2-head graph forward pass,
    #     w.r.t. every W and omega, against the loop-composed reference
    graph, features, params, hf, golds = six_node_instance()
    tasks = (Task.CHARGE,)

    def objective(theta):
        return stage3_objective(
            theta, graph, golds, tasks, gat=params, fact_vectors=hf, nodes=features
        )

    def reference(theta):
        return graph_loss_reference(
            graph, features, params.with_param_dict(theta), hf, golds, tasks
        )

    theta = params.to_param_dict()
    assert objective(theta).value == pytest.approx(reference(theta), abs=1e-12)
    worst = max(worst, worst_gradient_error(objective, theta, list(theta), step, reference))

    elapsed = time.perf_counter() - started
    _report(
        1, "gradient oracle", worst <= 1e-4 and elapsed < 5.0,
        f"max rel err {worst:.3e}, {elapsed:.2f}s",
    )


def test_criterion_2_loss_oracle():
    rng = np.random.default_rng(29)
    worst_contrastive = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        anchor = rng.normal(size=dim)
        positive = rng.normal(size=dim)
        negatives = [rng.normal(size=dim) for _ in range(int(rng.integers(1, 8)))]
        tau = float(rng.uniform(0.05, 1.0))
        ours = contrastive_loss(anchor, positive, negatives, tau)
        pos = cosine_sim(anchor, positive)
        negs = [cosine_sim(anchor, n) for n in negatives]
        naive = -math.log(
            math.exp(pos / tau)
            / (math.exp(pos / tau) + sum(math.exp(s / tau) for s in negs))
        )
        worst_contrastive = max(worst_contrastive, abs(ours - naive))

    worst_softmax = 0.0
    for _ in range(100):
        logits = rng.normal(size=int(rng.integers(2, 12))) * 3.0
        gold = int(rng.integers(0, logits.size))
        proba = predict_proba(logits)
        direct = np.exp(logits) / np.exp(logits).sum()
        worst_softmax = max(worst_softmax, float(np.max(np.abs(proba - direct))))
        ce_direct = -math.log(direct[gold])
        ce_ours = -math.log(proba[gold])
        worst_softmax = max(worst_softmax, abs(ce_ours - ce_direct))

    _report(
        2, "loss oracle",
        worst_contrastive <= 1e-10 and worst_softmax <= 1e-12,
        f"contrastive {worst_contrastive:.2e}, softmax/ce {worst_softmax:.2e}",
    )


def random_graph(
    num_nodes: int, rng: np.random.Generator, dim: int = 8
) -> tuple[ReasoningGraph, np.ndarray]:
    neighbors = [[i] for i in range(num_nodes)]
    for i in range(1, num_nodes):
        j = int(rng.integers(0, i))
        neighbors[i].append(j)
        neighbors[j].append(i)
    for _ in range(num_nodes):
        a, b = rng.integers(0, num_nodes, size=2)
        a, b = int(a), int(b)
        if a != b and b not in neighbors[a]:
            neighbors[a].append(b)
            neighbors[b].append(a)
    graph = ReasoningGraph([FactNode(f"n{i}") for i in range(num_nodes)], neighbors)
    return graph, rng.normal(size=(num_nodes, dim)) * 1.5


def test_criterion_3_normalization():
    rng = np.random.default_rng(31)
    worst_attention = 1.0
    for num_nodes in range(3, 51):
        graph, features = random_graph(num_nodes, rng)
        params = GatParams.initialize(dim=8, heads=2, seed=num_nodes)
        collected = []
        gat_forward(graph, features, params, collect_attention=collected)
        assert len(collected) == 4
        for _, _, alpha in collected:
            assert np.all(alpha >= 0.0)
            for node in range(num_nodes):
                total = alpha[graph.edge_src == node].sum()
                worst_attention = min(worst_attention, 2.0 - abs(total - 1.0))
                assert abs(total - 1.0) <= 1e-9

    worst_proba = 0.0
    for size in range(1, 51):
        proba = predict_proba(rng.normal(size=size) * 10.0)
        worst_proba = max(worst_proba, abs(float(proba.sum()) - 1.0))
    _report(
        3, "normalization", worst_proba <= 1e-9,
        f"graphs 3-50 nodes, both layers/all heads; proba dev {worst_proba:.1e}",
    )


def test_criterion_4_hand_computed_fixtures():
    # metrics example: golds [A,A,B,B], preds [A,B,B,B]
    r = report([0, 0, 1, 1], [0, 1, 1, 1], 2)
    metrics_ok = (
        abs(r.acc - 0.75) <= 1e-9
        and abs(r.mp - (1.0 + 2.0 / 3.0) / 2.0) <= 1e-9
        and abs(r.mr - 0.75) <= 1e-9
        and abs(r.f1 - (2.0 / 3.0 + 0.8) / 2.0) <= 1e-9
        and abs(r.mp - 0.83333) <= 5e-6
        and abs(r.f1 - 0.73333) <= 5e-6
    )

    # Adam first step: t 0 -> 1, g = 1, theta = 0, defaults
    params, _ = adam_step(
        {"w": np.array([0.0])}, {"w": np.array([1.0])},
        AdamState.initialize({"w": np.array([0.0])}, learning_rate=0.01),
    )
    adam_ok = abs(params["w"][0] - (-0.01)) <= 1e-6

    # 1-case graph, identity projections, zero scoring vectors: each node
    # becomes ELU(mean of its neighborhood), twice
    from lexjudge import Corpus, build_graph

    corpus = Corpus.from_records([
        {"id": "c0", "fact": "f", "labels": {"imprisonment": "m", "charge": "c", "article": "a"}}
    ])
    graph = build_graph(corpus)
    features = np.array([[0.5, -0.25], [0.2, 0.1], [-0.4, 0.3], [0.1, -0.2]])
    layer = lambda combine: LayerParams(np.eye(2)[None], np.zeros((1, 4)), combine)
    params2 = GatParams([layer("concat"), layer("average")])

    def elu(x):
        return x if x > 0 else math.exp(x) - 1.0

    def hand_layer(feats):
        return [
            [elu(sum(feats[j][d] for j in neigh) / len(neigh)) for d in (0, 1)]
            for neigh in graph.neighbors
        ]

    expected = hand_layer(hand_layer(features.tolist()))
    forward_dev = float(np.max(np.abs(gat_forward(graph, features, params2) - np.array(expected))))
    _report(
        4, "hand-computed fixtures",
        metrics_ok and adam_ok and forward_dev <= 1e-9,
        f"metrics {metrics_ok}, adam {adam_ok}, graph dev {forward_dev:.1e}",
    )


def test_criterion_5_lexicon_tracing_golden(
    tmp_path, trace_corpus_path, lexicon_path, golden_clues_path
):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "version": 1,
            "paths": {
                "corpus": str(trace_corpus_path),
                "lexicon": str(lexicon_path),
                "output_dir": str(tmp_path),
            },
        }),
        encoding="utf-8",
    )
    out = tmp_path / "clues.jsonl"
    code = main(["trace", "--config", str(config), "--out", str(out)])
    with open(golden_clues_path, "rb") as fh:
        golden = fh.read()
    identical = out.read_bytes() == golden

    rows = [json.loads(line) for line in golden.decode("utf-8").strip().split("\n")]
    provenances = [p for row in rows for p in row["provenance"].values()]
    fuzzy_rows = [
        row for row in rows if "fuzzy" in row["provenance"].values()
    ]
    fallback_present = any("fallback_area" in row["provenance"].values() for row in rows)
    # the one fuzzy case is a single substitution scoring >= 0.9
    fuzzy_ok = len(fuzzy_rows) == 1 and (
        fuzzy_score(fuzzy_rows[0]["action"], "secretly took the wallet") >= 0.9
    )
    exact_count = sum(1 for p in provenances if p == "exact")
    _report(
        5, "lexicon-tracing golden corpus",
        code == 0 and identical and len(rows) == 20 and fuzzy_ok and fallback_present,
        f"byte-identical {identical}, {exact_count} exact fields, "
        f"1 fuzzy, fallback {fallback_present}",
    )


def test_criterion_6_desk_scale_end_to_end():
    seed = 4242
    graph_epochs = 250  # <= 300
    started = time.perf_counter()
    corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=50, seed=2024)
    result = run_pipeline(
        corpus,
        lexicon=lexicon,
        anchors=anchors,
        split_spec=SplitSpec(0.8, seed=derive(seed, "split")),
        encoder_params=HashedEncoderParams.initialize(
            output_dim=64, bucket_count=2048, seed=derive(seed, "encoder")
        ),
        contrastive_cfg=ContrastiveConfig(
            epochs=10, negatives_per_anchor=7,
            dropout=DropoutSpec(rate=0.1, seed=derive(seed, "dropout")),
            seed=derive(seed, "contrastive"),
        ),
        train_cfg=TrainConfig(epochs=graph_epochs, seed=seed, heads=4),
    )
    elapsed = time.perf_counter() - started
    sizes = (len(result.train), len(result.validation), len(result.test))
    train_reports = evaluate_model(result.model, result.train)
    test_reports = evaluate_model(result.model, result.test)
    train_acc = min(r.acc for r in train_reports.values())
    test_charge_acc = test_reports[Task.CHARGE].acc
    _report(
        6, "desk-scale end-to-end",
        sizes == (120, 15, 15)
        and train_acc >= 0.95
        and test_charge_acc >= 0.90
        and elapsed < 60.0,
        f"split {sizes}, train acc {train_acc:.3f}, "
        f"test charge acc {test_charge_acc:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_ablation_direction():
    corpus, lexicon, anchors = synth.confusable_corpus(cases_per_charge=30, seed=77)
    epochs = 80
    seeds = (101, 202, 303, 404, 505)

    def run(seed, use_clue, use_graph):
        result = run_pipeline(
            corpus,
            lexicon=lexicon,
            anchors=anchors,
            split_spec=SplitSpec(0.8, seed=derive(seed, "split")),
            encoder_params=HashedEncoderParams.initialize(
                output_dim=32, bucket_count=1024, seed=derive(seed, "encoder")
            ),
            contrastive_cfg=ContrastiveConfig(
                epochs=8, negatives_per_anchor=7,
                dropout=DropoutSpec(rate=0.1, seed=derive(seed, "dropout")),
                seed=derive(seed, "contrastive"),
            ),
            train_cfg=TrainConfig(
                epochs=epochs, seed=seed, heads=4,
                use_clue_tracing=use_clue, use_graph=use_graph,
            ),
        )
        reports = evaluate_model(result.model, result.test)
        return float(np.mean([r.f1 for r in reports.values()]))

    full = [run(seed, True, True) for seed in seeds]
    no_graph = [run(seed, True, False) for seed in seeds]
    no_clue = [run(seed, False, True) for seed in seeds]
    mean_full = float(np.mean(full))
    mean_no_graph = float(np.mean(no_graph))
    mean_no_clue = float(np.mean(no_clue))
    _report(
        7, "ablation direction",
        mean_full >= mean_no_graph and mean_full >= mean_no_clue,
        f"full {mean_full:.4f} >= no_graph {mean_no_graph:.4f} "
        f"and >= no_clue {mean_no_clue:.4f} (5 pinned seeds)",
    )


def test_criterion_8_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    lexicon_path = tmp_path / "lexicon.json"
    records = synth.separable_records(cases_per_charge=6, seed=5)
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    _, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=5)
    doc = lexicon.to_dict()
    doc["sections"] = {
        "statement": anchors.statement, "date": anchors.date,
        "location": anchors.location, "process": anchors.process,
    }
    lexicon_path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")

    def run_once(out_dir):
        out_dir.mkdir()
        config = tmp_path / f"{out_dir.name}.json"
        config.write_text(
            json.dumps({
                "version": 1,
                "seed": 12345,
                "paths": {
                    "corpus": str(corpus_path),
                    "lexicon": str(lexicon_path),
                    "output_dir": str(out_dir),
                },
                "split": {"train_fraction": 0.8, "seed": 6},
                "encoder": {"output_dim": 16, "bucket_count": 256},
                "contrastive": {"epochs": 3, "negatives_per_anchor": 4},
                "train": {"epochs": 15, "heads": 4},
            }),
            encoding="utf-8",
        )
        assert main(["train", "--config", str(config)]) == 0
        return out_dir

    first = run_once(tmp_path / "run1")
    second = run_once(tmp_path / "run2")
    compared = {}
    for name in ("checkpoint.json", "metrics_val.json", "metrics_val.tsv",
                 "loss_log.tsv", "attention.tsv", "embeddings.tsv"):
        compared[name] = (first / name).read_bytes() == (second / name).read_bytes()
    _report(
        8, "determinism",
        all(compared.values()),
        "byte-identical: " + ", ".join(k for k, v in compared.items() if v),
    )


def test_criterion_9_permutation_equivariance():
    rng = np.random.default_rng(47)
    worst = 0.0
    for trial, (num_nodes, heads) in enumerate([(5, 2), (12, 2), (30, 4), (50, 4)]):
        graph, features = random_graph(num_nodes, rng)
        params = GatParams.initialize(dim=8, heads=heads, seed=trial)
        out = gat_forward(graph, features, params)
        perm = rng.permutation(num_nodes)
        inverse = np.argsort(perm)
        permuted = ReasoningGraph(
            [graph.nodes[i] for i in inverse],
            [[int(perm[j]) for j in graph.neighbors[i]] for i in inverse],
        )
        out_perm = gat_forward(permuted, features[inverse], params)
        worst = max(worst, float(np.max(np.abs(out_perm - out[inverse]))))
    _report(
        9, "permutation equivariance", worst <= 1e-9,
        f"max deviation {worst:.2e} over 4 random graphs",
    )
