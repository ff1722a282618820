import json
import math

import numpy as np
import pytest

import synth
from lexjudge import (
    AdamState,
    ConfigError,
    ContrastiveConfig,
    Corpus,
    DataError,
    DivergenceError,
    DropoutSpec,
    HashedEncoderParams,
    SplitSpec,
    Task,
    TASKS,
    TrainConfig,
    adam_step,
    evaluate_model,
    fit_model,
    load_checkpoint,
    load_lexicon,
    case_clues,
    predict_records,
    run_pipeline,
    save_checkpoint,
    total_loss,
)
from lexjudge.encoder import HashedEncoder, apply_dropout_noise
from lexjudge.graph import (
    FactNode, GatParams, LabelNode, ReasoningGraph, build_graph, init_features,
)
from lexjudge.rng import derive
from lexjudge.trainer import graph_objective, stage3_objective


def small_contrastive(epochs=3):
    return ContrastiveConfig(
        epochs=epochs, negatives_per_anchor=3,
        dropout=DropoutSpec(rate=0.1, seed=5), seed=6,
    )


def synth_corpus(cases_per_charge=6, seed=31):
    return synth.separable_corpus(cases_per_charge, seed=seed)


class TestAdam:
    def test_first_step_hand_example(self):
        params = {"w": np.array([0.0])}
        grads = {"w": np.array([1.0])}
        state = AdamState.initialize(params, learning_rate=0.01)
        new_params, new_state = adam_step(params, grads, state)
        # m_hat = 1, v_hat = 1 -> theta' = -0.01 / (1 + 1e-8)
        assert new_params["w"][0] == pytest.approx(-0.01, abs=1e-6)
        assert new_state.t == 1

    def test_zero_gradient_keeps_parameters(self):
        params = {"w": np.array([1.5, -2.0])}
        state = AdamState.initialize(params)
        new_params, _ = adam_step(params, {"w": np.zeros(2)}, state)
        assert np.array_equal(new_params["w"], params["w"])

    def test_deterministic(self):
        params = {"w": np.array([0.3, 0.7])}
        grads = {"w": np.array([0.1, -0.2])}
        state = AdamState.initialize(params, learning_rate=0.05)
        a, _ = adam_step(params, grads, state)
        b, _ = adam_step(params, grads, state)
        assert np.array_equal(a["w"], b["w"])

    def test_vanishing_learning_rate_leaves_parameters(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=(3, 4))}
        grads = {"w": rng.normal(size=(3, 4))}
        state = AdamState.initialize(params, learning_rate=1e-12)
        new_params, _ = adam_step(params, grads, state)
        assert np.max(np.abs(new_params["w"] - params["w"])) < 1e-9

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.initialize(params)
        with pytest.raises(DivergenceError):
            adam_step(params, {"w": np.array([np.nan, 0.0])}, state)

    def test_key_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        state = AdamState.initialize(params)
        with pytest.raises(ValueError):
            adam_step(params, {"v": np.zeros(2)}, state)


class TestTotalLoss:
    def test_perfect_one_hot_predictions(self):
        label_matrix = np.eye(3) * 50.0
        facts = np.eye(3)
        golds = {Task.CHARGE: [0, 1, 2]}
        loss = total_loss(facts, golds, {Task.CHARGE: label_matrix}, (Task.CHARGE,))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_three_tasks_closed_form(self):
        facts = np.zeros((2, 4))
        label_matrices = {
            Task.IMPRISONMENT: np.zeros((2, 4)),
            Task.CHARGE: np.zeros((3, 4)),
            Task.ARTICLE: np.zeros((4, 4)),
        }
        golds = {task: [0, 0] for task in TASKS}
        loss = total_loss(facts, golds, label_matrices, TASKS)
        assert loss == pytest.approx(
            math.log(2) + math.log(3) + math.log(4), abs=1e-12
        )

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(4)
        facts = rng.normal(size=(5, 4))
        label_matrices = {Task.CHARGE: rng.normal(size=(3, 4))}
        golds = {Task.CHARGE: list(rng.integers(0, 3, size=5))}
        ours = total_loss(facts, golds, label_matrices, (Task.CHARGE,))
        expected = 0.0
        for i in range(5):
            scores = [
                sum(facts[i][d] * label_matrices[Task.CHARGE][k][d] for d in range(4))
                for k in range(3)
            ]
            z = sum(math.exp(s) for s in scores)
            expected += -math.log(math.exp(scores[golds[Task.CHARGE][i]]) / z)
        expected /= 5
        assert ours == pytest.approx(expected, abs=1e-12)


class TestFitModel:
    def test_loss_decreases_first_10_epochs_most_seeds(self):
        corpus, lexicon, anchors = synth_corpus()
        params = HashedEncoderParams.initialize(output_dim=16, bucket_count=256, seed=1)
        wins = 0
        for seed in (11, 22, 33, 44, 55):
            result = fit_model(
                corpus,
                encoder_params=params,
                lexicon=lexicon,
                anchors=anchors,
                contrastive_cfg=small_contrastive(epochs=0),
                train_cfg=TrainConfig(epochs=10, seed=seed, heads=4),
            )
            graph_losses = [v for stage, _, v in result.loss_log if stage == "graph"]
            wins += graph_losses[-1] < graph_losses[0]
        assert wins >= 4

    def test_zero_epochs_still_produces_model(self):
        corpus, lexicon, anchors = synth_corpus(cases_per_charge=2)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        result = fit_model(
            corpus,
            encoder_params=params,
            lexicon=lexicon,
            anchors=anchors,
            contrastive_cfg=small_contrastive(epochs=0),
            train_cfg=TrainConfig(epochs=0, seed=0),
        )
        assert set(result.model.label_matrices) == set(TASKS)
        reports = evaluate_model(result.model, corpus)
        assert all(0.0 <= r.acc <= 1.0 for r in reports.values())

    def test_all_toggles_off_runs_end_to_end(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=3, seed=13)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        result = fit_model(
            corpus,
            encoder_params=params,
            lexicon=lexicon,
            anchors=anchors,
            contrastive_cfg=small_contrastive(),
            train_cfg=TrainConfig(
                epochs=3, seed=0,
                use_clue_tracing=False, use_contrastive=False, use_graph=False,
            ),
        )
        stages = {stage for stage, _, _ in result.loss_log}
        assert stages == {"label_finetune"}
        assert result.model.gat is None
        assert evaluate_model(result.model, corpus)

    def test_unfrozen_encoder_trains(self):
        corpus, lexicon, anchors = synth_corpus(cases_per_charge=3)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        result = fit_model(
            corpus,
            encoder_params=params,
            lexicon=lexicon,
            anchors=anchors,
            contrastive_cfg=small_contrastive(epochs=0),
            train_cfg=TrainConfig(
                epochs=4, seed=3, freeze_encoder_after_contrastive=False,
                dropout_rate=0.2,
            ),
        )
        assert not np.array_equal(result.model.encoder_params.projection, params.projection)

    def test_minibatch_path(self):
        corpus, lexicon, anchors = synth_corpus(cases_per_charge=4)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        result = fit_model(
            corpus,
            encoder_params=params,
            lexicon=lexicon,
            anchors=anchors,
            contrastive_cfg=small_contrastive(epochs=0),
            train_cfg=TrainConfig(epochs=4, seed=3, batch_size=5),
        )
        assert len([1 for s, _, _ in result.loss_log if s == "graph"]) == 4

    def test_stage_error_names_stage(self):
        corpus, lexicon, anchors = synth_corpus(cases_per_charge=1)  # 3 cases
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        with pytest.raises(ConfigError, match="stage contrastive"):
            fit_model(
                corpus,
                encoder_params=params,
                lexicon=lexicon,
                anchors=anchors,
                contrastive_cfg=small_contrastive(epochs=2),  # 3 negatives vs 3 cases
                train_cfg=TrainConfig(epochs=1, seed=0),
            )

    def test_backend_exclusivity(self):
        corpus, _, _ = synth_corpus(cases_per_charge=2)
        with pytest.raises(ConfigError):
            fit_model(corpus, train_cfg=TrainConfig(epochs=1))

    def test_threshold_out_of_range_is_a_config_error(self, monkeypatch):
        corpus, lexicon, anchors = synth_corpus(cases_per_charge=2)
        traced = []
        monkeypatch.setattr("lexjudge.trainer.extract_clues", lambda *a: traced.append(a))
        with pytest.raises(ConfigError, match="threshold"):
            fit_model(
                corpus,
                encoder_params=HashedEncoderParams.initialize(output_dim=8, bucket_count=64),
                lexicon=lexicon,
                anchors=anchors,
                threshold=1.5,
                train_cfg=TrainConfig(epochs=1),
            )
        assert traced == []  # rejected before stage 1


class TestRunPipeline:
    def test_epochs_zero_pipeline_emits_valid_artifacts(self, tmp_path):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=5, seed=3)
        result = run_pipeline(
            corpus,
            lexicon=lexicon,
            anchors=anchors,
            split_spec=SplitSpec(0.8, seed=4),
            encoder_params=HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1),
            contrastive_cfg=small_contrastive(epochs=0),
            train_cfg=TrainConfig(epochs=0, seed=0),
        )
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, result.model, result.optimizer_state)
        model, optimizer = load_checkpoint(path)
        assert model.dim == 8
        assert result.metrics  # chance-level but well-formed
        assert json.loads(path.read_text())["meta"]["backend"] == "hashed"

    def test_split_sizes_consistent(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=5, seed=3)
        result = run_pipeline(
            corpus,
            lexicon=lexicon,
            anchors=anchors,
            split_spec=SplitSpec(0.8, seed=4),
            encoder_params=HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1),
            contrastive_cfg=small_contrastive(epochs=1),
            train_cfg=TrainConfig(epochs=1, seed=0),
        )
        assert len(result.train) == 12
        assert len(result.validation) == 2
        assert len(result.test) == 1

    def test_predict_records_cover_each_case_once_per_task(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=4, seed=3)
        result = run_pipeline(
            corpus,
            lexicon=lexicon,
            anchors=anchors,
            split_spec=SplitSpec(0.8, seed=4),
            encoder_params=HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1),
            contrastive_cfg=small_contrastive(epochs=1),
            train_cfg=TrainConfig(epochs=2, seed=0),
        )
        rows = predict_records(result.model, result.test)
        assert len(rows) == len(result.test) * 3
        for task in TASKS:
            ids = [r["id"] for r in rows if r["task"] == task.value]
            assert sorted(ids) == sorted(result.test.ids())
        for row in rows:
            assert sum(row["proba"]) == pytest.approx(1.0, abs=1e-9)


class TestEvaluateVocabulary:
    """Gold labels are matched to the model's vocabulary by surface, so the
    evaluated corpus's own first-occurrence order does not matter."""

    @pytest.fixture(scope="class")
    def fixture_model(self, trace_corpus_path, lexicon_path):
        lexicon, anchors = load_lexicon(lexicon_path)
        with open(trace_corpus_path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        model = fit_model(
            Corpus.from_records(records),
            encoder_params=HashedEncoderParams.initialize(output_dim=16, bucket_count=256, seed=1),
            lexicon=lexicon,
            anchors=anchors,
            contrastive_cfg=small_contrastive(epochs=3),
            train_cfg=TrainConfig(epochs=25, seed=11),
        ).model
        return model, records

    def test_reversed_order_gives_the_same_reports(self, fixture_model):
        model, records = fixture_model
        forward = Corpus.from_records(records)
        backward = Corpus.from_records(records[::-1])
        assert backward.vocab(Task.CHARGE).entries != forward.vocab(Task.CHARGE).entries
        assert evaluate_model(model, backward) == evaluate_model(model, forward)

    def test_gold_surface_unknown_to_the_model_is_named(self, fixture_model):
        model, records = fixture_model
        extra = dict(records[0], id="extra")
        extra["labels"] = dict(extra["labels"], charge="arson")
        with pytest.raises(DataError, match="charge labels unknown to the model: \\['arson'\\]"):
            evaluate_model(model, Corpus.from_records(records + [extra]))


class TestCheckpointRoundtrip:
    def test_roundtrip_preserves_total_loss_exactly(self, tmp_path):
        corpus, lexicon, anchors = synth_corpus(cases_per_charge=3)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        result = fit_model(
            corpus,
            encoder_params=params,
            lexicon=lexicon,
            anchors=anchors,
            contrastive_cfg=small_contrastive(epochs=2),
            train_cfg=TrainConfig(epochs=3, seed=9),
        )
        model = result.model
        facts = np.stack([model.fact_vector(case) for case in corpus])
        golds = {task: corpus.gold_ids(task) for task in TASKS}
        before = total_loss(facts, golds, model.label_matrices, TASKS)

        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, model, result.optimizer_state)
        reloaded, optimizer_doc = load_checkpoint(path)
        facts2 = np.stack([reloaded.fact_vector(case) for case in corpus])
        after = total_loss(facts2, golds, reloaded.label_matrices, TASKS)
        assert before == after  # exact: shortest round-trip decimal serialization
        assert optimizer_doc["t"] == 3

    def test_gat_params_roundtrip_exact(self, tmp_path):
        corpus, lexicon, anchors = synth_corpus(cases_per_charge=2)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=64, seed=1)
        result = fit_model(
            corpus,
            encoder_params=params,
            lexicon=lexicon,
            anchors=anchors,
            contrastive_cfg=small_contrastive(epochs=0),
            train_cfg=TrainConfig(epochs=2, seed=9, heads=2),
        )
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, result.model)
        reloaded, _ = load_checkpoint(path)
        for layer_a, layer_b in zip(result.model.gat.layers, reloaded.gat.layers):
            for head_a, head_b in zip(layer_a.heads, layer_b.heads):
                assert np.array_equal(head_a.W, head_b.W)
                assert np.array_equal(head_a.omega, head_b.omega)


class TestPrecomputedBackend:
    def test_swapping_backends_reproduces_the_hashed_run(self, tmp_path):
        """With the table seeded from the post-contrastive encoder outputs,
        the precomputed pipeline must follow the exact same graph-stage
        trajectory as the hashed one."""
        from lexjudge import load_embedding_table
        from lexjudge.encoder import label_key

        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=5, seed=8)
        split_spec = SplitSpec(0.8, seed=14)
        train_cfg = TrainConfig(epochs=12, seed=77, heads=4)
        hashed = run_pipeline(
            corpus,
            lexicon=lexicon,
            anchors=anchors,
            split_spec=split_spec,
            encoder_params=HashedEncoderParams.initialize(
                output_dim=16, bucket_count=256, seed=1
            ),
            contrastive_cfg=small_contrastive(epochs=3),
            train_cfg=train_cfg,
        )
        model = hashed.model
        backend = model.backend()
        table_path = tmp_path / "embeddings.tsv"
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(f"#dim {model.dim}\n")
            for case in corpus:
                vec = model.fact_vector(case)
                fh.write(case.id + "\t" + " ".join(repr(float(v)) for v in vec) + "\n")
            for task in TASKS:
                vocab = corpus.vocab(task)
                for label_id in range(vocab.size):
                    vec = backend.label_vector(task, label_id, vocab.surface(label_id))
                    fh.write(
                        label_key(task, label_id) + "\t"
                        + " ".join(repr(float(v)) for v in vec) + "\n"
                    )

        precomputed = run_pipeline(
            corpus,
            table=load_embedding_table(table_path),
            embeddings_path=str(table_path),
            split_spec=split_spec,
            contrastive_cfg=small_contrastive(epochs=3),
            train_cfg=train_cfg,
        )
        hashed_graph_losses = [v for s, _, v in hashed.loss_log if s == "graph"]
        precomputed_losses = [v for s, _, v in precomputed.loss_log if s == "graph"]
        assert precomputed_losses == hashed_graph_losses
        for task in TASKS:
            assert np.array_equal(
                precomputed.model.label_matrices[task], model.label_matrices[task]
            )
            assert precomputed.metrics[task].acc == hashed.metrics[task].acc
        # nothing trainable to pre-train
        assert not [s for s, _, _ in precomputed.loss_log if s == "contrastive"]


class TestTrainConfigValidation:
    def test_tasks_non_empty(self):
        with pytest.raises(ValueError):
            TrainConfig(tasks=())

    def test_negative_epochs(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)

    @pytest.mark.parametrize("rate", [1.0, -0.5])
    def test_dropout_rate_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="dropout_rate"):
            TrainConfig(dropout_rate=rate)


def stage3_instance(seed=123):
    """3 fact nodes + 3 charge-label nodes, dim 8, 2 heads per layer, with
    12-bucket encoder inputs for the unfrozen variant."""
    rng = np.random.default_rng(seed)
    nodes = [FactNode(f"f{i}") for i in range(3)] + [
        LabelNode(Task.CHARGE, i) for i in range(3)
    ]
    neighbors = [
        [0, 3], [1, 4], [2, 5],
        [3, 0, 4, 5], [4, 1, 3, 5], [5, 2, 3, 4],
    ]
    graph = ReasoningGraph(nodes, neighbors)
    graph.features = rng.normal(size=(6, 8)) * 0.8
    gat = GatParams.initialize(dim=8, heads=2, seed=7)
    encoder = {
        "encoder.projection": rng.normal(size=(8, 12)) * 0.3,
        "encoder.bias": rng.normal(size=8) * 0.1,
    }
    features = rng.uniform(0.0, 1.0, size=(6, 12))
    return graph, gat, encoder, features, {Task.CHARGE: [0, 1, 2]}


def worst_gradient_error(objective, theta, keys, step=1e-4):
    """Largest relative error of the analytic gradient of ``objective``
    against central differences, over every entry of ``keys``
    (criterion 1's measure)."""
    _, grads = objective(theta, True)
    worst = 0.0
    for key in keys:
        flat = theta[key].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + step
            up, _ = objective(theta, False)
            flat[i] = original - step
            down, _ = objective(theta, False)
            flat[i] = original
            numeric = (up - down) / (2 * step)
            rel = abs(grads[key].reshape(-1)[i] - numeric) / max(abs(numeric), 1e-6)
            worst = max(worst, rel)
    return worst


class TestStage3Objective:
    tasks = (Task.CHARGE,)

    def test_unfrozen_encoder_gradients_with_fixed_dropout_mask(self):
        graph, gat, encoder, features, golds = stage3_instance()
        view = apply_dropout_noise(features[:3], DropoutSpec(rate=0.2, seed=21))
        theta = {**gat.to_param_dict(), **{k: v.copy() for k, v in encoder.items()}}

        def objective(theta, with_grads):
            return stage3_objective(
                theta, graph, golds, self.tasks, gat=gat,
                encoder_inputs=(view, features[3:]), with_grads=with_grads,
            )

        assert worst_gradient_error(objective, theta, list(encoder)) <= 1e-4

    def test_minibatch_row_gradients(self):
        graph, gat, _, _, golds = stage3_instance()
        hf = np.random.default_rng(5).normal(size=(3, 8)) * 0.8
        theta = gat.to_param_dict()
        rows = np.array([0, 2], dtype=np.intp)

        def objective(theta, with_grads):
            return stage3_objective(
                theta, graph, golds, self.tasks, gat=gat, fact_vectors=hf,
                rows=rows, with_grads=with_grads,
            )

        assert worst_gradient_error(objective, theta, list(theta)) <= 1e-4
        full, _ = stage3_objective(theta, graph, golds, self.tasks, gat=gat, fact_vectors=hf)
        batch, _ = objective(theta, False)
        assert batch != full

    def test_label_finetune_gradients(self):
        graph, _, _, _, golds = stage3_instance()
        rng = np.random.default_rng(6)
        hf = rng.normal(size=(3, 8)) * 0.8
        theta = {"labels.charge": rng.normal(size=(3, 8)) * 0.5}

        def objective(theta, with_grads):
            return stage3_objective(
                theta, graph, golds, self.tasks, fact_vectors=hf, with_grads=with_grads
            )

        assert worst_gradient_error(objective, theta, list(theta)) <= 1e-4
        expected = total_loss(hf, golds, {Task.CHARGE: theta["labels.charge"]}, self.tasks)
        assert objective(theta, False)[0] == pytest.approx(expected, abs=1e-12)

    def test_fit_model_logs_the_checked_objective(self):
        """The first graph loss of a frozen, full-batch fit is
        graph_objective's value on the same graph, parameters and golds."""
        corpus, lexicon, anchors = synth_corpus(cases_per_charge=3)
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        train_cfg = TrainConfig(epochs=2, seed=3, heads=2)
        result = fit_model(
            corpus,
            encoder_params=params,
            lexicon=lexicon,
            anchors=anchors,
            contrastive_cfg=small_contrastive(epochs=0),
            train_cfg=train_cfg,
        )
        clue_sets = [case_clues(case, lexicon, anchors, 0.8, True) for case in corpus]
        graph = init_features(
            build_graph(corpus), HashedEncoder(params), corpus.vocabs, clue_sets
        )
        gat = GatParams.initialize(8, 2, derive(train_cfg.seed, "gat-init"), 0.2)
        golds = {task: corpus.gold_ids(task) for task in TASKS}
        value, _ = graph_objective(
            graph, gat, graph.features[: len(corpus)], golds, TASKS, with_grads=False
        )
        first = next(v for stage, _, v in result.loss_log if stage == "graph")
        assert first == value
