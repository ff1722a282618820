import math

import numpy as np
import pytest

from lexjudge import (
    Corpus,
    DataError,
    GatParams,
    HashedEncoder,
    HashedEncoderParams,
    ReasoningGraph,
    Task,
    aggregate_node,
    attention_row,
    build_graph,
    edge_logit,
    gat_forward,
    gat_forward_reference,
    graph_objective,
    graph_loss_reference,
    case_clues,
    init_features,
)
from lexjudge.graph import FactNode, HeadParams, LabelNode, LayerParams, node_name

import synth


def mini_corpus(records):
    return Corpus.from_records(records)


def rec(i, charge, article, imprisonment="m"):
    return {
        "id": f"c{i}",
        "fact": "fact text",
        "labels": {"imprisonment": imprisonment, "charge": charge, "article": article},
    }


def undirected_edges(graph: ReasoningGraph) -> set[tuple[int, int]]:
    return {
        (min(i, j), max(i, j))
        for i, ns in enumerate(graph.neighbors)
        for j in ns
        if i != j
    }


def star_graph(features: np.ndarray, neighbors) -> ReasoningGraph:
    nodes = [FactNode(f"n{i}") for i in range(len(neighbors))]
    graph = ReasoningGraph(nodes, neighbors)
    graph.features = np.asarray(features, dtype=np.float64)
    return graph


class TestBuildGraph:
    def test_two_case_schema_counts(self):
        # 2 cases sharing a charge, distinct articles, same imprisonment:
        # 2 fact nodes + 4 label nodes; 6 fact-label edges + 1 article pair
        corpus = mini_corpus([rec(0, "c", "a1"), rec(1, "c", "a2")])
        graph = build_graph(corpus)
        assert graph.num_nodes == 6
        assert len(undirected_edges(graph)) == 7

    def test_one_case_minimal_graph(self):
        corpus = mini_corpus([rec(0, "c", "a")])
        graph = build_graph(corpus)
        assert graph.num_nodes == 4
        assert undirected_edges(graph) == {(0, 1), (0, 2), (0, 3)}
        assert all(i in graph.neighbors[i] for i in range(4))

    def test_deterministic_adjacency(self):
        corpus_a = mini_corpus([rec(0, "x", "a"), rec(1, "y", "b"), rec(2, "x", "a")])
        corpus_b = mini_corpus([rec(0, "x", "a"), rec(1, "y", "b"), rec(2, "x", "a")])
        assert build_graph(corpus_a).neighbors == build_graph(corpus_b).neighbors

    def test_node_order_facts_then_labels(self):
        corpus = mini_corpus([rec(0, "x", "a"), rec(1, "y", "b")])
        graph = build_graph(corpus)
        assert isinstance(graph.nodes[0], FactNode)
        assert isinstance(graph.nodes[1], FactNode)
        kinds = [n.task for n in graph.nodes[2:]]
        assert kinds == sorted(kinds, key=[t for t in Task].index)

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_graph(Corpus([], mini_corpus([rec(0, "x", "a")]).vocabs))

    def test_missing_reverse_rejected(self):
        with pytest.raises(ValueError, match="reverse"):
            ReasoningGraph([FactNode("a"), FactNode("b")], [[0, 1], [1]])

    def test_missing_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            ReasoningGraph([FactNode("a")], [[]])


class TestInitFeatures:
    def test_matches_direct_encoder_calls(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=2, seed=4)
        clue_sets = [case_clues(case, lexicon, anchors, 0.8, True) for case in corpus]
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        backend = HashedEncoder(params)
        graph = build_graph(corpus)
        init_features(graph, backend, corpus.vocabs, clue_sets)
        for i, clues in enumerate(clue_sets):
            assert np.array_equal(graph.features[i], backend.fact_vector(clues))
        for task in Task:
            vocab = corpus.vocab(task)
            for row, node_idx in zip(
                range(vocab.size), graph.label_indices(task)
            ):
                expected = backend.label_vector(task, row, vocab.surface(row))
                assert np.array_equal(graph.features[node_idx], expected)

    def test_zero_projection_zero_features(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=4)
        clue_sets = [case_clues(case, lexicon, anchors, 0.8, True) for case in corpus]
        params = HashedEncoderParams(
            projection=np.zeros((4, 64)), bias=np.zeros(4), bucket_count=64
        )
        graph = init_features(
            build_graph(corpus), HashedEncoder(params), corpus.vocabs, clue_sets
        )
        assert not graph.features.any()

    def test_one_input_per_fact_node_required(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=4)
        clue_sets = [case_clues(case, lexicon, anchors, 0.8, True) for case in corpus]
        params = HashedEncoderParams.initialize(output_dim=4, bucket_count=64, seed=1)
        with pytest.raises(DataError, match="2 fact inputs for 3 fact nodes"):
            init_features(
                build_graph(corpus), HashedEncoder(params), corpus.vocabs, clue_sets[:2]
            )


class TestEdgeLogit:
    def test_positive_passthrough(self):
        assert edge_logit([1.0, 1.0], [1.0], [1.0], slope=0.2) == pytest.approx(2.0)

    def test_negative_scaled_by_slope(self):
        assert edge_logit([1.0, 0.0], [-1.0], [5.0], slope=0.2) == pytest.approx(-0.2)

    def test_concat_arithmetic(self):
        value = edge_logit([1.0, 0.0, 0.0, 1.0], [2.0, 3.0], [4.0, 5.0], slope=0.2)
        assert value == pytest.approx(7.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            edge_logit([1.0, 2.0, 3.0], [1.0], [1.0])


class TestAttentionRow:
    def test_uniform_logits_give_uniform_weights(self):
        graph = star_graph(
            np.array([[1.0], [2.0], [3.0]]),
            [[0, 1, 2], [1, 0], [2, 0]],
        )
        head = HeadParams(W=np.array([[1.0]]), omega=np.zeros(2))
        weights = attention_row(graph, head, 0)
        np.testing.assert_allclose(weights, [1 / 3] * 3, atol=1e-12)

    def test_ln2_zero_logits(self):
        graph = star_graph(
            np.array([[math.log(2.0)], [0.0]]), [[0, 1], [1, 0]]
        )
        head = HeadParams(W=np.array([[1.0]]), omega=np.array([0.0, 1.0]))
        weights = attention_row(graph, head, 0)
        np.testing.assert_allclose(weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        graph = star_graph(rng.normal(size=(4, 3)), [[0, 1, 2, 3], [1, 0], [2, 0], [3, 0]])
        head = HeadParams(W=rng.normal(size=(2, 3)), omega=rng.normal(size=4))
        for node in range(4):
            assert attention_row(graph, head, node).sum() == pytest.approx(1.0, abs=1e-9)


class TestAggregateNode:
    def test_uniform_mean_of_projections(self):
        graph = star_graph(np.array([[2.0, 0.0], [0.0, 2.0]]), [[0, 1], [1, 0]])
        head = HeadParams(W=np.eye(2), omega=np.zeros(4))
        np.testing.assert_allclose(aggregate_node(graph, head, 0), [1.0, 1.0], atol=1e-12)

    def test_elu_on_negative_preactivation(self):
        graph = star_graph(np.array([[-1.0]]), [[0]])
        head = HeadParams(W=np.eye(1), omega=np.zeros(2))
        np.testing.assert_allclose(
            aggregate_node(graph, head, 0), [math.exp(-1.0) - 1.0], atol=1e-12
        )

    def test_identity_on_self_loop_only(self):
        graph = star_graph(np.array([[0.7, -0.3]]), [[0]])
        head = HeadParams(W=np.eye(2), omega=np.ones(4))
        expected = np.array([0.7, math.exp(-0.3) - 1.0])
        np.testing.assert_allclose(aggregate_node(graph, head, 0), expected, atol=1e-12)


def random_instance(seed, n_cases=4, dim=8, heads=2):
    rng = np.random.default_rng(seed)
    charges = ["x", "y", "z"]
    records = [
        rec(i, charges[i % 3], f"a{i % 2}", imprisonment=f"m{i % 2}")
        for i in range(n_cases)
    ]
    corpus = mini_corpus(records)
    graph = build_graph(corpus)
    graph.features = rng.normal(size=(graph.num_nodes, dim)) * 0.7
    params = GatParams.initialize(dim=dim, heads=heads, seed=seed)
    return corpus, graph, params


class TestGatForward:
    def test_vectorized_matches_reference(self):
        for seed in (0, 1, 2):
            _, graph, params = random_instance(seed)
            fast = gat_forward(graph, params)
            slow = gat_forward_reference(graph, params)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_output_dim_matches_encoder_dim(self):
        _, graph, params = random_instance(3, dim=8, heads=4)
        assert gat_forward(graph, params).shape == (graph.num_nodes, 8)

    def test_zero_omega_gives_uniform_attention(self):
        _, graph, params = random_instance(4)
        for layer in params.layers:
            for head in layer.heads:
                head.omega = np.zeros_like(head.omega)
        collected = []
        gat_forward(graph, params, collect_attention=collected)
        for _, _, alpha in collected:
            for node in range(graph.num_nodes):
                mask = graph.edge_src == node
                np.testing.assert_allclose(
                    alpha[mask], 1.0 / mask.sum(), atol=1e-12
                )

    def test_attention_rows_stochastic_all_layers_heads(self):
        _, graph, params = random_instance(5)
        collected = []
        gat_forward(graph, params, collect_attention=collected)
        assert len(collected) == 4  # 2 layers x 2 heads
        for _, _, alpha in collected:
            assert np.all(alpha >= 0)
            for node in range(graph.num_nodes):
                assert alpha[graph.edge_src == node].sum() == pytest.approx(1.0, abs=1e-9)

    def test_permutation_equivariance(self):
        _, graph, params = random_instance(6)
        rng = np.random.default_rng(99)
        perm = rng.permutation(graph.num_nodes)
        inverse = np.argsort(perm)
        permuted = ReasoningGraph(
            [graph.nodes[i] for i in inverse],
            [[int(perm[j]) for j in graph.neighbors[i]] for i in inverse],
        )
        permuted.features = graph.features[inverse]
        out = gat_forward(graph, params)
        out_perm = gat_forward(permuted, params)
        np.testing.assert_allclose(out_perm, out[inverse], atol=1e-9)

    def test_layer1_locality(self):
        _, graph, params = random_instance(7)
        single_layer = GatParams([params.layers[0]])
        base = gat_forward_reference(graph, single_layer)
        target = 0  # a fact node
        touched = graph.features.copy()
        touched[target] = touched[target] + 3.0
        moved = ReasoningGraph(graph.nodes, graph.neighbors)
        moved.features = touched
        after = gat_forward_reference(moved, single_layer)
        for node in range(graph.num_nodes):
            changed = not np.allclose(base[node], after[node], atol=1e-12)
            assert changed == (target in graph.neighbors[node])

    def test_non_finite_features_abort_with_diagnostic(self):
        _, graph, params = random_instance(8)
        graph.features[0, 0] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            gat_forward(graph, params)

    def test_hand_computed_one_case_two_layer_forward(self):
        corpus = mini_corpus([rec(0, "c", "a")])
        graph = build_graph(corpus)
        graph.features = np.array(
            [[0.5, -0.25], [0.2, 0.1], [-0.4, 0.3], [0.1, -0.2]]
        )
        identity_layer = lambda combine: LayerParams(
            [HeadParams(W=np.eye(2), omega=np.zeros(4))], combine
        )
        params = GatParams([identity_layer("concat"), identity_layer("average")])

        def elu(x):
            return x if x > 0 else math.exp(x) - 1.0

        def layer(feats):
            out = []
            for neigh in graph.neighbors:
                mean = [
                    sum(feats[j][d] for j in neigh) / len(neigh) for d in (0, 1)
                ]
                out.append([elu(mean[0]), elu(mean[1])])
            return out

        expected = layer(layer(graph.features.tolist()))
        np.testing.assert_allclose(gat_forward(graph, params), expected, atol=1e-9)


class TestGraphGradients:
    def test_analytic_matches_central_differences(self):
        # 6 nodes (3 facts + 3 charge labels), dim 8, 2 heads per layer
        rng = np.random.default_rng(123)
        nodes = [FactNode(f"f{i}") for i in range(3)] + [
            LabelNode(Task.CHARGE, i) for i in range(3)
        ]
        neighbors = [
            [0, 3], [1, 4], [2, 5],
            [3, 0, 4, 5], [4, 1, 3, 5], [5, 2, 3, 4],
        ]
        graph = ReasoningGraph(nodes, neighbors)
        assert graph.num_nodes == 6
        graph.features = rng.normal(size=(6, 8)) * 0.8
        params = GatParams.initialize(dim=8, heads=2, seed=7)
        hf = rng.normal(size=(3, 8)) * 0.8
        golds = {Task.CHARGE: [0, 1, 2]}
        tasks = (Task.CHARGE,)

        value, grads = graph_objective(graph, params, hf, golds, tasks)
        reference = graph_loss_reference(graph, params, hf, golds, tasks)
        assert value == pytest.approx(reference, abs=1e-12)

        theta = params.to_param_dict()
        step = 1e-4
        worst = 0.0
        for key, matrix in theta.items():
            flat = matrix.reshape(-1)
            grad_flat = grads[key].reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                up = graph_loss_reference(
                    graph, params.with_param_dict(theta), hf, golds, tasks
                )
                flat[i] = original - step
                down = graph_loss_reference(
                    graph, params.with_param_dict(theta), hf, golds, tasks
                )
                flat[i] = original
                numeric = (up - down) / (2 * step)
                rel = abs(grad_flat[i] - numeric) / max(abs(numeric), 1e-6)
                worst = max(worst, rel)
        assert worst <= 1e-4


class TestParamPlumbing:
    def test_param_dict_roundtrip(self):
        params = GatParams.initialize(dim=8, heads=2, seed=11)
        rebuilt = params.with_param_dict(params.to_param_dict())
        for layer_a, layer_b in zip(params.layers, rebuilt.layers):
            for head_a, head_b in zip(layer_a.heads, layer_b.heads):
                assert np.array_equal(head_a.W, head_b.W)
                assert np.array_equal(head_a.omega, head_b.omega)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            GatParams.initialize(dim=10, heads=4, seed=0)

    def test_layer_dims_must_compose(self):
        good = LayerParams([HeadParams(W=np.zeros((2, 4)), omega=np.zeros(4))], "concat")
        bad = LayerParams([HeadParams(W=np.zeros((4, 3)), omega=np.zeros(8))], "average")
        with pytest.raises(ValueError):
            GatParams([good, bad])

    def test_node_names(self):
        assert node_name(FactNode("c7")) == "fact:c7"
        assert node_name(LabelNode(Task.ARTICLE, 2)) == "label:article:2"
