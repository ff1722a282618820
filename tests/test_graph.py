import math

import numpy as np
import pytest

from lexjudge import (
    Corpus,
    DataError,
    GatParams,
    HashedEncoderParams,
    ReasoningGraph,
    Task,
    build_graph,
    gat_forward,
    case_clues,
    encode_fact,
    featurize,
    init_features,
)
from lexjudge.encoder import project_features
from lexjudge import autodiff as ad
from lexjudge.autodiff import Tensor
from lexjudge.graph import (
    FactNode,
    LabelNode,
    LayerParams,
    attention_export,
    gat_forward_tensors,
    node_name,
)
from lexjudge.trainer import stage3_objective

import synth
from gat_reference import (
    aggregate_node,
    attention_row,
    edge_logit,
    gat_forward_reference,
    graph_loss_reference,
)
from gradcheck import worst_gradient_error


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


def star_graph(neighbors) -> ReasoningGraph:
    return ReasoningGraph([FactNode(f"n{i}") for i in range(len(neighbors))], neighbors)


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


def encoded(corpus, clue_sets, params):
    """Fact vectors and per-task label-vector matrices from the hashed encoder."""
    facts = np.stack([encode_fact(clues, params) for clues in clue_sets])
    labels = {
        task: np.stack([
            project_features(featurize(s, params), params) for s in corpus.vocab(task).entries
        ])
        for task in Task
    }
    return facts, labels


class TestInitFeatures:
    def test_matches_direct_encoder_calls(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=2, seed=4)
        clue_sets = [case_clues(case, lexicon, anchors, 0.8, True) for case in corpus]
        params = HashedEncoderParams.initialize(output_dim=8, bucket_count=128, seed=1)
        graph = build_graph(corpus)
        features = init_features(graph, *encoded(corpus, clue_sets, params))
        assert features.shape == (graph.num_nodes, 8)
        assert not hasattr(graph, "features")
        for i, clues in enumerate(clue_sets):
            assert np.array_equal(features[i], encode_fact(clues, params))
        for task in Task:
            vocab = corpus.vocab(task)
            for row, node_idx in zip(
                range(vocab.size), graph.label_indices(task)
            ):
                expected = project_features(featurize(vocab.surface(row), params), params)
                assert np.array_equal(features[node_idx], expected)

    def test_zero_projection_zero_features(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=4)
        clue_sets = [case_clues(case, lexicon, anchors, 0.8, True) for case in corpus]
        params = HashedEncoderParams(
            projection=np.zeros((4, 64)), bias=np.zeros(4), bucket_count=64
        )
        features = init_features(build_graph(corpus), *encoded(corpus, clue_sets, params))
        assert not features.any()

    def test_one_input_per_fact_node_required(self):
        corpus, lexicon, anchors = synth.separable_corpus(cases_per_charge=1, seed=4)
        clue_sets = [case_clues(case, lexicon, anchors, 0.8, True) for case in corpus]
        params = HashedEncoderParams.initialize(output_dim=4, bucket_count=64, seed=1)
        facts, labels = encoded(corpus, clue_sets, params)
        with pytest.raises(DataError, match="2 fact inputs for 3 fact nodes"):
            init_features(build_graph(corpus), facts[:2], labels)


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
        graph = star_graph([[0, 1, 2], [1, 0], [2, 0]])
        features = np.array([[1.0], [2.0], [3.0]])
        weights = attention_row(graph, features, np.array([[1.0]]), np.zeros(2), 0)
        np.testing.assert_allclose(weights, [1 / 3] * 3, atol=1e-12)

    def test_ln2_zero_logits(self):
        graph = star_graph([[0, 1], [1, 0]])
        features = np.array([[math.log(2.0)], [0.0]])
        weights = attention_row(graph, features, np.array([[1.0]]), np.array([0.0, 1.0]), 0)
        np.testing.assert_allclose(weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        graph = star_graph([[0, 1, 2, 3], [1, 0], [2, 0], [3, 0]])
        features = rng.normal(size=(4, 3))
        W, omega = rng.normal(size=(2, 3)), rng.normal(size=4)
        for node in range(4):
            weights = attention_row(graph, features, W, omega, node)
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)


class TestAggregateNode:
    def test_uniform_mean_of_projections(self):
        graph = star_graph([[0, 1], [1, 0]])
        features = np.array([[2.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(
            aggregate_node(graph, features, np.eye(2), np.zeros(4), 0), [1.0, 1.0], atol=1e-12
        )

    def test_elu_on_negative_preactivation(self):
        graph, features = star_graph([[0]]), np.array([[-1.0]])
        np.testing.assert_allclose(
            aggregate_node(graph, features, np.eye(1), np.zeros(2), 0),
            [math.exp(-1.0) - 1.0],
            atol=1e-12,
        )

    def test_identity_on_self_loop_only(self):
        graph, features = star_graph([[0]]), np.array([[0.7, -0.3]])
        expected = np.array([0.7, math.exp(-0.3) - 1.0])
        np.testing.assert_allclose(
            aggregate_node(graph, features, np.eye(2), np.ones(4), 0), expected, atol=1e-12
        )


def random_instance(seed, n_cases=4, dim=8, heads=2):
    rng = np.random.default_rng(seed)
    charges = ["x", "y", "z"]
    records = [
        rec(i, charges[i % 3], f"a{i % 2}", imprisonment=f"m{i % 2}")
        for i in range(n_cases)
    ]
    corpus = mini_corpus(records)
    graph = build_graph(corpus)
    features = rng.normal(size=(graph.num_nodes, dim)) * 0.7
    params = GatParams.initialize(dim=dim, heads=heads, seed=seed)
    return corpus, graph, features, params


class TestGatForward:
    def test_vectorized_matches_reference(self):
        for seed in (0, 1, 2):
            _, graph, features, params = random_instance(seed)
            fast = gat_forward(graph, features, params)
            slow = gat_forward_reference(graph, features, params)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_output_dim_matches_encoder_dim(self):
        _, graph, features, params = random_instance(3, dim=8, heads=4)
        assert gat_forward(graph, features, params).shape == (graph.num_nodes, 8)

    def test_zero_omega_gives_uniform_attention(self):
        _, graph, features, params = random_instance(4)
        for layer in params.layers:
            layer.omega = np.zeros_like(layer.omega)
        collected = []
        gat_forward(graph, features, params, collect_attention=collected)
        for _, _, alpha in collected:
            for node in range(graph.num_nodes):
                mask = graph.edge_src == node
                np.testing.assert_allclose(
                    alpha[mask], 1.0 / mask.sum(), atol=1e-12
                )

    def test_attention_rows_stochastic_all_layers_heads(self):
        _, graph, features, params = random_instance(5)
        collected = []
        gat_forward(graph, features, params, collect_attention=collected)
        assert len(collected) == 4  # 2 layers x 2 heads
        for _, _, alpha in collected:
            assert np.all(alpha >= 0)
            for node in range(graph.num_nodes):
                assert alpha[graph.edge_src == node].sum() == pytest.approx(1.0, abs=1e-9)

    def test_permutation_equivariance(self):
        _, graph, features, params = random_instance(6)
        rng = np.random.default_rng(99)
        perm = rng.permutation(graph.num_nodes)
        inverse = np.argsort(perm)
        permuted = ReasoningGraph(
            [graph.nodes[i] for i in inverse],
            [[int(perm[j]) for j in graph.neighbors[i]] for i in inverse],
        )
        out = gat_forward(graph, features, params)
        out_perm = gat_forward(permuted, features[inverse], params)
        np.testing.assert_allclose(out_perm, out[inverse], atol=1e-9)

    def test_layer1_locality(self):
        _, graph, features, params = random_instance(7)
        single_layer = GatParams([params.layers[0]])
        base = gat_forward_reference(graph, features, single_layer)
        target = 0  # a fact node
        touched = features.copy()
        touched[target] = touched[target] + 3.0
        after = gat_forward_reference(graph, touched, single_layer)
        for node in range(graph.num_nodes):
            changed = not np.allclose(base[node], after[node], atol=1e-12)
            assert changed == (target in graph.neighbors[node])

    def test_non_finite_features_abort_with_diagnostic(self):
        _, graph, features, params = random_instance(8)
        features[0, 0] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            gat_forward(graph, features, params)

    def test_hand_computed_one_case_two_layer_forward(self):
        corpus = mini_corpus([rec(0, "c", "a")])
        graph = build_graph(corpus)
        features = np.array([[0.5, -0.25], [0.2, 0.1], [-0.4, 0.3], [0.1, -0.2]])
        identity_layer = lambda combine: LayerParams(np.eye(2)[None], np.zeros((1, 4)), combine)
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

        expected = layer(layer(features.tolist()))
        np.testing.assert_allclose(gat_forward(graph, features, params), expected, atol=1e-9)


def bench_shaped_instance(seed, dim=64, heads=4):
    """The benchmark fit recipe's graph: 120 facts and three labels per task,
    129 nodes and 867 edges, 387 of them into a label node."""
    records = [
        rec(i, f"c{i % 3}", f"a{(i // 3) % 3}", imprisonment=f"m{(i // 9) % 3}")
        for i in range(120)
    ]
    corpus = mini_corpus(records)
    graph = build_graph(corpus)
    features = np.random.default_rng(seed).normal(size=(graph.num_nodes, dim)) * 0.7
    return corpus, graph, features, GatParams.initialize(dim=dim, heads=heads, seed=seed)


def reordered(graph: ReasoningGraph, order) -> ReasoningGraph:
    """The same graph with node k of the result being node ``order[k]``."""
    position = np.argsort(order)
    return ReasoningGraph(
        [graph.nodes[i] for i in order],
        [[int(position[j]) for j in graph.neighbors[i]] for i in order],
    )


def label_nodes(graph: ReasoningGraph) -> np.ndarray:
    return np.array(
        [i for i, node in enumerate(graph.nodes) if isinstance(node, LabelNode)], dtype=np.intp
    )


class TestLabelOnlyLastLayer:
    """Stage-3 training computes the last layer only for label nodes; the
    rows must equal those of the full pass whatever the node order."""

    @pytest.fixture(scope="class")
    def bench_graphs(self):
        corpus, graph, features, params = bench_shaped_instance(17)
        assert (graph.num_nodes, len(graph.edge_src)) == (129, 867)
        assert np.isin(graph.edge_src, label_nodes(graph)).sum() == 387
        order = np.random.default_rng(5).permutation(graph.num_nodes)
        shuffled = reordered(graph, order)
        labels = label_nodes(shuffled)
        assert labels[0] < 100 and labels[-1] < graph.num_nodes - 1  # labels not last
        return corpus, params, {
            "bench order": (graph, features),
            "labels interleaved": (shuffled, features[order]),
        }

    @pytest.mark.parametrize("name", ["bench order", "labels interleaved"])
    def test_label_rows_equal_the_full_pass(self, bench_graphs, name):
        _, params, graphs = bench_graphs
        graph, features = graphs[name]
        receivers = label_nodes(graph)
        partial, _ = gat_forward_tensors(features, graph, params, receivers=receivers)
        full = gat_forward(graph, features, params)
        assert partial.shape == (len(receivers), params.output_dim)
        np.testing.assert_allclose(partial, full[receivers], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["bench order", "labels interleaved"])
    def test_receivers_in_any_order_give_the_full_pass_rows(self, bench_graphs, name):
        """Stage 3 passes the label nodes task by task. The label-only last
        layer aggregates before it projects, so its rows round apart from
        the full pass's: they equal them within the tolerance above, and
        every order of the same receivers gives the same rows bit for
        bit."""
        _, params, graphs = bench_graphs
        graph, features = graphs[name]
        full = gat_forward(graph, features, params)
        in_task_order = np.concatenate([graph.label_indices(task) for task in Task])
        rows, _ = gat_forward_tensors(features, graph, params, receivers=in_task_order)
        np.testing.assert_allclose(rows, full[in_task_order], rtol=0, atol=1e-12)
        reverse = np.arange(len(in_task_order))[::-1]
        shuffled = np.random.default_rng(8).permutation(len(in_task_order))
        for order in (reverse, shuffled):
            partial, _ = gat_forward_tensors(
                features, graph, params, receivers=in_task_order[order]
            )
            assert np.array_equal(partial, rows[order])

    def test_block_product_goes_through_t_matmul(self, bench_graphs, monkeypatch):
        """The block product sums over every node's row, so it is one of
        the products ``autodiff.t_matmul`` pads; its bits then hold at any
        BLAS thread count (``tests/test_blas_threads.py``)."""
        _, params, graphs = bench_graphs
        graph, features = graphs["labels interleaved"]
        receivers = label_nodes(graph)
        heads = params.layers[-1].W.shape[0]
        left_shapes = []
        t_matmul = ad.t_matmul

        def recording(a, b):
            left_shapes.append(a.shape)
            return t_matmul(a, b)

        monkeypatch.setattr(ad, "t_matmul", recording)
        gat_forward_tensors(features, graph, params, receivers=receivers)
        assert left_shapes == [(graph.num_nodes, heads * len(receivers))]

    def test_repeated_edge_counts_each_time(self):
        """A neighbourhood may list a node twice: the block adds both
        weights, as the full pass adds both messages."""
        graph = star_graph([[0, 1, 1, 2], [1, 0, 0], [2, 0]])
        features = np.random.default_rng(2).normal(size=(3, 4))
        params = GatParams.initialize(dim=4, heads=2, seed=3)
        receivers = np.array([1, 0])
        partial, _ = gat_forward_tensors(features, graph, params, receivers=receivers)
        full = gat_forward(graph, features, params)
        np.testing.assert_allclose(partial, full[receivers], rtol=0, atol=1e-12)

    def test_stage3_objective_independent_of_node_order(self, bench_graphs):
        corpus, params, graphs = bench_graphs
        hf = np.random.default_rng(3).normal(size=(len(corpus), params.output_dim)) * 0.5
        golds = {task: corpus.gold_ids(task) for task in Task}
        tasks = tuple(Task)
        theta = params.to_param_dict()
        loss_a, loss_b = (
            stage3_objective(
                theta, graph, golds, tasks, gat=params, fact_vectors=hf, nodes=features
            )
            for graph, features in graphs.values()
        )
        assert loss_b.value == pytest.approx(loss_a.value, abs=1e-12)
        g_a, g_b = loss_a.backward(), loss_b.backward()
        for key in theta:
            np.testing.assert_allclose(g_b[key], g_a[key], rtol=0, atol=1e-12)
        reference = graph_loss_reference(*graphs["labels interleaved"], params, hf, golds, tasks)
        assert loss_b.value == pytest.approx(reference, abs=1e-12)


class TestInvalidReceivers:
    """A receiver set that repeats a node or names one outside the graph
    is refused before any edge is planned."""

    def check(self, receivers, message):
        graph = star_graph([[0, 1, 2], [1, 0], [2, 0]])
        features = np.random.default_rng(0).normal(size=(3, 4))
        params = GatParams.initialize(dim=4, heads=2, seed=1)
        with pytest.raises(ValueError, match=message):
            gat_forward_tensors(features, graph, params, receivers=np.array(receivers))

    def test_duplicate_receivers_rejected(self):
        self.check([2, 2], "must not repeat a node")

    def test_negative_receivers_rejected(self):
        self.check([1, -1], r"node indices in \[0, 3\)")

    def test_out_of_range_receivers_rejected(self):
        self.check([0, 3], r"node indices in \[0, 3\)")

    def test_float_receivers_rejected(self):
        self.check([0.0, 1.0], "1-D integer array")

    def test_boolean_receivers_rejected(self):
        self.check([True, False, True], "1-D integer array")

    def test_two_dimensional_receivers_rejected(self):
        self.check([[0], [1]], "1-D integer array")

    def test_receiver_dtype_does_not_pick_another_plan(self):
        """Receivers of another integer dtype whose bytes begin like an
        earlier set's are a set of their own: int64 [1] is the first 8
        bytes of int32 [1, 0]."""
        graph = star_graph([[0, 1, 2], [1, 0], [2, 0]])
        features = np.random.default_rng(0).normal(size=(3, 4))
        params = GatParams.initialize(dim=4, heads=2, seed=1)

        def rows(receivers):
            return gat_forward_tensors(features, graph, params, receivers=receivers)[0]

        first = rows(np.array([1], dtype=np.int64))
        second = rows(np.array([1, 0], dtype=np.int32))
        assert second.shape == (2, 4)
        np.testing.assert_allclose(second[:1], first, rtol=0, atol=1e-12)
        assert np.array_equal(second, rows(np.array([1, 0], dtype=np.int64)))


class TestAttentionExport:
    def test_alphas_match_reference_attention_rows(self):
        _, graph, features, params = random_instance(9)
        layer_inputs = [
            features, gat_forward_reference(graph, features, GatParams(params.layers[:1]))
        ]
        expected = []
        for li, layer in enumerate(params.layers):
            for hi, (W, omega) in enumerate(zip(layer.W, layer.omega)):
                for node, neighbors in enumerate(graph.neighbors):
                    weights = attention_row(
                        graph, layer_inputs[li], W, omega, node, layer.leaky_slope
                    )
                    expected += [
                        (node_name(graph.nodes[node]), node_name(graph.nodes[j]), hi, li, w)
                        for j, w in zip(neighbors, weights)
                    ]
        collected = []
        gat_forward(graph, features, params, collect_attention=collected)
        rows = attention_export(graph, collected)
        assert [r[:4] for r in rows] == [e[:4] for e in expected]
        np.testing.assert_allclose(
            [r[4] for r in rows], [e[4] for e in expected], rtol=0, atol=1e-12
        )

    def test_receivers_pass_collects_every_layer(self):
        """A pass into some receivers collects both layers' attention, one
        weight per edge, and exports the full pass's rows bit for bit: the
        last layer's weights come from its projected endpoints alone, not
        from the receivers' messages."""
        _, graph, features, params = random_instance(9)
        full, partial = [], []
        gat_forward(graph, features, params, collect_attention=full)
        gat_forward_tensors(features, graph, params, partial, receivers=label_nodes(graph))
        assert [(layer, head) for layer, head, _ in partial] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(len(alpha) == len(graph.edge_src) for _, _, alpha in partial)
        assert attention_export(graph, partial) == attention_export(graph, full)

    def test_short_alpha_rejected(self):
        _, graph, features, params = random_instance(9)
        collected = []
        gat_forward(graph, features, params, collect_attention=collected)
        layer, head, alpha = collected[0]
        with pytest.raises(ValueError):
            attention_export(graph, [(layer, head, alpha[:-1])])


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
        features = rng.normal(size=(6, 8)) * 0.8
        params = GatParams.initialize(dim=8, heads=2, seed=7)
        hf = rng.normal(size=(3, 8)) * 0.8
        golds = {Task.CHARGE: [0, 1, 2]}
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
        assert worst_gradient_error(objective, theta, list(theta), 1e-4, reference) <= 1e-4


class TestReceiverLayerGradients:
    """The label-only last layer's closed-form backward against central
    differences, on its own and inside the stage-3 loss."""

    @pytest.mark.parametrize("combine", ["average", "concat"])
    @pytest.mark.parametrize("input_grad", [True, False], ids=["input grad", "no input grad"])
    def test_layer_matches_central_differences(self, combine, input_grad):
        """A one-layer pass into receivers out of node order (a fact and
        the label nodes, reversed), under a fixed linear loss."""
        _, graph, _, _ = random_instance(10, n_cases=4)
        rng = np.random.default_rng(31)
        receivers = np.concatenate([label_nodes(graph)[::-1], [1]])
        layer = LayerParams(
            rng.normal(size=(2, 3, 4)) * 0.8, rng.normal(size=(2, 6)) * 0.8, combine
        )
        params = GatParams([layer])
        weights = rng.normal(size=(len(receivers), layer.output_dim))
        theta = {"x": rng.normal(size=(graph.num_nodes, 4)), **params.to_param_dict()}

        def objective(theta):
            out, backward = gat_forward_tensors(
                theta["x"], graph, params.with_param_dict(theta), receivers=receivers
            )

            def grads():
                g_x, g_weights = backward(weights, input_grad)
                return {"x": g_x, **g_weights}

            return Tensor(float((out * weights).sum()), grads)

        assert (objective(theta).backward()["x"] is None) == (not input_grad)
        keys = [key for key in theta if input_grad or key != "x"]
        assert worst_gradient_error(objective, theta, keys, 1e-5) <= 1e-5

    @pytest.mark.parametrize(
        "tasks", [(Task.CHARGE,), (Task.ARTICLE, Task.CHARGE), (Task.IMPRISONMENT, Task.ARTICLE)],
        ids=["one task", "tasks out of node order", "one-label task"],
    )
    def test_stage3_matches_central_differences(self, tasks):
        """Every case shares one imprisonment label, so that task's block is
        a single row."""
        corpus = mini_corpus([rec(i, "xyz"[i % 3], f"a{i % 2}") for i in range(5)])
        assert corpus.vocab(Task.IMPRISONMENT).size == 1
        graph = build_graph(corpus)
        rng = np.random.default_rng(12)
        features = rng.normal(size=(graph.num_nodes, 4)) * 0.8
        hf = rng.normal(size=(len(corpus), 4)) * 0.8
        params = GatParams.initialize(dim=4, heads=2, seed=13)
        golds = {task: corpus.gold_ids(task) for task in Task}

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
        assert worst_gradient_error(objective, theta, list(theta), 1e-4, reference) <= 1e-4


class TestParamPlumbing:
    def test_param_dict_roundtrip(self):
        params = GatParams.initialize(dim=8, heads=2, seed=11)
        theta = params.to_param_dict()
        assert list(theta) == [
            "gat.layer0.W", "gat.layer0.omega", "gat.layer1.W", "gat.layer1.omega",
        ]
        rebuilt = params.with_param_dict(theta)
        for layer_a, layer_b in zip(params.layers, rebuilt.layers):
            assert np.array_equal(layer_a.W, layer_b.W)
            assert np.array_equal(layer_a.omega, layer_b.omega)

    def test_dim_must_divide_heads(self):
        with pytest.raises(ValueError):
            GatParams.initialize(dim=10, heads=4, seed=0)

    def test_layer_dims_must_compose(self):
        good = LayerParams(np.zeros((1, 2, 4)), np.zeros((1, 4)), "concat")
        bad = LayerParams(np.zeros((1, 4, 3)), np.zeros((1, 8)), "average")
        with pytest.raises(ValueError):
            GatParams([good, bad])

    def test_node_names(self):
        assert node_name(FactNode("c7")) == "fact:c7"
        assert node_name(LabelNode(Task.ARTICLE, 2)) == "label:article:2"
