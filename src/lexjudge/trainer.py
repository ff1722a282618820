"""Joint training: Adam optimization of the graph attention parameters
against the summed per-task cross-entropies, with the staged pipeline
(clue tracing, contrastive pre-training, graph-enhanced training) and the
ablation toggles.

Stage 1 has one call path, ``case_clues``, which never writes to a case.
Inference-time fact vectors always come from the encoder; the graph only
propagates case semantics into the label nodes, and unseen cases never
join the transductive graph. With ``use_graph=False`` the per-task label
matrices themselves are fine-tuned under the same loss, starting from the
encoded label surface texts. ``stage3_objective`` runs the forward steps
(encoder, graph, one cross-entropy per task) and returns the loss handle,
whose backward runs their closed-form backward steps in a written-out
order, so its gradients are summed in the same order on every run.
``descend`` is the one training loop: contrastive pre-training and
stage 3 each pass it an objective that builds one epoch's loss handle.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import encoder
from .clues import ClueSet, Lexicon, SectionAnchors, extract_clues, full_text_clues
from .contrastive import ContrastiveConfig, train_contrastive
from .corpus import Corpus, CriminalCase, LabelVocab, SplitSpec, Task, TASKS, split
from .encoder import (
    DropoutSpec,
    EmbeddingTable,
    HashedEncoderParams,
    HashedRows,
    clue_text,
    encode_fact,
    label_key,
    tanh_projection,
)
from .errors import ConfigError, DataError, DivergenceError, LexjudgeError
from .graph import (
    GatParams,
    ReasoningGraph,
    attention_export,
    build_graph,
    gat_forward_tensors,
    init_features,
)
from .metrics import MetricsReport, report
# ``bench/spans.py`` wraps ``predict_proba`` by this module's name; prediction
# itself reads the checked rows through ``softmax``.
from .predictor import best_label, predict_proba, score_case, softmax, softmax_cross_entropy
from .rng import SplitMix64, derive
from .validation import check_positive, check_seed, check_threshold, check_unit_rate


@dataclass(frozen=True, eq=False)
class AdamState:
    """First/second moments per parameter, step counter and learning rate;
    β1, β2 and ε are fixed class constants."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    learning_rate: float = 0.01
    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    eps: ClassVar[float] = 1e-8

    @classmethod
    def initialize(
        cls, params: Mapping[str, np.ndarray], learning_rate: float = 0.01
    ) -> "AdamState":
        zeros = {k: np.zeros_like(np.asarray(p, dtype=np.float64)) for k, p in params.items()}
        return cls(m=zeros, v={k: z.copy() for k, z in zeros.items()},
                   learning_rate=learning_rate)


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update; returns new parameters and the advanced state.

    An entry whose gradient is exactly 0 on every step keeps its value bit
    for bit: its moments stay 0, so its step is 0. Contrastive training
    therefore steps only the projection columns that some row touches."""
    if set(params) != set(grads) or set(params) != set(state.m):
        raise ValueError("params, grads, and state must share the same keys")
    t = state.t + 1
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    for key, theta in params.items():
        theta = np.asarray(theta, dtype=np.float64)
        g = np.asarray(grads[key], dtype=np.float64)
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape mismatch for {key!r}")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for {key!r}")
        # in place on fresh arrays, in the operation order of
        # theta - lr * m_hat / (sqrt(v_hat) + eps)
        m = state.m[key] * state.beta1
        m += (1.0 - state.beta1) * g
        v = state.v[key] * state.beta2
        g2 = (1.0 - state.beta2) * g
        g2 *= g
        v += g2
        step = m / (1.0 - state.beta1 ** t)
        step *= state.learning_rate
        denom = v / (1.0 - state.beta2 ** t)
        np.sqrt(denom, out=denom)
        denom += state.eps
        step /= denom
        new_params[key] = theta - step
        new_m[key] = m
        new_v[key] = v
    return new_params, replace(state, m=new_m, v=new_v, t=t)


def descend(
    objective: Callable[[dict[str, np.ndarray], int], ad.Tensor],
    theta: dict[str, np.ndarray], epochs: int, learning_rate: float, what: str,
) -> tuple[dict[str, np.ndarray], AdamState, list[float]]:
    """The one training loop: per epoch, ``objective(theta, epoch)`` builds
    the loss handle and one Adam step follows its gradients. Returns the
    final parameters, the optimizer state and the loss entering each
    epoch; a non-finite loss raises ``DivergenceError`` naming ``what``
    before its backward steps run."""
    state = AdamState.initialize(theta, learning_rate=learning_rate)
    values: list[float] = []
    for epoch in range(epochs):
        loss = objective(theta, epoch)
        if not np.isfinite(loss.value):
            raise DivergenceError(f"{what} diverged at epoch {epoch}")
        values.append(loss.value)
        grads = loss.backward()
        del loss  # its closures hold the epoch's forward arrays; free them before the step
        theta, state = adam_step(theta, grads, state)
    return theta, state, values


@dataclass(frozen=True)
class TrainConfig:
    """Stage-3 configuration and the ablation toggles.

    The defaults document the reference recipe (5000 epochs, learning rate
    0.01); desk-scale runs override epochs. ``dropout_rate`` applies to the
    hashed fact features only when the encoder is unfrozen during stage 3.
    """

    epochs: int = 5000
    learning_rate: float = 0.01
    seed: int = 0
    tasks: tuple[Task, ...] = TASKS
    use_clue_tracing: bool = True
    use_contrastive: bool = True
    use_graph: bool = True
    freeze_encoder: bool = True
    heads: int = 4
    leaky_slope: float = 0.2
    batch_size: int | None = None
    dropout_rate: float = 0.5

    def __post_init__(self):
        names = [task.value for task in TASKS]
        for task in self.tasks:
            if task not in TASKS and task not in names:
                raise ValueError(f"unknown task {task!r}; tasks: {names}")
        object.__setattr__(self, "tasks", tuple(map(Task, self.tasks)))
        if not self.tasks:
            raise ValueError("tasks must be non-empty")
        if len(set(self.tasks)) != len(self.tasks):
            raise ValueError(f"tasks must not repeat a task, got {[t.value for t in self.tasks]}")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        check_positive(self.learning_rate, "learning_rate")
        if not np.isfinite(self.leaky_slope):
            raise ValueError(f"leaky_slope must be finite, got {self.leaky_slope}")
        if self.heads < 1:
            raise ValueError("heads must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when set")
        check_unit_rate(self.dropout_rate, "dropout_rate")
        object.__setattr__(self, "seed", check_seed(self.seed))


def graph_label_matrices(
    nodes: np.ndarray, graph: ReasoningGraph, gat: GatParams, tasks: Sequence[Task],
    collect: list | None = None,
) -> tuple[dict[Task, np.ndarray], Callable]:
    """Each task's enhanced label matrix from the graph pass over the node
    matrix ``nodes``, and the pass's backward. The loss reads only label
    rows, so the last layer computes only the label nodes of ``tasks``,
    task by task: each task's matrix is one block of its output. Given
    ``collect``, the pass appends every layer's attention over every edge
    to it, as ``gat_forward_tensors`` does."""
    blocks = [graph.label_indices(task) for task in tasks]
    receivers = np.concatenate(blocks)
    out, backward = gat_forward_tensors(nodes, graph, gat, collect=collect, receivers=receivers)
    ends = np.cumsum([len(block) for block in blocks])
    return dict(zip(tasks, np.split(out, ends[:-1]))), backward


def stage3_objective(
    theta: Mapping[str, np.ndarray],
    graph: ReasoningGraph,
    golds: Mapping[Task, Sequence[int]],
    tasks: Sequence[Task],
    *,
    gat: GatParams | None = None,
    fact_vectors: np.ndarray | None = None,
    nodes: np.ndarray | None = None,
    encoder_inputs: np.ndarray | None = None,
    rows: np.ndarray | None = None,
) -> ad.Tensor:
    """Sum over ``tasks`` of the batch-mean cross-entropy of case-label dot
    products, as a loss handle whose ``backward()`` gives the gradient of
    every entry of ``theta``.

    Labels are the graph forward pass's label rows when ``gat`` gives the
    layer structure, with ``theta``'s ``gat.*`` weights, else
    ``theta["labels.<task>"]``. Cases are the frozen ``fact_vectors``, with
    the (N, d) node matrix ``nodes`` feeding the graph, or, given
    ``encoder_inputs``, the rows of one ``tanh_projection`` step through
    ``theta``'s ``encoder.projection``/``encoder.bias``: hashed rows in
    ``build_graph``'s node order, the facts first (one per gold id), then,
    when ``gat`` is set, the labels task by task in vocabulary order, the
    step's output being the node matrix. ``rows``, distinct case indices,
    selects the minibatch.

    The gradients of ``graph_label_matrices``' blocks, concatenated, are
    its output's gradient. The backward steps run in a fixed order, and
    each sum adds in task order: every task's cross-entropy, the graph,
    and the encoder step, whose output's gradient is the graph's node
    gradient (zeros without the graph) with the tasks' fact gradient added
    at the fact rows, or at the minibatch's rows."""
    unfrozen = encoder_inputs is not None
    facts = fact_vectors
    if unfrozen:
        # over every column: the input is its own block
        nodes, project = tanh_projection(
            encoder_inputs, encoder_inputs, theta["encoder.projection"], theta["encoder.bias"]
        )
        facts = nodes[: len(golds[tasks[0]])]
    if gat is None:
        label_mats = {task: theta[f"labels.{task.value}"] for task in tasks}
    else:
        label_mats, graph_backward = graph_label_matrices(
            nodes, graph, gat.with_param_dict(theta), tasks
        )
    batch = facts if rows is None else facts[rows]
    values, g_scores = [], []
    for task in tasks:
        ids = np.asarray(golds[task], dtype=np.intp)
        term, g = softmax_cross_entropy(
            batch @ label_mats[task].T, ids if rows is None else ids[rows]
        )
        values.append(term)
        g_scores.append(g)

    def backward():
        grads = {}
        g_labels = {task: ad.t_matmul(batch, g).T for task, g in zip(tasks, g_scores)}
        if gat is None:
            grads.update((f"labels.{task.value}", g) for task, g in g_labels.items())
        else:
            g_nodes, gat_grads = graph_backward(np.concatenate(list(g_labels.values())), unfrozen)
            grads.update(gat_grads)
        if unfrozen:
            if gat is None:
                g_nodes = np.zeros(nodes.shape)
            # the rows are distinct, so each row's gradient is added once
            g_nodes[slice(len(facts)) if rows is None else rows] += reduce(
                operator.add, [g @ label_mats[t] for t, g in zip(tasks, g_scores)]
            )
            grads["encoder.projection"], grads["encoder.bias"] = project(g_nodes)
        return {key: grads[key] for key in theta}

    return ad.Tensor(float(reduce(operator.add, values)), backward)


def case_clues(
    case: CriminalCase,
    lexicon: Lexicon | None,
    anchors: SectionAnchors | None,
    threshold: float,
    use_clue_tracing: bool,
) -> ClueSet:
    """The stage-1 clue set of one case, which is left unchanged. With
    tracing disabled the full fact text stands in for all three clues."""
    if not use_clue_tracing:
        return full_text_clues(case.fact_text)
    if lexicon is None:
        raise ConfigError("clue tracing requires a lexicon")
    return extract_clues(case, lexicon, threshold, anchors)


@dataclass(eq=False)
class FittedModel:
    """Everything needed to score unseen cases against the enhanced labels;
    ``fact_vector`` traces each case afresh and stores nothing on it.

    The encoder is exactly one of ``encoder_params`` (hashed backend) or
    ``table`` (precomputed backend); ``dim``, ``backend_kind`` and
    ``embeddings_path`` derive from it. ``tasks`` is non-empty, and each
    of its tasks has a vocabulary and, once any label matrices exist (a
    pre-trained encoder has none), a finite (vocabulary size, ``dim``)
    matrix; a violation raises ``ValueError``. The GAT parameters stay in
    training: unseen cases never join the graph, so scoring reads only the
    label matrices.
    The toggles, ``heads`` and ``leaky_slope`` are provenance: they record
    how the labels were trained."""

    tasks: tuple[Task, ...]
    vocabs: dict[Task, LabelVocab]
    label_matrices: dict[Task, np.ndarray]
    encoder_params: HashedEncoderParams | None
    lexicon: Lexicon | None
    anchors: SectionAnchors | None
    threshold: float
    use_clue_tracing: bool
    use_contrastive: bool
    use_graph: bool
    heads: int
    leaky_slope: float
    seed: int
    table: EmbeddingTable | None = None

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("a model needs at least one task")
        if (self.encoder_params is None) == (self.table is None):
            raise ValueError("a model needs exactly one encoder: hashed parameters or a table")
        for task in self.tasks:
            if task not in self.vocabs:
                raise ValueError(f"task {task.value} has no vocabulary")
            if self.label_matrices and task not in self.label_matrices:
                raise ValueError(f"task {task.value} has no label matrix")
        for task, matrix in self.label_matrices.items():
            if task not in self.vocabs:
                raise ValueError(f"{task.value} label matrix has no vocabulary")
            expected = (self.vocabs[task].size, self.dim)
            if matrix.shape != expected:
                raise ValueError(
                    f"{task.value} label matrix has shape {matrix.shape}, expected "
                    f"{expected} (vocabulary size, encoder dimension)"
                )
            if not np.all(np.isfinite(matrix)):
                raise ValueError(f"{task.value} label matrix contains non-finite values")

    @property
    def dim(self) -> int:
        if self.encoder_params is not None:
            return self.encoder_params.output_dim
        return self.table.dim

    @property
    def backend_kind(self) -> str:
        return "hashed" if self.encoder_params is not None else "precomputed"

    @property
    def embeddings_path(self) -> str | None:
        """The file the embedding table was read from, if it was read from one."""
        return self.table.path if self.table is not None else None

    def fact_vector(self, case: CriminalCase) -> np.ndarray:
        if self.encoder_params is None:
            return self.table[case.id]
        clues = case_clues(
            case, self.lexicon, self.anchors, self.threshold, self.use_clue_tracing
        )
        return encode_fact(clues, self.encoder_params)

    def score_rows(self, corpus: Corpus, tasks: Sequence[Task]) -> dict[Task, list[np.ndarray]]:
        """The one scoring loop: per task of ``tasks``, each case's scores
        against the task's label matrix, in corpus order. Each case is
        traced and encoded once, and its rows are computed one product at
        a time; ``score_case`` checks each row as it makes it, and
        ``__post_init__`` checked the label matrices, so each row may be
        read unchecked."""
        rows: dict[Task, list[np.ndarray]] = {task: [] for task in tasks}
        for case in corpus:
            hf = self.fact_vector(case)
            for task, task_rows in rows.items():
                task_rows.append(score_case(hf, self.label_matrices[task]))
        return rows


@dataclass(eq=False)
class FitResult:
    """A fit's outputs. ``fact_vectors`` holds each training case's final
    fact vector, in corpus order: the fact rows of the node matrix the
    final label matrices were computed from."""

    model: FittedModel
    loss_log: list[tuple[str, int, float]]
    attention: list[tuple]
    optimizer_state: AdamState | None
    fact_vectors: np.ndarray


@contextmanager
def _stage(name: str):
    try:
        yield
    except LexjudgeError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def fit_model(
    train_corpus: Corpus,
    *,
    encoder_params: HashedEncoderParams | None = None,
    table: EmbeddingTable | None = None,
    lexicon: Lexicon | None = None,
    anchors: SectionAnchors | None = None,
    threshold: float = 0.8,
    contrastive_cfg: ContrastiveConfig | None = None,
    train_cfg: TrainConfig | None = None,
) -> FitResult:
    """Run stages 1 to 3 on a training corpus.

    Exactly one of ``encoder_params`` (hashed backend) or ``table``
    (precomputed backend) must be given. On the hashed backend stage 1
    traces each training case once into a clue set, and the encoder's
    input is each clue text and label surface featurized once; the
    precomputed backend looks cases up by id and skips the contrastive
    stage, having no trainable encoder.
    """
    train_cfg = train_cfg or TrainConfig()
    contrastive_cfg = contrastive_cfg or ContrastiveConfig()
    if (encoder_params is None) == (table is None):
        raise ConfigError("exactly one of encoder_params or table must be given")
    if len(train_corpus) == 0:
        raise DataError("training corpus is empty")
    threshold = check_threshold(threshold, error=ConfigError)
    hashed = encoder_params is not None
    dim = encoder_params.output_dim if hashed else table.dim
    if train_cfg.use_graph and dim % train_cfg.heads:
        raise ConfigError(f"heads ({train_cfg.heads}) must divide the encoder dimension ({dim})")
    loss_log: list[tuple[str, int, float]] = []

    fact_inputs = train_corpus.cases
    if hashed:
        with _stage("trace"):
            fact_inputs = [
                case_clues(case, lexicon, anchors, threshold, train_cfg.use_clue_tracing)
                for case in train_corpus
            ]

    n_train = len(train_corpus)
    sizes = [train_corpus.vocab(task).size for task in TASKS]
    label_pairs = [(task, i) for task, size in zip(TASKS, sizes) for i in range(size)]
    if hashed:
        # The hashed rows of every node, featurized once in node order: the
        # contrastive inputs, the node vectors and the unfrozen encoder
        # inputs all derive from them.
        texts = [clue_text(clues) for clues in fact_inputs]
        texts += [train_corpus.vocab(task).surface(i) for task, i in label_pairs]
        text_features = np.stack([encoder.featurize(text, encoder_params) for text in texts])

    if hashed and train_cfg.use_contrastive and contrastive_cfg.epochs > 0:
        with _stage("contrastive"):
            encoder_params, history = train_contrastive(
                encoder_params, text_features[:n_train], contrastive_cfg
            )
        loss_log.extend(("contrastive", epoch, value) for epoch, value in enumerate(history))

    with _stage("graph"):
        graph = build_graph(train_corpus)

        def node_matrix(encoder_params: HashedEncoderParams | None) -> np.ndarray:
            if hashed:
                vectors = [encoder.project_features(row, encoder_params) for row in text_features]
            else:
                vectors = [table[case.id] for case in fact_inputs]
                vectors += [table[label_key(task, i)] for task, i in label_pairs]
            facts, *labels = np.split(np.stack(vectors), np.cumsum([n_train, *sizes[:-1]]))
            return init_features(graph, facts, dict(zip(TASKS, labels)))

        nodes = node_matrix(encoder_params)
        tasks = train_cfg.tasks
        golds = {task: np.array(train_corpus.gold_ids(task), dtype=np.intp) for task in tasks}
        unfrozen = hashed and not train_cfg.freeze_encoder
        if unfrozen:
            fact_rows = HashedRows(text_features[:n_train], slice(None))

        theta: dict[str, np.ndarray] = {}
        gat: GatParams | None = None
        if train_cfg.use_graph:
            gat = GatParams.initialize(
                dim, train_cfg.heads, derive(train_cfg.seed, "gat-init"), train_cfg.leaky_slope
            )
            theta.update(gat.to_param_dict())
        else:
            for task in tasks:
                theta[f"labels.{task.value}"] = nodes[graph.label_indices(task)]
        if unfrozen:
            theta["encoder.projection"] = encoder_params.projection.copy()
            theta["encoder.bias"] = encoder_params.bias.copy()

        stage_name = "graph" if train_cfg.use_graph else "label_finetune"

        def objective(theta: dict[str, np.ndarray], epoch: int) -> ad.Tensor:
            encoder_inputs = None
            if unfrozen:
                dropout = DropoutSpec(
                    train_cfg.dropout_rate, derive(train_cfg.seed, "stage3-dropout", epoch)
                )
                encoder_inputs = fact_rows.dropout(dropout)
                if gat is not None:
                    encoder_inputs = np.concatenate([encoder_inputs, text_features[n_train:]])
            rows = None
            if train_cfg.batch_size is not None and train_cfg.batch_size < n_train:
                order = list(range(n_train))
                SplitMix64(derive(train_cfg.seed, "batch", epoch)).shuffle(order)
                rows = np.array(sorted(order[: train_cfg.batch_size]), dtype=np.intp)
            return stage3_objective(
                theta, graph, golds, tasks, gat=gat, fact_vectors=nodes[:n_train], nodes=nodes,
                encoder_inputs=encoder_inputs, rows=rows,
            )

        theta, state, values = descend(
            objective, theta, train_cfg.epochs, train_cfg.learning_rate, "training loss"
        )
        loss_log.extend((stage_name, epoch, value) for epoch, value in enumerate(values))

        if unfrozen:
            encoder_params = replace(
                encoder_params,
                projection=theta["encoder.projection"], bias=theta["encoder.bias"],
            )
            nodes = node_matrix(encoder_params)

        attention: list[tuple] = []
        if train_cfg.use_graph:
            gat = gat.with_param_dict(theta)
            collected: list = []
            # the label matrices come from the pass the loss read them from,
            # which also collects the attention over every edge
            label_matrices, _ = graph_label_matrices(nodes, graph, gat, tasks, collected)
            attention = attention_export(graph, collected)
        else:
            label_matrices = {task: theta[f"labels.{task.value}"].copy() for task in tasks}

    model = FittedModel(
        tasks=tuple(tasks),
        vocabs=dict(train_corpus.vocabs),
        label_matrices=label_matrices,
        encoder_params=encoder_params,
        lexicon=lexicon,
        anchors=anchors,
        threshold=threshold,
        use_clue_tracing=train_cfg.use_clue_tracing,
        use_contrastive=train_cfg.use_contrastive,
        use_graph=train_cfg.use_graph,
        heads=train_cfg.heads,
        leaky_slope=train_cfg.leaky_slope,
        seed=train_cfg.seed,
        table=table,
    )
    return FitResult(model, loss_log, attention, state, nodes[:n_train])


@dataclass(eq=False)
class PipelineResult(FitResult):
    train: Corpus
    validation: Corpus
    test: Corpus


def run_pipeline(
    corpus: Corpus,
    *,
    lexicon: Lexicon | None = None,
    anchors: SectionAnchors | None = None,
    threshold: float = 0.8,
    split_spec: SplitSpec | None = None,
    encoder_params: HashedEncoderParams | None = None,
    table: EmbeddingTable | None = None,
    contrastive_cfg: ContrastiveConfig | None = None,
    train_cfg: TrainConfig | None = None,
) -> PipelineResult:
    """The staged pipeline: the seeded split (stage ``split``, an empty
    training part being a ``DataError``), then ``fit_model`` on the
    training part (stages 1 to 3). Scoring a split is left to the caller."""
    with _stage("split"):
        train_part, val_part, test_part = split(corpus, split_spec or SplitSpec())
        if len(train_part) == 0:
            raise DataError("split produced an empty training set")
    result = fit_model(
        train_part,
        encoder_params=encoder_params,
        table=table,
        lexicon=lexicon,
        anchors=anchors,
        threshold=threshold,
        contrastive_cfg=contrastive_cfg,
        train_cfg=train_cfg,
    )
    return PipelineResult(**vars(result), train=train_part, validation=val_part, test=test_part)


def evaluate_model(
    model: FittedModel, corpus: Corpus, tasks: Sequence[Task] | None = None
) -> dict[Task, MetricsReport]:
    """Per-task metrics of the model on one corpus split.

    Label ids are the model's: each gold label is looked up by its surface
    string, so the corpus's own vocabulary order does not matter. Gold
    labels the model does not know raise ``DataError``."""
    if len(corpus) == 0:
        raise DataError("cannot evaluate on an empty corpus")
    tasks = tuple(tasks) if tasks is not None else model.tasks
    golds: dict[Task, list[int]] = {}
    for task in tasks:
        surfaces = [corpus.vocab(task).surface(i) for i in corpus.gold_ids(task)]
        unknown = sorted(set(surfaces).difference(model.vocabs[task].entries))
        if unknown:
            raise DataError(f"{task.value} labels unknown to the model: {unknown}")
        golds[task] = [model.vocabs[task].label_id(s) for s in surfaces]
    rows = model.score_rows(corpus, tasks)
    return {
        task: report(
            golds[task], [best_label(r) for r in rows[task]], model.vocabs[task].size, task=task
        )
        for task in tasks
    }


def predict_records(model: FittedModel, corpus: Corpus) -> list[dict]:
    """Prediction rows for the output JSONL: one object per case per task."""
    rows = model.score_rows(corpus, model.tasks)
    return [
        {
            "id": case.id,
            "task": task.value,
            "pred": model.vocabs[task].surface(best_label(row)),
            "proba": softmax(row).tolist(),
        }
        for case, *case_rows in zip(corpus, *rows.values())
        for task, row in zip(model.tasks, case_rows)
    ]
