"""Joint training: Adam optimization of the graph attention parameters
against the summed per-task cross-entropies, with the staged pipeline
(clue tracing, contrastive pre-training, graph-enhanced training) and the
ablation toggles.

Stage 1 has one call path, ``case_clues``, which never writes to a case.
Inference-time fact vectors always come from the encoder; the graph only
propagates case semantics into the label nodes, and unseen cases never
join the transductive graph. With ``use_graph=False`` the per-task label
matrices themselves are fine-tuned under the same loss, starting from the
encoded label surface texts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import ClassVar, Mapping, Sequence

import numpy as np

from . import autodiff as ad
from . import encoder
from .autodiff import Tensor
from .clues import ClueSet, Lexicon, SectionAnchors, extract_clues, full_text_clues
from .contrastive import ContrastiveConfig, train_contrastive
from .corpus import Corpus, CriminalCase, LabelVocab, SplitSpec, Task, TASKS, split
from .encoder import (
    DropoutSpec,
    EmbeddingTable,
    HashedEncoderParams,
    apply_dropout_noise,
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
    gat_forward,
    gat_forward_tensors,
    init_features,
)
from .metrics import MetricsReport, report
from .predictor import predict_label, predict_proba, score_case, softmax_cross_entropy
from .rng import SplitMix64, derive
from .validation import check_seed, check_threshold, check_unit_rate


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
    """One Adam update; returns new parameters and the advanced state."""
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
    freeze_encoder_after_contrastive: bool = True
    heads: int = 4
    leaky_slope: float = 0.2
    batch_size: int | None = None
    dropout_rate: float = 0.5

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("tasks must be non-empty")
        if len(set(self.tasks)) != len(self.tasks):
            raise ValueError(
                f"tasks must not repeat a task, got {[Task(t).value for t in self.tasks]}"
            )
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.heads < 1:
            raise ValueError("heads must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when set")
        check_unit_rate(self.dropout_rate, "dropout_rate")
        object.__setattr__(self, "seed", check_seed(self.seed))


def _cross_entropy(facts: Tensor, labels: Tensor, gold: np.ndarray) -> Tensor:
    """``softmax_cross_entropy`` of the scores ``facts @ labelsᵀ`` against
    the gold label ids, as one tape node."""
    value, g_logits = softmax_cross_entropy(facts.data @ labels.data.T, gold)

    def backward(g):
        g_scores = g * g_logits
        facts._accumulate(g_scores @ labels.data)
        labels._accumulate((facts.data.T @ g_scores).T)

    return Tensor._node(value, (facts, labels), backward)


def stage3_objective(
    theta: Mapping[str, np.ndarray],
    graph: ReasoningGraph,
    golds: Mapping[Task, Sequence[int]],
    tasks: Sequence[Task],
    *,
    gat: GatParams | None = None,
    fact_vectors: np.ndarray | None = None,
    nodes: np.ndarray | None = None,
    encoder_inputs: tuple[np.ndarray, np.ndarray] | None = None,
    rows: np.ndarray | None = None,
    with_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Sum over ``tasks`` of the batch-mean cross-entropy of case-label dot
    products, with gradients for every entry of ``theta`` when requested
    (skipped for a non-finite value).

    Labels are the graph forward pass's label rows when ``gat`` gives the
    layer structure, else ``theta["labels.<task>"]``. Cases are the frozen
    ``fact_vectors``, with the (N, d) node matrix ``nodes`` feeding the
    graph, or, given ``encoder_inputs`` (fact and label features), the facts
    are encoded through ``theta``'s ``encoder.projection``/``encoder.bias``
    and, when ``gat`` is set, so are the labels, their concatenation being
    the node matrix. That concatenation relies on ``build_graph``'s node
    order: facts first, then labels task by task in vocabulary order.
    ``rows`` selects the minibatch."""
    leaves = {k: Tensor(v, requires_grad=with_grads) for k, v in theta.items()}
    if encoder_inputs is None:
        facts = Tensor(fact_vectors)
        node_t = Tensor(nodes)
    else:
        projection, bias = leaves["encoder.projection"], leaves["encoder.bias"]
        facts = tanh_projection(encoder_inputs[0], projection, bias)
        if gat is not None:
            labels = tanh_projection(encoder_inputs[1], projection, bias)
            node_t = ad.concat([facts, labels], axis=0)
    if gat is None:
        label_mats = {task: leaves[f"labels.{task.value}"] for task in tasks}
    else:
        # The loss reads only label rows, so the last layer aggregates only
        # the edges into the label nodes of ``tasks``.
        receivers, positions = graph.label_receivers(tasks)
        out = gat_forward_tensors(node_t, graph, leaves, gat, receivers=receivers)
        label_mats = {task: ad.gather_rows(out, at) for task, at in positions.items()}
    if rows is not None:
        facts = ad.gather_rows(facts, rows)
    loss_t = None
    for task in tasks:
        ids = np.asarray(golds[task], dtype=np.intp)
        term = _cross_entropy(facts, label_mats[task], ids if rows is None else ids[rows])
        loss_t = term if loss_t is None else loss_t + term
    value = float(loss_t.data)
    if not with_grads or not np.isfinite(value):
        return value, None
    loss_t.backward()
    return value, {k: leaf.grad for k, leaf in leaves.items()}


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
    matrix; a violation raises ``ValueError``. The GAT parameters stay in training: unseen
    cases never join the graph, so scoring reads only the label matrices.
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

    def score_rows(self, corpus: Corpus) -> dict[Task, list[np.ndarray]]:
        """The one scoring loop: per task, each case's scores against the
        task's label matrix, in corpus order. Each case is traced and
        encoded once, and its rows are computed one product at a time."""
        rows: dict[Task, list[np.ndarray]] = {task: [] for task in self.tasks}
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
        label_rows = {task: graph.label_indices(task) for task in tasks}
        unfrozen = hashed and not train_cfg.freeze_encoder_after_contrastive
        if unfrozen:
            fact_nonzero = np.flatnonzero(text_features[:n_train])

        theta: dict[str, np.ndarray] = {}
        gat: GatParams | None = None
        if train_cfg.use_graph:
            gat = GatParams.initialize(
                dim, train_cfg.heads, derive(train_cfg.seed, "gat-init"), train_cfg.leaky_slope
            )
            theta.update(gat.to_param_dict())
        else:
            for task in tasks:
                theta[f"labels.{task.value}"] = nodes[label_rows[task]]
        if unfrozen:
            theta["encoder.projection"] = encoder_params.projection.copy()
            theta["encoder.bias"] = encoder_params.bias.copy()

        state = AdamState.initialize(theta, learning_rate=train_cfg.learning_rate)
        stage_name = "graph" if train_cfg.use_graph else "label_finetune"

        for epoch in range(train_cfg.epochs):
            encoder_inputs = None
            if unfrozen:
                dropout = DropoutSpec(
                    train_cfg.dropout_rate, derive(train_cfg.seed, "stage3-dropout", epoch)
                )
                encoder_inputs = (
                    apply_dropout_noise(text_features[:n_train], dropout, fact_nonzero),
                    text_features[n_train:],
                )
            rows = None
            if train_cfg.batch_size is not None and train_cfg.batch_size < n_train:
                order = list(range(n_train))
                SplitMix64(derive(train_cfg.seed, "batch", epoch)).shuffle(order)
                rows = np.array(sorted(order[: train_cfg.batch_size]), dtype=np.intp)
            value, grads = stage3_objective(
                theta, graph, golds, tasks,
                gat=gat,
                fact_vectors=nodes[:n_train],
                nodes=nodes,
                encoder_inputs=encoder_inputs,
                rows=rows,
            )
            if not np.isfinite(value):
                raise DivergenceError(f"training loss diverged at epoch {epoch}")
            theta, state = adam_step(theta, grads, state)
            loss_log.append((stage_name, epoch, value))

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
            final = gat_forward(graph, nodes, gat, collect_attention=collected)
            label_matrices = {task: final[label_rows[task]] for task in tasks}
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
        known = set(model.vocabs[task].entries)
        unknown = sorted({s for s in surfaces if s not in known})
        if unknown:
            raise DataError(f"{task.value} labels unknown to the model: {unknown}")
        golds[task] = [model.vocabs[task].label_id(s) for s in surfaces]
    rows = model.score_rows(corpus)
    return {
        task: report(
            golds[task], [predict_label(r) for r in rows[task]], model.vocabs[task].size,
            task=task,
        )
        for task in tasks
    }


def predict_records(model: FittedModel, corpus: Corpus) -> list[dict]:
    """Prediction rows for the output JSONL: one object per case per task."""
    rows = model.score_rows(corpus)
    return [
        {
            "id": case.id,
            "task": task.value,
            "pred": model.vocabs[task].surface(predict_label(rows[task][i])),
            "proba": [float(p) for p in predict_proba(rows[task][i])],
        }
        for i, case in enumerate(corpus)
        for task in model.tasks
    ]
