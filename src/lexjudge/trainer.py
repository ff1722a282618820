"""Joint training: Adam optimization of the graph attention parameters
against the summed per-task cross-entropies, with the staged pipeline
(clue tracing, contrastive pre-training, graph-enhanced training) and the
ablation toggles.

Inference-time fact vectors always come from the encoder; the graph only
propagates case semantics into the label nodes, and unseen cases never
join the transductive graph. With ``use_graph=False`` the per-task label
matrices themselves are fine-tuned under the same loss, starting from the
encoded label surface texts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .clues import Lexicon, SectionAnchors, extract_clues, full_text_clues
from .contrastive import ContrastiveConfig, train_contrastive
from .corpus import Corpus, CriminalCase, LabelVocab, SplitSpec, Task, TASKS, split
from .encoder import (
    DropoutSpec,
    EmbeddingTable,
    HashedEncoder,
    HashedEncoderParams,
    PrecomputedEncoder,
    apply_dropout_noise,
    clue_text,
    featurize,
)
from .errors import ConfigError, DataError, DivergenceError, LexjudgeError
from .graph import (
    GatParams,
    ReasoningGraph,
    attention_export,
    build_graph,
    gat_forward,
    gat_forward_reference,
    gat_forward_tensors,
    init_features,
)
from .metrics import MetricsReport, report
from .predictor import ce_loss, predict_label, predict_proba, score_case
from .rng import SplitMix64, derive
from .validation import check_seed, check_unit_rate


@dataclass(frozen=True)
class AdamState:
    """First/second moments per parameter, step counter, and hyperparameters."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    learning_rate: float = 0.01

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
        m = state.beta1 * state.m[key] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[key] + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1 ** t)
        v_hat = v / (1.0 - state.beta2 ** t)
        new_params[key] = theta - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
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
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.heads < 1:
            raise ValueError("heads must be at least 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be positive when set")
        check_unit_rate(self.dropout_rate, "dropout_rate")
        check_seed(self.seed)


def total_loss(
    fact_vectors: np.ndarray,
    golds: Mapping[Task, Sequence[int]],
    label_matrices: Mapping[Task, np.ndarray],
    tasks: Sequence[Task],
) -> float:
    """Mean over the batch of the summed per-task cross-entropies
    (reference path composed from the predictor operations)."""
    fact_vectors = np.asarray(fact_vectors, dtype=np.float64)
    n = fact_vectors.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    total = 0.0
    for i in range(n):
        for task in tasks:
            logits = score_case(fact_vectors[i], label_matrices[task], task=task)
            total += ce_loss(predict_proba(logits), golds[task][i])
    return total / n


def graph_loss_reference(
    graph: ReasoningGraph,
    gat_params: GatParams,
    fact_vectors: np.ndarray,
    golds: Mapping[Task, Sequence[int]],
    tasks: Sequence[Task],
) -> float:
    """total_loss with label matrices taken from the loop-composed graph
    forward pass; used as the independent oracle for gradient checks."""
    out = gat_forward_reference(graph, gat_params)
    label_matrices = {task: out[graph.label_indices(task)] for task in tasks}
    return total_loss(fact_vectors, golds, label_matrices, tasks)


def stage3_objective(
    theta: Mapping[str, np.ndarray],
    graph: ReasoningGraph,
    golds: Mapping[Task, Sequence[int]],
    tasks: Sequence[Task],
    *,
    gat: GatParams | None = None,
    fact_vectors: np.ndarray | None = None,
    encoder_inputs: tuple[np.ndarray, np.ndarray] | None = None,
    rows: np.ndarray | None = None,
    with_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """Sum over ``tasks`` of the batch-mean cross-entropy of case-label dot
    products, with gradients for every entry of ``theta`` when requested
    (skipped for a non-finite value).

    Labels are the graph forward pass's label rows when ``gat`` gives the
    layer structure, else ``theta["labels.<task>"]``. Cases are the frozen
    ``fact_vectors`` over ``graph.features``, or, given ``encoder_inputs``
    (fact and label features), both are encoded through ``theta``'s
    ``encoder.projection``/``encoder.bias`` and feed the graph. ``rows``
    selects the minibatch."""
    leaves = {k: Tensor(v, requires_grad=with_grads) for k, v in theta.items()}
    if encoder_inputs is None:
        facts = Tensor(fact_vectors)
        nodes = Tensor(graph.features)
    else:
        projection, bias = leaves["encoder.projection"], leaves["encoder.bias"]
        facts, labels = (
            (Tensor(x) @ projection.T + bias).tanh() for x in encoder_inputs
        )
        nodes = ad.concat([facts, labels], axis=0)
    if gat is None:
        label_mats = {task: leaves[f"labels.{task.value}"] for task in tasks}
    else:
        out = gat_forward_tensors(nodes, graph, leaves, gat)
        label_mats = {
            task: ad.gather_rows(out, np.asarray(graph.label_indices(task), dtype=np.intp))
            for task in tasks
        }
    if rows is not None:
        facts = ad.gather_rows(facts, rows)
    loss_t = None
    for task in tasks:
        ids = np.asarray(golds[task], dtype=np.intp)
        mat = label_mats[task]
        onehot = _onehot(ids if rows is None else ids[rows], mat.shape[0])
        term = _mean_ce(facts @ mat.T, onehot)
        loss_t = term if loss_t is None else loss_t + term
    value = loss_t.item()
    if not with_grads or not np.isfinite(value):
        return value, None
    loss_t.backward()
    return value, {k: leaf.grad for k, leaf in leaves.items()}


def graph_objective(
    graph: ReasoningGraph,
    gat_params: GatParams,
    fact_vectors: np.ndarray,
    golds: Mapping[Task, Sequence[int]],
    tasks: Sequence[Task],
    with_grads: bool = True,
) -> tuple[float, dict[str, np.ndarray] | None]:
    """total_loss through the graph forward pass, with analytic gradients
    for every attention projection and scoring vector when requested: the
    frozen-encoder, full-batch case of ``stage3_objective``."""
    return stage3_objective(
        gat_params.to_param_dict(), graph, golds, tasks,
        gat=gat_params, fact_vectors=fact_vectors, with_grads=with_grads,
    )


def prepare_clues(
    cases: Sequence[CriminalCase],
    lexicon: Lexicon | None,
    anchors: SectionAnchors | None,
    threshold: float,
    use_clue_tracing: bool,
) -> None:
    """Populate ``case.clues`` for every case (stage 1). With tracing
    disabled the full fact text stands in for all three clues."""
    for case in cases:
        if not use_clue_tracing:
            case.clues = full_text_clues(case.fact_text)
        elif lexicon is None:
            raise ConfigError("clue tracing requires a lexicon")
        else:
            extract_clues(case, lexicon, threshold, anchors)


@dataclass
class FittedModel:
    """Everything needed to score unseen cases against the enhanced labels."""

    dim: int
    tasks: tuple[Task, ...]
    vocabs: dict[Task, LabelVocab]
    label_matrices: dict[Task, np.ndarray]
    backend_kind: str
    encoder_params: HashedEncoderParams | None
    gat: GatParams | None
    lexicon: Lexicon | None
    anchors: SectionAnchors | None
    threshold: float
    use_clue_tracing: bool
    use_contrastive: bool
    use_graph: bool
    heads: int
    leaky_slope: float
    seed: int
    embeddings_path: str | None = None
    table: EmbeddingTable | None = None

    @classmethod
    def trained(
        cls,
        cfg: TrainConfig,
        vocabs: Mapping[Task, LabelVocab],
        *,
        encoder_params: HashedEncoderParams | None = None,
        table: EmbeddingTable | None = None,
        embeddings_path: str | None = None,
        label_matrices: dict[Task, np.ndarray] | None = None,
        gat: GatParams | None = None,
        lexicon: Lexicon | None = None,
        anchors: SectionAnchors | None = None,
        threshold: float = 0.8,
    ) -> "FittedModel":
        """The model a training run produces: toggles, heads, slope and seed
        come from ``cfg``; the backend is hashed when ``encoder_params`` is
        given, otherwise the precomputed ``table``."""
        hashed = encoder_params is not None
        return cls(
            dim=encoder_params.output_dim if hashed else table.dim,
            tasks=tuple(cfg.tasks),
            vocabs=dict(vocabs),
            label_matrices=label_matrices if label_matrices is not None else {},
            backend_kind="hashed" if hashed else "precomputed",
            encoder_params=encoder_params,
            gat=gat,
            lexicon=lexicon,
            anchors=anchors,
            threshold=threshold,
            use_clue_tracing=cfg.use_clue_tracing,
            use_contrastive=cfg.use_contrastive,
            use_graph=cfg.use_graph,
            heads=cfg.heads,
            leaky_slope=cfg.leaky_slope,
            seed=cfg.seed,
            embeddings_path=embeddings_path,
            table=table,
        )

    def backend(self):
        if self.backend_kind == "hashed":
            if self.encoder_params is None:
                raise ConfigError("hashed backend requires encoder parameters")
            return HashedEncoder(self.encoder_params)
        if self.table is None:
            raise ConfigError(
                "precomputed backend requires an embedding table; load one from "
                f"{self.embeddings_path or '<embeddings path>'}"
            )
        return PrecomputedEncoder(self.table)

    def prepare_case(self, case: CriminalCase) -> CriminalCase:
        if self.backend_kind == "hashed":
            prepare_clues(
                (case,), self.lexicon, self.anchors, self.threshold, self.use_clue_tracing
            )
        return case

    def fact_vector(self, case: CriminalCase) -> np.ndarray:
        return self.backend().fact_vector(self.prepare_case(case))

    def scores(self, case: CriminalCase) -> dict[Task, np.ndarray]:
        hf = self.fact_vector(case)
        return {
            task: score_case(hf, self.label_matrices[task], task=task, case_id=case.id).scores
            for task in self.tasks
        }

    def predict_case(self, case: CriminalCase) -> dict[Task, int]:
        return {task: predict_label(s) for task, s in self.scores(case).items()}


@dataclass
class FitResult:
    model: FittedModel
    loss_log: list[tuple[str, int, float]]
    attention: list[tuple]
    optimizer_state: AdamState | None


@contextmanager
def _stage(name: str):
    try:
        yield
    except LexjudgeError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def _onehot(ids: np.ndarray, num_classes: int) -> np.ndarray:
    out = np.zeros((ids.shape[0], num_classes))
    out[np.arange(ids.shape[0]), ids] = 1.0
    return out


def _mean_ce(logits: Tensor, onehot: np.ndarray) -> Tensor:
    picked = (logits * Tensor(onehot)).sum(axis=1)
    return (ad.logsumexp(logits, axis=1) - picked).mean()


def fit_model(
    train_corpus: Corpus,
    *,
    encoder_params: HashedEncoderParams | None = None,
    table: EmbeddingTable | None = None,
    embeddings_path: str | None = None,
    lexicon: Lexicon | None = None,
    anchors: SectionAnchors | None = None,
    threshold: float = 0.8,
    contrastive_cfg: ContrastiveConfig | None = None,
    train_cfg: TrainConfig | None = None,
) -> FitResult:
    """Run stages 2 and 3 on a corpus whose clues are already prepared.

    Exactly one of ``encoder_params`` (hashed backend) or ``table``
    (precomputed backend) must be given. The contrastive stage is skipped
    on the precomputed path, which has no trainable encoder.
    """
    train_cfg = train_cfg or TrainConfig()
    contrastive_cfg = contrastive_cfg or ContrastiveConfig()
    if (encoder_params is None) == (table is None):
        raise ConfigError("exactly one of encoder_params or table must be given")
    if len(train_corpus) == 0:
        raise DataError("training corpus is empty")
    hashed = encoder_params is not None
    dim = encoder_params.output_dim if hashed else table.dim
    if train_cfg.use_graph and dim % train_cfg.heads:
        raise ConfigError(f"heads ({train_cfg.heads}) must divide the encoder dimension ({dim})")
    loss_log: list[tuple[str, int, float]] = []

    if hashed and train_cfg.use_contrastive and contrastive_cfg.epochs > 0:
        with _stage("contrastive"):
            encoder_params, history = train_contrastive(
                encoder_params, train_corpus, contrastive_cfg
            )
        loss_log.extend(("contrastive", epoch, value) for epoch, value in enumerate(history))

    with _stage("graph"):
        backend = HashedEncoder(encoder_params) if hashed else PrecomputedEncoder(table)
        graph = build_graph(train_corpus)
        init_features(graph, backend, train_corpus.vocabs)
        n_train = len(train_corpus)
        tasks = train_cfg.tasks
        golds = {task: np.array(train_corpus.gold_ids(task), dtype=np.intp) for task in tasks}
        label_rows = {task: np.array(graph.label_indices(task), dtype=np.intp) for task in tasks}

        unfrozen = hashed and not train_cfg.freeze_encoder_after_contrastive
        if unfrozen:
            case_features = np.stack(
                [featurize(clue_text(case.clues), encoder_params) for case in train_corpus]
            )
            label_features = np.stack([
                featurize(train_corpus.vocab(task).surface(i), encoder_params)
                for task in TASKS
                for i in range(train_corpus.vocab(task).size)
            ])

        theta: dict[str, np.ndarray] = {}
        gat: GatParams | None = None
        if train_cfg.use_graph:
            gat = GatParams.initialize(
                dim, train_cfg.heads, derive(train_cfg.seed, "gat-init"), train_cfg.leaky_slope
            )
            theta.update(gat.to_param_dict())
        else:
            for task in tasks:
                theta[f"labels.{task.value}"] = graph.features[label_rows[task]].copy()
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
                encoder_inputs = (apply_dropout_noise(case_features, dropout), label_features)
            rows = None
            if train_cfg.batch_size is not None and train_cfg.batch_size < n_train:
                order = list(range(n_train))
                SplitMix64(derive(train_cfg.seed, "batch", epoch)).shuffle(order)
                rows = np.array(sorted(order[: train_cfg.batch_size]), dtype=np.intp)
            value, grads = stage3_objective(
                theta, graph, golds, tasks,
                gat=gat,
                fact_vectors=graph.features[:n_train],
                encoder_inputs=encoder_inputs,
                rows=rows,
            )
            if not np.isfinite(value):
                raise DivergenceError(f"training loss diverged at epoch {epoch}")
            theta, state = adam_step(theta, grads, state)
            loss_log.append((stage_name, epoch, value))

        if unfrozen:
            encoder_params = encoder_params.with_weights(
                theta["encoder.projection"], theta["encoder.bias"]
            )
            init_features(graph, HashedEncoder(encoder_params), train_corpus.vocabs)

        attention: list[tuple] = []
        if train_cfg.use_graph:
            gat = gat.with_param_dict(theta)
            final = gat_forward(graph, params=gat)
            label_matrices = {task: final[label_rows[task]].copy() for task in tasks}
            attention = attention_export(graph, gat)
        else:
            label_matrices = {task: theta[f"labels.{task.value}"].copy() for task in tasks}

    model = FittedModel.trained(
        train_cfg,
        train_corpus.vocabs,
        encoder_params=encoder_params,
        table=table,
        embeddings_path=embeddings_path,
        label_matrices=label_matrices,
        gat=gat,
        lexicon=lexicon,
        anchors=anchors,
        threshold=threshold,
    )
    return FitResult(model, loss_log, attention, state)


@dataclass
class PipelineResult(FitResult):
    train: Corpus
    validation: Corpus
    test: Corpus
    metrics: dict[Task, MetricsReport]


def run_pipeline(
    corpus: Corpus,
    *,
    lexicon: Lexicon | None = None,
    anchors: SectionAnchors | None = None,
    threshold: float = 0.8,
    split_spec: SplitSpec | None = None,
    encoder_params: HashedEncoderParams | None = None,
    table: EmbeddingTable | None = None,
    embeddings_path: str | None = None,
    contrastive_cfg: ContrastiveConfig | None = None,
    train_cfg: TrainConfig | None = None,
) -> PipelineResult:
    """The full staged pipeline: clue tracing, split, contrastive
    pre-training, graph-enhanced training, and validation metrics."""
    train_cfg = train_cfg or TrainConfig()
    split_spec = split_spec or SplitSpec()
    if (encoder_params is None) == (table is None):
        raise ConfigError("exactly one of encoder_params or table must be given")
    if encoder_params is not None:
        with _stage("trace"):
            prepare_clues(
                corpus.cases, lexicon, anchors, threshold, train_cfg.use_clue_tracing
            )
    with _stage("split"):
        train_part, val_part, test_part = split(corpus, split_spec)
        if len(train_part) == 0:
            raise DataError("split produced an empty training set")
    result = fit_model(
        train_part,
        encoder_params=encoder_params,
        table=table,
        embeddings_path=embeddings_path,
        lexicon=lexicon,
        anchors=anchors,
        threshold=threshold,
        contrastive_cfg=contrastive_cfg,
        train_cfg=train_cfg,
    )
    metrics: dict[Task, MetricsReport] = {}
    if len(val_part) > 0:
        with _stage("evaluate"):
            metrics = evaluate_model(result.model, val_part)
    return PipelineResult(
        **vars(result), train=train_part, validation=val_part, test=test_part, metrics=metrics
    )


def evaluate_model(
    model: FittedModel, corpus: Corpus, tasks: Sequence[Task] | None = None
) -> dict[Task, MetricsReport]:
    """Per-task metrics of the model on one corpus split."""
    if len(corpus) == 0:
        raise DataError("cannot evaluate on an empty corpus")
    tasks = tuple(tasks) if tasks is not None else model.tasks
    preds: dict[Task, list[int]] = {task: [] for task in tasks}
    for case in corpus:
        predicted = model.predict_case(case)
        for task in tasks:
            preds[task].append(predicted[task])
    return {
        task: report(
            corpus.gold_ids(task), preds[task], corpus.vocab(task).size, task=task
        )
        for task in tasks
    }


def predict_records(model: FittedModel, corpus: Corpus) -> list[dict]:
    """Prediction rows for the output JSONL: one object per case per task."""
    rows = []
    for case in corpus:
        scores = model.scores(case)
        for task in model.tasks:
            proba = predict_proba(scores[task])
            rows.append(
                {
                    "id": case.id,
                    "task": task.value,
                    "pred": model.vocabs[task].surface(int(np.argmax(scores[task]))),
                    "proba": [float(p) for p in proba],
                }
            )
    return rows
