"""Estimator facade over the staged pipeline.

``JudgmentClassifier`` exposes the familiar fit / predict / predict_proba /
score / get_params surface so the pipeline composes with the wider
ecosystem; all heavy lifting lives in the functional modules.
"""

from __future__ import annotations

import numpy as np

from .base import BaseEstimator
from .config import RunConfig
from .corpus import Corpus, Task, TASKS
from .encoder import EmbeddingTable
from .errors import ConfigError, NotFittedError
from .predictor import predict_proba as _softmax
from .trainer import evaluate_model, fit_model


def _as_task(task) -> Task:
    return task if isinstance(task, Task) else Task(task)


class JudgmentClassifier(BaseEstimator):
    """Judgment prediction estimator: clue tracing, contrastive
    pre-training, and graph-enhanced label representations behind a
    fit/predict interface.

    ``fit`` consumes a :class:`~lexjudge.corpus.Corpus`; ``predict``
    returns label surface strings for one task.
    """

    def __init__(
        self,
        lexicon=None,
        anchors=None,
        threshold: float = 0.8,
        dim: int = 256,
        bucket_count: int = 4096,
        ngram_min: int = 1,
        ngram_max: int = 3,
        heads: int = 4,
        leaky_slope: float = 0.2,
        epochs: int = 200,
        learning_rate: float = 0.01,
        contrastive_epochs: int = 20,
        temperature: float = 0.05,
        negatives_per_anchor: int = 7,
        contrastive_dropout: float = 0.1,
        use_clue_tracing: bool = True,
        use_contrastive: bool = True,
        use_graph: bool = True,
        freeze_encoder: bool = True,
        tasks: tuple = TASKS,
        embedding_table: EmbeddingTable | None = None,
        seed: int = 0,
    ):
        self.lexicon = lexicon
        self.anchors = anchors
        self.threshold = threshold
        self.dim = dim
        self.bucket_count = bucket_count
        self.ngram_min = ngram_min
        self.ngram_max = ngram_max
        self.heads = heads
        self.leaky_slope = leaky_slope
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.contrastive_epochs = contrastive_epochs
        self.temperature = temperature
        self.negatives_per_anchor = negatives_per_anchor
        self.contrastive_dropout = contrastive_dropout
        self.use_clue_tracing = use_clue_tracing
        self.use_contrastive = use_contrastive
        self.use_graph = use_graph
        self.freeze_encoder = freeze_encoder
        self.tasks = tasks
        self.embedding_table = embedding_table
        self.seed = seed

    def fit(self, corpus: Corpus, y=None):
        if not isinstance(corpus, Corpus):
            raise ConfigError("fit expects a Corpus")
        # Built as a run configuration, so the stage configs and their derived
        # seeds match the command line's and bad values raise ConfigError.
        cfg = RunConfig(
            seed=self.seed,
            encoder=dict(output_dim=self.dim, bucket_count=self.bucket_count,
                         ngram_min=self.ngram_min, ngram_max=self.ngram_max),
            contrastive=dict(
                temperature=self.temperature, negatives_per_anchor=self.negatives_per_anchor,
                epochs=self.contrastive_epochs, learning_rate=self.learning_rate,
                dropout_rate=self.contrastive_dropout,
            ),
            train=dict(
                epochs=self.epochs, learning_rate=self.learning_rate, tasks=list(self.tasks),
                use_clue_tracing=self.use_clue_tracing, use_contrastive=self.use_contrastive,
                use_graph=self.use_graph, freeze_encoder=self.freeze_encoder,
                heads=self.heads, leaky_slope=self.leaky_slope,
            ),
            tracer=dict(threshold=self.threshold),
        )
        table = self.embedding_table
        result = fit_model(
            corpus,
            encoder_params=cfg.encoder_params() if table is None else None,
            table=table,
            lexicon=self.lexicon,
            anchors=self.anchors,
            threshold=cfg.threshold,
            contrastive_cfg=cfg.contrastive_config(),
            train_cfg=cfg.train_config(),
        )
        self.model_ = result.model
        self.loss_log_ = result.loss_log
        self.attention_ = result.attention
        return self

    def _require_fitted(self):
        if not hasattr(self, "model_"):
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.model_

    def predict(self, corpus, task="charge") -> np.ndarray:
        """Predicted label surface strings for one task."""
        model = self._require_fitted()
        task = _as_task(task)
        vocab = model.vocabs[task]
        out = [vocab.surface(model.predict_case(case)[task]) for case in corpus]
        return np.array(out, dtype=object)

    def predict_all(self, corpus) -> dict[Task, np.ndarray]:
        model = self._require_fitted()
        return {task: self.predict(corpus, task) for task in model.tasks}

    def predict_proba(self, corpus, task="charge") -> np.ndarray:
        """Softmax probabilities over the task's label vocabulary, row per case."""
        model = self._require_fitted()
        task = _as_task(task)
        return np.stack([_softmax(model.scores(case)[task]) for case in corpus])

    def score(self, corpus: Corpus, task="charge") -> float:
        """Accuracy on one task."""
        model = self._require_fitted()
        task = _as_task(task)
        reports = evaluate_model(model, corpus, tasks=(task,))
        return reports[task].acc

    def evaluate(self, corpus: Corpus):
        """Full per-task metrics reports."""
        return evaluate_model(self._require_fitted(), corpus)
