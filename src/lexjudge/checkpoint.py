"""Checkpoint serialization.

A checkpoint is one JSON document with fixed field order (meta, encoder,
graph, optimizer). Numeric arrays are plain JSON arrays; floats serialize
through Python's shortest round-trip repr, so checkpoints are diffable,
byte-stable between identical runs, and reload to bit-identical values.
The graph section holds the enhanced label matrices only: unseen cases are
scored against them through the encoder, so no path reads the attention
weights after training. The optimizer section keeps Adam's step count and
hyperparameters only, not its moment arrays (nothing resumes training).
Older checkpoints that carry ``optimizer.m``/``v`` or ``graph.layers``
still load; the layers are ignored.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .clues import Lexicon, SectionAnchors
from .corpus import LabelVocab, Task, TASKS
from .encoder import HashedEncoderParams, load_embedding_table
from .errors import DataError
from .trainer import AdamState, FittedModel
from .validation import check_threshold

FORMAT_VERSION = 1


def _anchors_dict(anchors: SectionAnchors | None) -> dict | None:
    if anchors is None:
        return None
    return {
        "statement": anchors.statement,
        "date": anchors.date,
        "location": anchors.location,
        "process": anchors.process,
    }


def build_checkpoint(model: FittedModel, optimizer: AdamState | None = None) -> dict:
    """Assemble the ordered checkpoint document."""
    meta = {
        "format_version": FORMAT_VERSION,
        "seed": model.seed,
        "dim": model.dim,
        "backend": model.backend_kind,
        "tasks": [task.value for task in model.tasks],
        "toggles": {
            "use_clue_tracing": model.use_clue_tracing,
            "use_contrastive": model.use_contrastive,
            "use_graph": model.use_graph,
        },
        "heads": model.heads,
        "leaky_slope": model.leaky_slope,
        "threshold": model.threshold,
        "vocabs": {
            task.value: list(model.vocabs[task].entries) for task in TASKS if task in model.vocabs
        },
        "lexicon": model.lexicon.to_dict() if model.lexicon is not None else None,
        "anchors": _anchors_dict(model.anchors),
        "embeddings_path": model.embeddings_path,
    }
    if model.encoder_params is not None:
        p = model.encoder_params
        encoder = {
            "bucket_count": p.bucket_count,
            "ngram_min": p.ngram_min,
            "ngram_max": p.ngram_max,
            "output_dim": p.output_dim,
            "projection": p.projection.tolist(),
            "bias": p.bias.tolist(),
        }
    else:
        encoder = {}
    graph = {
        "label_matrices": {
            task.value: model.label_matrices[task].tolist()
            for task in TASKS
            if task in model.label_matrices
        }
    }
    optimizer_doc: dict = {}
    if optimizer is not None:
        optimizer_doc = {
            "t": optimizer.t,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "learning_rate": optimizer.learning_rate,
        }
    return {"meta": meta, "encoder": encoder, "graph": graph, "optimizer": optimizer_doc}


def save_checkpoint(path, model: FittedModel, optimizer: AdamState | None = None) -> None:
    """Write the checkpoint document. A relative ``meta.embeddings_path``
    (relative to the current directory) is rewritten relative to the
    checkpoint's own directory, so the checkpoint loads from anywhere."""
    doc = build_checkpoint(model, optimizer)
    table_path = doc["meta"]["embeddings_path"]
    if table_path and not os.path.isabs(table_path):
        doc["meta"]["embeddings_path"] = os.path.relpath(
            table_path, os.path.dirname(os.path.abspath(path))
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, ensure_ascii=False)
        fh.write("\n")


def load_checkpoint(path) -> tuple[FittedModel, dict]:
    """Rebuild a FittedModel from a checkpoint file.

    Returns the model and the raw optimizer section (empty when absent).
    When the checkpoint records ``meta.embeddings_path``, the precomputed
    embedding table is loaded from that path, a relative one resolved
    against the checkpoint's directory. ``FittedModel`` checks the label
    matrices against the vocabularies and the encoder; ``meta.backend`` and
    ``meta.dim`` must agree with the encoder loaded. Every violation is a
    ``DataError``. A legacy ``graph.layers`` list is ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    try:
        meta = doc["meta"]
        if meta["format_version"] != FORMAT_VERSION:
            raise DataError(
                f"unsupported checkpoint format version {meta['format_version']}"
            )
        tasks = tuple(Task(t) for t in meta["tasks"])
        vocabs = {
            Task(name): LabelVocab(Task(name), entries)
            for name, entries in meta["vocabs"].items()
        }
        encoder_doc = doc["encoder"]
        encoder_params = None
        if encoder_doc:
            encoder_params = HashedEncoderParams(
                projection=np.asarray(encoder_doc["projection"]),
                bias=np.asarray(encoder_doc["bias"]),
                bucket_count=encoder_doc["bucket_count"],
                ngram_min=encoder_doc["ngram_min"],
                ngram_max=encoder_doc["ngram_max"],
            )
        label_matrices = {
            Task(name): np.asarray(matrix, dtype=np.float64)
            for name, matrix in doc["graph"].get("label_matrices", {}).items()
        }
        lexicon = (
            Lexicon.from_dict(meta["lexicon"]) if meta.get("lexicon") is not None else None
        )
        anchors_doc = meta.get("anchors")
        anchors = SectionAnchors(**anchors_doc) if anchors_doc is not None else None
        table = None
        table_path = meta.get("embeddings_path")
        if table_path:
            table_path = os.path.join(os.path.dirname(os.path.abspath(path)), table_path)
            table = load_embedding_table(table_path)
        model = FittedModel(
            tasks=tasks,
            vocabs=vocabs,
            label_matrices=label_matrices,
            encoder_params=encoder_params,
            lexicon=lexicon,
            anchors=anchors,
            threshold=check_threshold(meta["threshold"], "meta.threshold"),
            use_clue_tracing=meta["toggles"]["use_clue_tracing"],
            use_contrastive=meta["toggles"]["use_contrastive"],
            use_graph=meta["toggles"]["use_graph"],
            heads=meta["heads"],
            leaky_slope=meta["leaky_slope"],
            seed=meta["seed"],
            embeddings_path=table_path,
            table=table,
        )
        if (meta["backend"], meta["dim"]) != (model.backend_kind, model.dim):
            raise DataError(
                f"checkpoint {path}: meta.backend {meta['backend']!r} and meta.dim "
                f"{meta['dim']!r} contradict its {model.backend_kind} encoder of "
                f"dimension {model.dim}"
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} has an invalid schema: {exc}") from exc
    return model, doc.get("optimizer", {})
