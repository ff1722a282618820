"""Checkpoint serialization.

A checkpoint is one JSON document with fixed field order (meta, encoder,
graph, optimizer). Numeric arrays are plain JSON arrays; floats serialize
through Python's shortest round-trip repr, so checkpoints are diffable,
byte-stable between identical runs, and reload to bit-identical values.
"""

from __future__ import annotations

import json

import numpy as np

from .clues import Lexicon, SectionAnchors
from .corpus import LabelVocab, Task, TASKS
from .encoder import HashedEncoderParams, load_embedding_table
from .errors import DataError
from .graph import GatParams, HeadParams, LayerParams
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
    graph: dict = {"layers": [], "label_matrices": {}}
    if model.gat is not None:
        for layer in model.gat.layers:
            graph["layers"].append(
                {
                    "combine": layer.combine,
                    "leaky_slope": layer.leaky_slope,
                    "heads": [
                        {"W": head.W.tolist(), "omega": head.omega.tolist()}
                        for head in layer.heads
                    ],
                }
            )
    for task in TASKS:
        if task in model.label_matrices:
            graph["label_matrices"][task.value] = model.label_matrices[task].tolist()
    optimizer_doc: dict = {}
    if optimizer is not None:
        optimizer_doc = {
            "t": optimizer.t,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "learning_rate": optimizer.learning_rate,
            "m": {k: v.tolist() for k, v in optimizer.m.items()},
            "v": {k: v.tolist() for k, v in optimizer.v.items()},
        }
    return {"meta": meta, "encoder": encoder, "graph": graph, "optimizer": optimizer_doc}


def save_checkpoint(path, model: FittedModel, optimizer: AdamState | None = None) -> None:
    doc = build_checkpoint(model, optimizer)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, ensure_ascii=False)
        fh.write("\n")


def _parse_gat(graph_doc: dict) -> GatParams | None:
    layers_doc = graph_doc.get("layers") or []
    if not layers_doc:
        return None
    layers = []
    for layer in layers_doc:
        heads = [
            HeadParams(W=np.asarray(h["W"]), omega=np.asarray(h["omega"]))
            for h in layer["heads"]
        ]
        layers.append(LayerParams(heads, layer["combine"], layer["leaky_slope"]))
    return GatParams(layers)


def _check_dimensions(
    dim: int,
    encoder_params: HashedEncoderParams | None,
    vocabs: dict[Task, LabelVocab],
    label_matrices: dict[Task, np.ndarray],
) -> None:
    """Reject matrices that disagree with ``meta.dim``, with their task's
    vocabulary size, or that hold non-finite values. ``load_checkpoint``
    reports the ValueError as a schema violation."""
    if encoder_params is not None and encoder_params.output_dim != dim:
        raise ValueError(
            f"projection has {encoder_params.output_dim} rows but meta.dim is {dim}"
        )
    for task, matrix in label_matrices.items():
        if task not in vocabs:
            raise ValueError(f"{task.value} label matrix has no vocabulary")
        expected = (vocabs[task].size, dim)
        if matrix.shape != expected:
            raise ValueError(
                f"{task.value} label matrix has shape {matrix.shape}, expected {expected} "
                "(vocabulary size, meta.dim)"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValueError(f"{task.value} label matrix contains non-finite values")


def load_checkpoint(path, load_table: bool = False) -> tuple[FittedModel, dict]:
    """Rebuild a FittedModel from a checkpoint file.

    Returns the model and the raw optimizer section (empty when absent).
    With ``load_table`` the precomputed embedding table referenced by the
    checkpoint is loaded from its recorded path.
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
        graph_doc = doc["graph"]
        label_matrices = {
            Task(name): np.asarray(matrix, dtype=np.float64)
            for name, matrix in graph_doc.get("label_matrices", {}).items()
        }
        _check_dimensions(meta["dim"], encoder_params, vocabs, label_matrices)
        lexicon = (
            Lexicon.from_dict(meta["lexicon"]) if meta.get("lexicon") is not None else None
        )
        anchors_doc = meta.get("anchors")
        anchors = SectionAnchors(**anchors_doc) if anchors_doc is not None else None
        table = None
        if load_table and meta.get("embeddings_path"):
            table = load_embedding_table(meta["embeddings_path"])
        model = FittedModel(
            dim=meta["dim"],
            tasks=tasks,
            vocabs=vocabs,
            label_matrices=label_matrices,
            backend_kind=meta["backend"],
            encoder_params=encoder_params,
            gat=_parse_gat(graph_doc),
            lexicon=lexicon,
            anchors=anchors,
            threshold=check_threshold(meta["threshold"], "meta.threshold"),
            use_clue_tracing=meta["toggles"]["use_clue_tracing"],
            use_contrastive=meta["toggles"]["use_contrastive"],
            use_graph=meta["toggles"]["use_graph"],
            heads=meta["heads"],
            leaky_slope=meta["leaky_slope"],
            seed=meta["seed"],
            embeddings_path=meta.get("embeddings_path"),
            table=table,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} has an invalid schema: {exc}") from exc
    return model, doc.get("optimizer", {})
