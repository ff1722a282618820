"""Checkpoint serialization.

A checkpoint is one JSON document with fixed field order (meta, encoder,
graph, optimizer). Every float array (the encoder's projection and bias,
each label matrix) is stored exactly as ``{"dtype": "<f8", "shape": [...],
"b64": "..."}``: its C-order little-endian IEEE-754 bytes, base64-encoded.
Arrays reload bit-identically, take about half the bytes of decimal text
and parse without a float conversion per element; every scalar and string
in ``meta`` stays plain, readable JSON. Checkpoints are byte-stable between
identical runs. Format version 1, which stored the arrays as nested JSON
lists, still loads.
The graph section holds the enhanced label matrices only: unseen cases are
scored against them through the encoder, so no path reads the attention
weights after training. The optimizer section keeps Adam's step count and
hyperparameters only, not its moment arrays (nothing resumes training).
Older checkpoints that carry ``optimizer.m``/``v`` or ``graph.layers``
still load; the layers are ignored.
"""

from __future__ import annotations

import base64
import json
import math
import os

import numpy as np

from .clues import Lexicon, SectionAnchors
from .corpus import LabelVocab, Task, TASKS
from .encoder import HashedEncoderParams, load_embedding_table
from .errors import DataError
from .trainer import AdamState, FittedModel
from .validation import (
    check_kind, check_object, check_seed, check_threshold, is_kind, read_input, write_output,
)

FORMAT_VERSION = 2
ARRAY_DTYPE = "<f8"


def encode_array(array: np.ndarray) -> dict:
    """A float array as the checkpoint stores it: C-order little-endian
    float64 bytes, base64-encoded, with the dtype and shape beside them."""
    data = np.ascontiguousarray(array, dtype=ARRAY_DTYPE)
    return {
        "dtype": ARRAY_DTYPE,
        "shape": list(data.shape),
        "b64": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_array(value, field: str, version: int = FORMAT_VERSION) -> np.ndarray:
    """The writeable, owned float64 array one checkpoint field stores.

    Version 1 stores nested JSON lists, and an element that is not a JSON
    number (``check_kind``) raises ``ValueError`` naming ``field``; version
    2 stores ``encode_array``'s object, and a dtype other than ``"<f8"``, a
    shape that is not a list of non-negative integers, a ``b64`` that is
    not valid base64 or a byte count that does not fill the shape raises
    ``ValueError`` naming ``field``.
    """
    if version == 1:
        array = np.asarray(value, dtype=object)
        for element in array.flat:
            check_kind(element, float, f"{field} element")
        return array.astype(np.float64)
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be an encoded array object, got {type(value).__name__}")
    dtype, shape, b64 = (value.get(key) for key in ("dtype", "shape", "b64"))
    if dtype != ARRAY_DTYPE:
        raise ValueError(f"{field}.dtype must be {ARRAY_DTYPE!r}, got {dtype!r}")
    if not isinstance(shape, list) or any(not is_kind(n, int) or n < 0 for n in shape):
        raise ValueError(f"{field}.shape must be a list of non-negative integers, got {shape!r}")
    if not isinstance(b64, str):
        raise ValueError(f"{field}.b64 must be a base64 string, got {type(b64).__name__}")
    try:
        data = base64.b64decode(b64, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{field}.b64 is not valid base64: {exc}") from None
    expected = 8 * math.prod(shape)
    if len(data) != expected:
        raise ValueError(f"{field} holds {len(data)} bytes, but shape {shape} needs {expected}")
    return np.frombuffer(data, dtype=ARRAY_DTYPE).reshape(shape).astype(np.float64)


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
        "anchors": model.anchors.to_dict() if model.anchors is not None else None,
        "embeddings_path": model.embeddings_path,
    }
    if model.encoder_params is not None:
        p = model.encoder_params
        encoder = {
            "bucket_count": p.bucket_count,
            "ngram_min": p.ngram_min,
            "ngram_max": p.ngram_max,
            "output_dim": p.output_dim,
            "projection": encode_array(p.projection),
            "bias": encode_array(p.bias),
        }
    else:
        encoder = {}
    graph = {
        "label_matrices": {
            task.value: encode_array(model.label_matrices[task])
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
    """Write the checkpoint document with ``write_output``, so a path that
    cannot be written is a ``ConfigError``. A relative ``meta.embeddings_path``
    (relative to the current directory) is rewritten relative to the
    checkpoint's own directory, so the checkpoint loads from anywhere."""
    doc = build_checkpoint(model, optimizer)
    table_path = doc["meta"]["embeddings_path"]
    if table_path and not os.path.isabs(table_path):
        doc["meta"]["embeddings_path"] = os.path.relpath(
            table_path, os.path.dirname(os.path.abspath(path))
        )
    write_output(path, json.dumps(doc, ensure_ascii=False) + "\n")


def load_checkpoint(path) -> tuple[FittedModel, dict]:
    """Rebuild a FittedModel from a checkpoint file.

    Returns the model and the raw optimizer section (empty when absent).
    When the checkpoint records ``meta.embeddings_path``, the precomputed
    embedding table is loaded from that path, a relative one resolved
    against the checkpoint's own directory. Format versions 1 and 2 load.
    ``decode_array`` checks each stored array, ``FittedModel`` checks the
    tasks and label matrices against the vocabularies and the encoder, and
    ``meta.backend`` and ``meta.dim`` must agree with the encoder loaded;
    the toggles must be booleans, ``meta.tasks`` a non-empty list of
    distinct tasks, ``meta.seed`` an unsigned 64-bit integer,
    ``meta.heads`` a positive integer and ``meta.leaky_slope`` a number.
    Every violation is a ``DataError``. A legacy ``graph.layers`` list is
    ignored.
    """
    doc = read_input(path, "checkpoint", DataError, as_json=True)
    try:
        meta = doc["meta"]
        version = meta["format_version"]
        if type(version) is not int or version not in (1, FORMAT_VERSION):
            raise DataError(f"unsupported checkpoint format version {version!r}")
        tasks = tuple(Task(t) for t in check_object(meta["tasks"], "meta.tasks", list))
        if len(set(tasks)) != len(tasks):
            raise ValueError(f"meta.tasks must not repeat a task, got {meta['tasks']!r}")
        toggles = {
            name: check_kind(meta["toggles"][name], bool, f"meta.toggles.{name}")
            for name in ("use_clue_tracing", "use_contrastive", "use_graph")
        }
        heads = check_kind(meta["heads"], int, "meta.heads")
        if heads < 1:
            raise ValueError(f"meta.heads must be an integer of at least 1, got {heads!r}")
        vocabs = {
            Task(name): LabelVocab(
                Task(name), check_object(entries, f"meta.vocabs.{name}", list)
            )
            for name, entries in check_object(meta["vocabs"], "meta.vocabs").items()
        }
        encoder_doc = doc["encoder"]
        encoder_params = None
        if encoder_doc:
            encoder_params = HashedEncoderParams(
                projection=decode_array(encoder_doc["projection"], "encoder.projection", version),
                bias=decode_array(encoder_doc["bias"], "encoder.bias", version),
                bucket_count=encoder_doc["bucket_count"],
                ngram_min=encoder_doc["ngram_min"],
                ngram_max=encoder_doc["ngram_max"],
            )
        graph = check_object(doc["graph"], "graph")
        matrices = check_object(graph.get("label_matrices", {}), "graph.label_matrices")
        label_matrices = {
            Task(name): decode_array(matrix, f"graph.label_matrices.{name}", version)
            for name, matrix in matrices.items()
        }
        lexicon = (
            Lexicon.from_dict(meta["lexicon"]) if meta.get("lexicon") is not None else None
        )
        anchors = meta.get("anchors")
        if anchors is not None:
            anchors = SectionAnchors.from_dict(anchors, "meta.anchors")
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
            **toggles,
            heads=heads,
            leaky_slope=check_kind(meta["leaky_slope"], float, "meta.leaky_slope"),
            seed=check_seed(meta["seed"], "meta.seed"),
            table=table,
        )
        if (meta["backend"], meta["dim"]) != (model.backend_kind, model.dim):
            raise DataError(
                f"checkpoint {path}: meta.backend {meta['backend']!r} and meta.dim "
                f"{meta['dim']!r} contradict its {model.backend_kind} encoder of "
                f"dimension {model.dim}"
            )
    except KeyError as exc:
        raise DataError(f"checkpoint {path} has an invalid schema: missing {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataError(f"checkpoint {path} has an invalid schema: {exc}") from exc
    return model, doc.get("optimizer", {})
