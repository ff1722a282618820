"""Test-side access to the float arrays of a parsed checkpoint document.

Format version 2 stores each array as ``{"dtype": "<f8", "shape": [...],
"b64": "..."}``; version 1 stored nested JSON lists. These helpers read and
write both with numpy and ``base64`` alone, apart from
``lexjudge.checkpoint``, so a test can corrupt one array of a document and
can turn a current document into a version-1 one.
"""

from __future__ import annotations

import base64
import copy

import numpy as np


def decode(value) -> np.ndarray:
    """The array a stored field holds, in either format."""
    if isinstance(value, dict):
        assert value["dtype"] == "<f8"
        data = base64.b64decode(value["b64"], validate=True)
        return np.frombuffer(data, dtype="<f8").reshape(value["shape"]).copy()
    return np.array(value, dtype=np.float64)


def encode(array) -> dict:
    """An array in the version-2 form."""
    array = np.ascontiguousarray(array, dtype="<f8")
    return {
        "dtype": "<f8",
        "shape": list(array.shape),
        "b64": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def array_slots(doc: dict):
    """Each (container, key) of the document that holds a float array."""
    if doc["encoder"]:
        yield doc["encoder"], "projection"
        yield doc["encoder"], "bias"
    matrices = doc["graph"].get("label_matrices", {})
    for task in matrices:
        yield matrices, task


def edit_array(container: dict, key: str, edit) -> None:
    """Decode ``container[key]``, let ``edit`` return the changed array, and
    store that back in the form the field was read in."""
    old = container[key]
    new = edit(decode(old))
    container[key] = encode(new) if isinstance(old, dict) else new.tolist()


def to_v1(doc: dict) -> dict:
    """A copy of the document in format version 1: every array a list."""
    doc = copy.deepcopy(doc)
    doc["meta"]["format_version"] = 1
    for container, key in array_slots(doc):
        container[key] = decode(container[key]).tolist()
    return doc
