"""The file boundary and input validation shared by the public API: the
one reader of input files, the one writer of output files, and the checks
on values read from them."""

from __future__ import annotations

import json
import math
import numbers
import re

import numpy as np

from .errors import ConfigError

_KIND_NAMES = {
    bool: "a JSON boolean", int: "an integer", float: "a number", str: "a string",
    list: "a JSON list",
}
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")  # a UTF-16 surrogate's JSON escape


def read_input(path, what: str, error: type[Exception], as_json: bool = False):
    """The text of the input file at ``path``, or with ``as_json`` its JSON
    document; a file that cannot be read, is not UTF-8 or is not valid JSON
    raises ``error`` naming it as ``what`` (e.g. ``"lexicon file"``), and
    so does a document that ``check_unicode`` refuses."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        return check_unicode(json.loads(text), text, f"{what} {path}", error) if as_json else text
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def check_unicode(value, text: str, where: str, error: type[Exception]):
    """``value``, parsed from the JSON ``text``, if every string in it is
    valid Unicode; a lone surrogate, which no output file can encode,
    raises ``error`` naming ``where``. Only a surrogate escape in ``text``
    can make one, so text without a backslash costs one byte search, far
    faster than the escape's pattern."""
    if "\\" in text and _SURROGATE_ESCAPE.search(text):
        if re.search("[\ud800-\udfff]", json.dumps(value, ensure_ascii=False)):
            raise error(f"{where} holds a lone surrogate, which is not valid text")
    return value


def write_output(path, text: str) -> None:
    """Write ``text`` to the output file at ``path`` as UTF-8, line ends
    untranslated; a file that cannot be written raises ``ConfigError``."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def is_kind(value, kind: type) -> bool:
    """Whether ``value`` is of ``kind``: a boolean for ``bool``, a string for
    ``str``, a list for ``list``, any integral number for ``int``, any real
    number for ``float``; a bool is never an integer or a number."""
    if kind in (bool, str, list):
        return isinstance(value, kind)
    number = numbers.Integral if kind is int else numbers.Real
    return isinstance(value, number) and not isinstance(value, bool)


def check_kind(value, kind: type, name: str, error: type[Exception] = ValueError):
    """``value`` converted to ``kind`` when ``is_kind`` holds; otherwise, or
    for an integer too large for a float, or for a float that is NaN or
    infinite (which Python's ``json`` reads), raises ``error`` naming ``name``."""
    if is_kind(value, kind):
        try:
            converted = kind(value)
        except OverflowError:
            pass
        else:
            if kind is not float or math.isfinite(converted):
                return converted
            raise error(f"{name} must be a finite number, got non-finite {value!r}")
    raise error(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")


def check_object(value, name: str, kind: type = dict):
    """``value`` if it is a JSON object, or with ``kind=list`` a JSON list;
    otherwise raises ``ValueError`` naming ``name``."""
    if not isinstance(value, kind):
        what = "object" if kind is dict else "list"
        raise ValueError(f"{name} must be a JSON {what}, got {type(value).__name__}")
    return value


def check_vector(x, name: str = "x", dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally of fixed length."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {arr.shape[0]}")
    return check_finite(arr, name)


def check_matrix(x, name: str = "x", cols: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, optionally with a fixed column count."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    return check_finite(arr, name)


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_fraction(value: float, name: str = "fraction") -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def check_unit_rate(value: float, name: str = "rate") -> float:
    """Probability in [0, 1)."""
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")
    return value


def check_threshold(value, name: str = "threshold", error: type[Exception] = ValueError) -> float:
    """Clue-match similarity threshold: a number in (0, 1], as a float."""
    if not is_kind(value, float) or not 0 < value <= 1:
        raise error(f"{name} must be a number in (0, 1], got {value!r}")
    return float(value)


def check_positive(value, name: str = "value"):
    """``value`` if it is a positive number short of infinity; NaN fails too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def check_seed(value, name: str = "seed", error: type[Exception] = ValueError) -> int:
    """``value`` as a Python int, if it is an integer in [0, 2**64)."""
    if not is_kind(value, int) or not 0 <= value < (1 << 64):
        raise error(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)
