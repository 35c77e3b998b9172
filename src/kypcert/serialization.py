"""JSON document formats for realizations, matrices and isometry families.

Complex entries are encoded as two-element ``[re, im]`` arrays; floats are
written with shortest round-trip decimal representation, so a save/load cycle
is bit-faithful and canonical documents re-serialize byte-identically.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .convexity import IsometryFamily
from .exceptions import NotAnIsometryFamily, ParseError, PassivityError, ShapeError
from .realization import Realization

__all__ = [
    "encode_matrix",
    "decode_matrix",
    "realization_document",
    "load",
    "save",
    "load_realization",
    "save_realization",
    "load_matrix",
    "save_matrix",
    "load_isometry_family",
    "save_isometry_family",
    "file_digest",
]


def _complex_matrix(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr)


def encode_matrix(mat) -> list:
    """Nested-list encoding with complex entries as [re, im]."""
    arr = _complex_matrix(mat)
    return arr.view(float).reshape(*arr.shape, 2).tolist()


def decode_matrix(obj, rows: int | None = None, cols: int | None = None, field: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list):
        raise ParseError(f"field {field!r}: expected a list of rows")
    # one structural walk, then one fromiter over the cells; a cell the walk drops makes its count short
    arr, finite, width = None, False, len(obj[0]) if obj and isinstance(obj[0], list) else 0
    if all(isinstance(row, list) and len(row) == width for row in obj):
        cells = [cell for row in obj for cell in row if isinstance(cell, list) and len(cell) == 2]
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            flat = np.fromiter(chain.from_iterable(cells), float, 2 * len(obj) * width)
            arr = flat.view(complex).reshape(len(obj), width)
            finite = bool(np.isfinite(flat).all())
    if not finite:
        # name the first bad row or entry: float() fails where fromiter does, and also on None, which fromiter reads as NaN
        for i, row in enumerate(obj):
            if not isinstance(row, list):
                raise ParseError(f"field {field!r}, row {i}: expected a list")
            for j, cell in enumerate(row):
                if not (isinstance(cell, list) and len(cell) == 2):
                    raise ParseError(f"field {field!r}, entry ({i},{j}): expected [re, im]")
                try:
                    float(cell[0]), float(cell[1])
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ParseError(f"field {field!r}, entry ({i},{j}): not numeric") from exc
            if len(row) != width:  # row 0 is a list here, of length width
                raise ShapeError(f"field {field!r}: ragged rows ({len(row)} vs {width})")
    if rows is not None and cols is not None:
        # an empty dimension cannot be inferred from JSON, so trust (rows, cols)
        if arr.size == 0 and rows * cols == 0 and arr.shape[0] == rows:
            arr = arr.reshape(rows, cols)
        if arr.shape != (rows, cols):
            raise ShapeError(f"field {field!r} has shape {arr.shape}, expected {(rows, cols)}")
    if not finite:
        raise ParseError(f"field {field!r}: non-finite entries")
    return arr


def _realization_arrays(r: Realization, metadata: dict | None) -> dict:
    doc = {"type": "realization", "n": r.n, "m": r.m, "A": r.A, "B": r.B, "C": r.C, "D": r.D}
    return {**doc, "metadata": metadata} if metadata else doc


def realization_document(r: Realization, metadata: dict | None = None) -> dict:
    doc = _realization_arrays(r, metadata)
    return {k: encode_matrix(v) if isinstance(v, np.ndarray) else v for k, v in doc.items()}


def _scalar(o) -> str:
    """json's text for None, a bool, an int or a float."""
    if o is None or isinstance(o, bool):
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if not isinstance(o, float):
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
    return float.__repr__(o) if math.isfinite(o) else "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"


def _encode(o, nl: str) -> str:
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    inner = nl + "  "
    if isinstance(o, dict):
        items = [f"{_encode(k if isinstance(k, str) else _scalar(k), inner)}: {_encode(v, inner)}"
                 for k, v in sorted(o.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if items else "{}"
    if isinstance(o, (list, tuple)):
        return "[" + inner + ("," + inner).join([_encode(x, inner) for x in o]) + nl + "]" if o else "[]"
    if not isinstance(o, np.ndarray):
        return _scalar(o)
    # a complex matrix in its [re, im] list form, from one format string
    arr = _complex_matrix(o)
    rows, cols = arr.shape
    n2, n3 = inner + "  ", inner + "    "
    row = "[" + n2 + ("," + n2).join([f"[{n3}%s,{n3}%s{n2}]"] * cols) + inner + "]" if cols else "[]"
    text = map(float.__repr__ if np.isfinite(arr).all() else _scalar, arr.view(float).ravel().tolist())
    return ("[" + inner + ("," + inner).join([row] * rows) + nl + "]") % tuple(text) if rows else "[]"


def _dumps(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` of the `encode_matrix` list form,
    each ndarray written as a matrix in one pass (``indent`` makes json walk every number)."""
    return _encode(doc, "\n") + "\n"


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level document must be an object")
    return doc


def _realization_from_doc(doc: dict, context: str) -> Realization:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{context}: fields 'n' and 'm' must be integers") from exc
    blocks = {}
    shapes = {"A": (n, n), "B": (n, m), "C": (m, n), "D": (m, m)}
    for name, (rows, cols) in shapes.items():
        if name not in doc:
            raise ParseError(f"{context}: missing block {name!r}")
        blocks[name] = decode_matrix(doc[name], rows, cols, field=name)
    try:
        return Realization(n=n, m=m, A=blocks["A"], B=blocks["B"], C=blocks["C"], D=blocks["D"])
    except PassivityError as exc:
        raise ShapeError(f"{context}: {exc}") from exc


def load_realization(path) -> Realization:
    doc = _read_json(path)
    if doc.get("type", "realization") != "realization":
        raise ParseError(f"{path}: document type {doc.get('type')!r} is not a realization")
    return _realization_from_doc(doc, str(path))


def save_realization(path, r: Realization, metadata: dict | None = None) -> None:
    json.dumps(metadata, sort_keys=True)  # metadata keeps json's rules: an ndarray in it is a TypeError
    Path(path).write_text(_dumps(_realization_arrays(r, metadata)))


def load_matrix(path) -> np.ndarray:
    doc = _read_json(path)
    if doc.get("type", "matrix") != "matrix":
        raise ParseError(f"{path}: document type {doc.get('type')!r} is not a matrix")
    return _matrix_from_doc(doc, path)


def _matrix_from_doc(doc: dict, path) -> np.ndarray:
    if "entries" not in doc:
        raise ParseError(f"{path}: missing field 'entries'")
    return decode_matrix(doc["entries"], field="entries")


def save_matrix(path, mat) -> None:
    Path(path).write_text(_dumps({"type": "matrix", "entries": _complex_matrix(mat)}))


def load_isometry_family(path) -> IsometryFamily:
    doc = _read_json(path)
    if doc.get("type") != "isometry_family":
        raise ParseError(f"{path}: document type {doc.get('type')!r} is not an isometry family")
    return _isometry_family_from_doc(doc, path)


def _isometry_family_from_doc(doc: dict, path) -> IsometryFamily:
    for field in ("state_blocks", "io_blocks"):
        if not isinstance(doc.get(field), list):
            raise ParseError(f"{path}: field {field!r} must be a list of matrices")
    state = [decode_matrix(b, field=f"state_blocks[{i}]") for i, b in enumerate(doc["state_blocks"])]
    io = [decode_matrix(b, field=f"io_blocks[{i}]") for i, b in enumerate(doc["io_blocks"])]
    try:
        return IsometryFamily(state_blocks=tuple(state), io_blocks=tuple(io))
    except NotAnIsometryFamily as exc:
        raise NotAnIsometryFamily(f"{path}: {exc}") from exc
    except PassivityError as exc:
        raise ShapeError(f"{path}: {exc}") from exc


def save_isometry_family(path, fam: IsometryFamily) -> None:
    doc = {"type": "isometry_family", "k": fam.k, "state_blocks": fam.state_blocks, "io_blocks": fam.io_blocks}
    Path(path).write_text(_dumps(doc))


def load(path):
    """Load any known document type (dispatch on its 'type' field)."""
    doc = _read_json(path)
    kind = doc.get("type", "realization")
    if kind == "realization":
        return _realization_from_doc(doc, str(path))
    if kind == "matrix":
        return _matrix_from_doc(doc, path)
    if kind == "isometry_family":
        return _isometry_family_from_doc(doc, path)
    raise ParseError(f"{path}: unknown document type {kind!r}")


def save(path, value, metadata: dict | None = None) -> None:
    """Save a Realization, IsometryFamily or plain matrix."""
    if isinstance(value, Realization):
        save_realization(path, value, metadata)
    elif isinstance(value, IsometryFamily):
        save_isometry_family(path, value)
    else:
        save_matrix(path, value)


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
