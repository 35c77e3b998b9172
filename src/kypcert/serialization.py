"""JSON document formats for realizations, matrices and isometry families.

Complex entries are encoded as two-element ``[re, im]`` arrays; floats are
written with shortest round-trip decimal representation, so a save/load cycle
is bit-faithful and canonical documents re-serialize byte-identically.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .convexity import IsometryFamily
from .exceptions import ParseError, PassivityError, ShapeError
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


def encode_matrix(mat) -> list:
    """Nested-list encoding with complex entries as [re, im]."""
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    return [[[float(v.real), float(v.imag)] for v in row] for row in arr]


def decode_matrix(obj, rows: int | None = None, cols: int | None = None, field: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list):
        raise ParseError(f"field {field!r}: expected a list of rows")
    out_rows = []
    width = None
    for i, row in enumerate(obj):
        if not isinstance(row, list):
            raise ParseError(f"field {field!r}, row {i}: expected a list")
        entries = []
        for j, cell in enumerate(row):
            if not (isinstance(cell, list) and len(cell) == 2):
                raise ParseError(f"field {field!r}, entry ({i},{j}): expected [re, im]")
            try:
                entries.append(complex(float(cell[0]), float(cell[1])))
            except (TypeError, ValueError) as exc:
                raise ParseError(f"field {field!r}, entry ({i},{j}): not numeric") from exc
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ShapeError(f"field {field!r}: ragged rows ({len(entries)} vs {width})")
        out_rows.append(entries)
    if out_rows:
        arr = np.array(out_rows, dtype=complex)
    else:
        arr = np.zeros((0, 0), dtype=complex)
    if rows is not None and cols is not None:
        # an empty dimension cannot be inferred from JSON, so trust (rows, cols)
        if arr.size == 0 and rows * cols == 0 and arr.shape[0] == rows:
            arr = arr.reshape(rows, cols)
        if arr.shape != (rows, cols):
            raise ShapeError(f"field {field!r} has shape {arr.shape}, expected {(rows, cols)}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ParseError(f"field {field!r}: non-finite entries")
    return arr


def realization_document(r: Realization, metadata: dict | None = None) -> dict:
    doc = {
        "type": "realization",
        "n": r.n,
        "m": r.m,
        "A": encode_matrix(r.A),
        "B": encode_matrix(r.B),
        "C": encode_matrix(r.C),
        "D": encode_matrix(r.D),
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _read_json(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level document must be an object")
    return doc


def _realization_from_doc(doc: dict, context: str) -> Realization:
    try:
        n = int(doc["n"])
        m = int(doc["m"])
    except (KeyError, TypeError, ValueError) as exc:
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
    Path(path).write_text(_dumps(realization_document(r, metadata)))


def load_matrix(path) -> np.ndarray:
    doc = _read_json(path)
    if doc.get("type", "matrix") != "matrix":
        raise ParseError(f"{path}: document type {doc.get('type')!r} is not a matrix")
    if "entries" not in doc:
        raise ParseError(f"{path}: missing field 'entries'")
    return decode_matrix(doc["entries"], field="entries")


def save_matrix(path, mat) -> None:
    Path(path).write_text(_dumps({"type": "matrix", "entries": encode_matrix(mat)}))


def load_isometry_family(path) -> IsometryFamily:
    doc = _read_json(path)
    if doc.get("type") != "isometry_family":
        raise ParseError(f"{path}: document type {doc.get('type')!r} is not an isometry family")
    for field in ("state_blocks", "io_blocks"):
        if not isinstance(doc.get(field), list):
            raise ParseError(f"{path}: field {field!r} must be a list of matrices")
    state = [decode_matrix(b, field=f"state_blocks[{i}]") for i, b in enumerate(doc["state_blocks"])]
    io = [decode_matrix(b, field=f"io_blocks[{i}]") for i, b in enumerate(doc["io_blocks"])]
    try:
        return IsometryFamily(state_blocks=tuple(state), io_blocks=tuple(io))
    except PassivityError as exc:
        raise ShapeError(f"{path}: {exc}") from exc


def save_isometry_family(path, fam: IsometryFamily) -> None:
    doc = {
        "type": "isometry_family",
        "k": fam.k,
        "state_blocks": [encode_matrix(b) for b in fam.state_blocks],
        "io_blocks": [encode_matrix(b) for b in fam.io_blocks],
    }
    Path(path).write_text(_dumps(doc))


def load(path):
    """Load any known document type (dispatch on its 'type' field)."""
    doc = _read_json(path)
    kind = doc.get("type", "realization")
    if kind == "realization":
        return _realization_from_doc(doc, str(path))
    if kind == "matrix":
        return load_matrix(path)
    if kind == "isometry_family":
        return load_isometry_family(path)
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
