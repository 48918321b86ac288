"""JSON operator files.

Schema (version 1)::

    {
      "schema_version": 1,
      "dims": {"dA": 3, "dB": 3},
      "entries": [[[re, im], ...], ...],
      "metadata": {...}          # optional, free-form strings
    }

Entries are row-major over the joint space with each cell a [real, imag]
pair.  Floats are emitted as shortest round-trip decimals, so a save/load
cycle reproduces the matrix bit for bit (finite values only).

Loading checks shape and type in one pass over the cells, then finiteness
over one float array; the first failure in row-major order is reported.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError
from .operators import Dims, HermitianOperator, make_hermitian

SCHEMA_VERSION = 1
_JSON_NUMBERS = (int, float)


def save_operator(
    op: HermitianOperator, path: str | Path, metadata: dict | None = None
) -> None:
    """Write an operator file; raises ValueError on non-finite entries."""
    if not np.isfinite(op.entries).all():
        raise ValueError("operator has non-finite entries; cannot serialize")
    cells = op.entries.view(np.float64).reshape(*op.entries.shape, 2).tolist()
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "dims": {"dA": op.dims.dA, "dB": op.dims.dB},
        "entries": cells,
    }
    if metadata:
        doc["metadata"] = metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def load_operator_file(path: str | Path) -> tuple[HermitianOperator, dict]:
    """Load and validate an operator file, returning (operator, metadata)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(
            f"{path}: schema_version {doc.get('schema_version')!r} unsupported, "
            f"expected {SCHEMA_VERSION}"
        )
    dims_doc = doc.get("dims")
    if (
        not isinstance(dims_doc, dict)
        or not isinstance(dims_doc.get("dA"), int)
        or not isinstance(dims_doc.get("dB"), int)
    ):
        raise ParseError(f"{path}: dims must be an object with integer dA and dB")
    dims = Dims(dims_doc["dA"], dims_doc["dB"])
    rows = doc.get("entries")
    if not isinstance(rows, list) or len(rows) != dims.dAB:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise DimensionMismatch(
            f"{path}: entries have {got} rows, dims demand {dims.dAB}"
        )
    n = dims.dAB
    r, s, error = _type_gate(rows, n, path)
    # finiteness of the cells before the first failure, so the first in row-major order wins
    cells = [cell for row in rows[:r] for cell in row] + (rows[r][:s] if s else [])
    try:
        values = np.array(cells, dtype=np.float64).reshape(-1, 2)
        finite = np.isfinite(values).all(axis=1)
    except OverflowError:  # an integer literal beyond the float range
        finite = np.array([all(abs(x) <= sys.float_info.max for x in cell) for cell in cells])
    if not finite.all():
        r, s = divmod(int(np.argmin(finite)), n)
        raise ParseError(f"{path}: entry at row {r}, column {s} is not finite")
    if error is not None:
        raise error
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{path}: metadata must be an object")
    for key, value in metadata.items():
        if not isinstance(value, str):
            raise ParseError(
                f"{path}: metadata {key!r} must be a string, not {type(value).__name__}"
            )
    return make_hermitian(values.view(np.complex128).reshape(n, n), dims), metadata


def _type_gate(rows: list, n: int, path: str | Path) -> tuple[int, int, Exception | None]:
    """Row, column and error of the first bad row or cell; (n, 0, None) if none."""
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            got = len(row) if isinstance(row, list) else type(row).__name__
            return r, 0, DimensionMismatch(f"{path}: row {r} has {got} columns, dims demand {n}")
        for s, cell in enumerate(row):
            # json.load yields exactly int or float for numbers, and bool is neither
            if not (isinstance(cell, list) and len(cell) == 2) or not (
                type(cell[0]) in _JSON_NUMBERS and type(cell[1]) in _JSON_NUMBERS
            ):
                return r, s, ParseError(
                    f"{path}: entry at row {r}, column {s} is not a [real, imag] pair of numbers"
                )
    return n, 0, None


def load_operator(path: str | Path) -> HermitianOperator:
    """Load an operator file, discarding metadata."""
    return load_operator_file(path)[0]
