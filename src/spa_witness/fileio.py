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

Loading makes one pass over the rows and cells in row-major order: each
row's length, then each cell's [real, imag] pair of JSON numbers and its
finiteness, so the first failure in that order is the one reported.
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
_FLOAT_MAX = sys.float_info.max


def save_operator(
    op: HermitianOperator, path: str | Path, metadata: dict | None = None
) -> None:
    """Write an operator file; raises ValueError on non-finite entries and
    ParseError on metadata its loader refuses, before opening the file."""
    if not np.isfinite(op.entries).all():
        raise ValueError("operator has non-finite entries; cannot serialize")
    _check_metadata(path, metadata or {})
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


def _check_metadata(path: str | Path, metadata: object) -> None:
    """Raise ParseError unless metadata is an object of string keys and values."""
    if not isinstance(metadata, dict):
        raise ParseError(f"{path}: metadata must be an object")
    for key, value in metadata.items():
        if not isinstance(key, str):
            raise ParseError(f"{path}: metadata key {key!r} must be a string")
        if not isinstance(value, str):
            raise ParseError(
                f"{path}: metadata {key!r} must be a string, not {type(value).__name__}"
            )


def load_operator_file(path: str | Path) -> tuple[HermitianOperator, dict]:
    """Load and validate an operator file, returning (operator, metadata)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    # bool is an int, and 1.0 == 1: the header integers must be JSON integers
    if type(doc.get("schema_version")) is not int or doc["schema_version"] != SCHEMA_VERSION:
        raise ParseError(
            f"{path}: schema_version {doc.get('schema_version')!r} unsupported, "
            f"expected {SCHEMA_VERSION}"
        )
    dims_doc = doc.get("dims")
    if (
        not isinstance(dims_doc, dict)
        or type(dims_doc.get("dA")) is not int
        or type(dims_doc.get("dB")) is not int
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
    flat: list = []
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise DimensionMismatch(f"{path}: row {r} has {got} columns, dims demand {n}")
        for s, cell in enumerate(row):
            # json.load yields exactly int or float for numbers, and bool is neither
            if not (isinstance(cell, list) and len(cell) == 2) or not (
                type(cell[0]) in _JSON_NUMBERS and type(cell[1]) in _JSON_NUMBERS
            ):
                raise ParseError(
                    f"{path}: entry at row {r}, column {s} is not a [real, imag] pair of numbers"
                )
            # compared exactly: nan, the infinities and integers beyond the float range fail
            if not (-_FLOAT_MAX <= cell[0] <= _FLOAT_MAX and -_FLOAT_MAX <= cell[1] <= _FLOAT_MAX):
                raise ParseError(f"{path}: entry at row {r}, column {s} is not finite")
            flat += cell
    metadata = doc.get("metadata", {})
    _check_metadata(path, metadata)
    values = np.array(flat, dtype=np.float64).view(np.complex128).reshape(n, n)
    return make_hermitian(values, dims), metadata


def load_operator(path: str | Path) -> HermitianOperator:
    """Load an operator file, discarding metadata."""
    return load_operator_file(path)[0]
