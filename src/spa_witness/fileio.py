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
"""

from __future__ import annotations

import json
import sys
from numbers import Real
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError
from .operators import Dims, HermitianOperator, make_hermitian

SCHEMA_VERSION = 1


def save_operator(
    op: HermitianOperator, path: str | Path, metadata: dict | None = None
) -> None:
    """Write an operator file; raises ValueError on non-finite entries."""
    if not np.isfinite(op.entries).all():
        raise ValueError("operator has non-finite entries; cannot serialize")
    cells = [
        [[z.real, z.imag] for z in row] for row in op.entries.tolist()
    ]
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
    matrix = np.empty((dims.dAB, dims.dAB), dtype=np.complex128)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dims.dAB:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise DimensionMismatch(
                f"{path}: row {r} has {got} columns, dims demand {dims.dAB}"
            )
        for s, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not isinstance(cell[0], Real)
                or not isinstance(cell[1], Real)
                or isinstance(cell[0], bool)
                or isinstance(cell[1], bool)
            ):
                raise ParseError(
                    f"{path}: entry at row {r}, column {s} is not a "
                    "[real, imag] pair of numbers"
                )
            # compared exactly, so integer literals beyond the float range fail too
            if not all(abs(x) <= sys.float_info.max for x in cell):
                raise ParseError(f"{path}: entry at row {r}, column {s} is not finite")
            matrix[r, s] = complex(cell[0], cell[1])
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{path}: metadata must be an object")
    return make_hermitian(matrix, dims), metadata


def load_operator(path: str | Path) -> HermitianOperator:
    """Load an operator file, discarding metadata."""
    return load_operator_file(path)[0]
