"""Parameter grids over the Ha-Kye family and deterministic report emission.

Every grid point is evaluated twice: once through the dense eigensolver and
once through the closed-form spectrum oracles.  A disagreement beyond
ORACLE_TOL poisons the row's verdict with "oracle-mismatch" instead of a
conclusion, so a regressed eigensolver cannot silently ship plausible
numbers.  Reports are byte-deterministic for a fixed command line; the
worker pool only changes wall time, never bytes.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import product
from typing import IO

import numpy as np

from .errors import InvalidGrid
from .hakye import HaKyeParams, hakye_witness, reference_violation_params
from .hakye import hakye_pt_spectrum_closed_form, hakye_spectrum_closed_form
from .operators import eig_hermitian, partial_transpose
from .spa import Conclusion, gap_verdict

SCAN_SCHEMA = "hakye-scan-v1"
SCAN_COLUMNS = (
    "a",
    "b",
    "c",
    "theta",
    "lambda0_W",
    "lambda0_WGamma",
    "gap",
    "condition_holds",
    "spa_min_pt_eig",
    "verdict",
)
ORACLE_TOL = 1e-8
DEFAULT_CONDITION_TOL = 1e-6
WORKERS_ENV = "SPA_WITNESS_THREADS"

GRID_KEYS = ("a", "b", "c", "theta")

ASSERTION_LINE = (
    "optimality of the Ha-Kye family is asserted from its published "
    "classification, not certified by this tool"
)
LABEL_LINE = (
    "labels follow the closed-form block spectra of this matrix layout under "
    "second-factor partial transposition; some published numerics for the "
    "theta=pi/12 instance quote the same eigenvalue pair with the two labels "
    "interchanged"
)


@dataclass(frozen=True)
class GridAxis:
    """One scanned parameter: inclusive linspace start:stop with count points."""

    key: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


def parse_grid_axis(text: str) -> GridAxis:
    """Parse "key=start:stop:N" into a GridAxis; malformed input is rejected."""
    key, sep, rest = text.partition("=")
    if not sep or key not in GRID_KEYS:
        raise InvalidGrid(
            f"grid spec {text!r} must look like key=start:stop:N with key in "
            f"{GRID_KEYS}"
        )
    pieces = rest.split(":")
    if len(pieces) != 3:
        raise InvalidGrid(f"grid spec {text!r} needs exactly start:stop:N")
    try:
        start, stop = float(pieces[0]), float(pieces[1])
        count = int(pieces[2])
    except ValueError as exc:
        raise InvalidGrid(f"grid spec {text!r}: {exc}") from exc
    if count < 1:
        raise InvalidGrid(f"grid spec {text!r}: N must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise InvalidGrid(f"grid spec {text!r}: bounds must be finite")
    return GridAxis(key, start, stop, count)


def build_grid(
    axes: list[GridAxis],
    fixed: dict[str, float],
    cos_family: bool = False,
) -> list[HaKyeParams]:
    """Cartesian product of the axes, ordered lexicographically by key name.

    Non-scanned parameters come from ``fixed``; with ``cos_family`` the
    diagonal follows a = (4/3) cos(theta), b = (2/3) cos(theta), c = 0 at
    each grid point and only theta may be scanned or fixed.
    """
    seen = [axis.key for axis in axes]
    if len(set(seen)) != len(seen):
        raise InvalidGrid(f"duplicate scan keys in {seen}")
    axes = sorted(axes, key=lambda axis: axis.key)
    if cos_family:
        extra = [axis.key for axis in axes if axis.key != "theta"]
        if extra:
            raise InvalidGrid(
                f"--cos-family derives a, b, c from theta; cannot scan {extra}"
            )
        if "theta" in fixed and not axes:
            return [reference_violation_params(fixed["theta"])]
        if not axes:
            raise InvalidGrid("--cos-family needs theta, scanned or fixed")
        return [reference_violation_params(float(t)) for t in axes[0].values()]
    missing = [
        key for key in GRID_KEYS if key not in fixed and key not in seen
    ]
    if missing:
        raise InvalidGrid(f"no value for {missing}; pass flags or scan them")
    points: list[HaKyeParams] = []
    axis_values = [axis.values() for axis in axes]
    for combo in product(*axis_values):
        values = dict(fixed)
        values.update({axis.key: float(v) for axis, v in zip(axes, combo)})
        points.append(
            HaKyeParams(values["a"], values["b"], values["c"], values["theta"])
        )
    return points


def analyze_point(
    params: HaKyeParams,
    condition_tol: float = DEFAULT_CONDITION_TOL,
    asserted_onew: bool = True,
) -> dict:
    """One scan row: numeric spectra, oracle tripwire, condition, verdict."""
    w = hakye_witness(params)
    spec = eig_hermitian(w)
    spec_pt = eig_hermitian(partial_transpose(w))
    oracle = hakye_spectrum_closed_form(params)
    oracle_pt = hakye_pt_spectrum_closed_form(params)
    mismatch = max(
        float(np.abs(spec.eigenvalues - oracle).max()),
        float(np.abs(spec_pt.eigenvalues - oracle_pt).max()),
    )
    check = gap_verdict(
        spec.min_eigenvalue, spec_pt.min_eigenvalue, w.trace, w.dims.dAB, condition_tol
    )
    # The row verdict rests on the gap alone: no tie-window downgrade.
    if not mismatch <= ORACLE_TOL:
        verdict = "oracle-mismatch"
    elif check.condition_holds:
        verdict = (Conclusion.VIOLATES if asserted_onew else Conclusion.INCONCLUSIVE).value
    else:
        verdict = Conclusion.CONSISTENT.value
    return {
        "a": float(params.a),
        "b": float(params.b),
        "c": float(params.c),
        "theta": float(params.theta),
        "lambda0_W": check.lambda0,
        "lambda0_WGamma": check.lambda0_pt,
        "gap": check.gap,
        "condition_holds": check.condition_holds,
        "spa_min_pt_eig": check.spa_sides[0].min_pt_eigenvalue_raw,
        "verdict": verdict,
        "oracle_discrepancy": float(mismatch),
    }


def resolve_workers() -> int:
    """Worker count from the SPA_WITNESS_THREADS cap; serial by default."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return 1
    try:
        return max(1, int(raw))
    except ValueError as exc:
        raise ValueError(f"{WORKERS_ENV}={raw!r} is not an integer") from exc


def run_scan(
    points: list[HaKyeParams],
    condition_tol: float = DEFAULT_CONDITION_TOL,
    asserted_onew: bool = True,
    workers: int | None = None,
) -> list[dict]:
    """Evaluate all grid points, preserving grid order regardless of workers."""
    n = resolve_workers() if workers is None else max(1, workers)
    job = partial(
        analyze_point, condition_tol=condition_tol, asserted_onew=asserted_onew
    )
    if n <= 1 or len(points) < 2:
        return [job(p) for p in points]
    chunk = max(1, len(points) // (4 * n))
    with ProcessPoolExecutor(max_workers=n) as pool:
        return list(pool.map(job, points, chunksize=chunk))


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(
    rows: list[dict],
    columns: tuple[str, ...],
    schema: str,
    stream: IO[str],
    reproducible: bool = False,
    notes: tuple[str, ...] = (),
) -> None:
    """Versioned-header CSV: '#' preamble lines, then RFC-4180 content."""
    stream.write(f"# schema={schema}\r\n")
    for note in notes:
        stream.write(f"# note={note}\r\n")
    if not reproducible:
        stream.write(f"# generated={timestamp()}\r\n")
    writer = csv.writer(stream, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[col]) for col in columns])


def scan_report_json(
    rows: list[dict], reproducible: bool = False, notes: tuple[str, ...] = ()
) -> dict:
    doc: dict = {"schema_version": 1, "kind": SCAN_SCHEMA}
    if notes:
        doc["notes"] = list(notes)
    if not reproducible:
        doc["generated"] = timestamp()
    doc["rows"] = [{k: v for k, v in row.items()} for row in rows]
    return doc
