"""Parameter grids over the Ha-Kye family and deterministic report emission.

A grid is one validated (4, n) array of the parameters a, b, c, theta.
Every grid point reports the closed-form spectra of its witness and of the
witness's partial transpose, and no eigensolver runs.  The grid goes in
chunks of SCAN_CHUNK points: each chunk's dense matrices are built, and
hakye.certify_spectra proves, by Weyl's inequality, how far each closed-form
eigenvalue can lie from the true eigenvalue of the built matrix.  A row
whose bound exceeds the certificate's relative tolerance, or could move its
gap across the gap tolerance, reads "certificate-failed" instead of a
conclusion, so a regressed builder or closed form cannot silently ship
plausible numbers.  The scan is a table of column arrays, and the reports
are written from the columns, byte-deterministic for a fixed command line.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO

import numpy as np

from .errors import InvalidParams
from .hakye import HaKyeParams, check_params, cos_family_params
from .hakye import certify_spectra, hakye_matrices, hakye_spectra_closed_form
from .spa import Conclusion, gap_rule

SCAN_SCHEMA = "hakye-scan-v2"
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
ROW_KEYS = SCAN_COLUMNS + ("spectral_bound",)
DEFAULT_CONDITION_TOL = 1e-6
CERTIFICATE_FAILED = "certificate-failed"  # an uncertified row's verdict, the longest
# Grid points per certified chunk; bounds the scan's working memory.
SCAN_CHUNK = 512

GRID_KEYS = ("a", "b", "c", "theta")

# json.dumps(value, indent=2, allow_nan=False): the encoder of every JSON
# report (the CLI's --json reports and the scan's) and the error for each cell
json_text = json.JSONEncoder(indent=2, allow_nan=False).encode

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
        raise InvalidParams(
            f"grid spec {text!r} must look like key=start:stop:N with key in "
            f"{GRID_KEYS}"
        )
    pieces = rest.split(":")
    if len(pieces) != 3:
        raise InvalidParams(f"grid spec {text!r} needs exactly start:stop:N")
    try:
        start, stop = float(pieces[0]), float(pieces[1])
        count = int(pieces[2])
    except ValueError as exc:
        raise InvalidParams(f"grid spec {text!r}: {exc}") from exc
    if count < 1:
        raise InvalidParams(f"grid spec {text!r}: N must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise InvalidParams(f"grid spec {text!r}: bounds must be finite")
    if not math.isfinite(stop - start):
        raise InvalidParams(f"grid spec {text!r}: span stop - start overflows")
    return GridAxis(key, start, stop, count)


def build_grid(
    axes: list[GridAxis],
    fixed: dict[str, float],
    cos_family: bool = False,
) -> np.ndarray:
    """The grid as a validated (4, n) float64 array with rows a, b, c, theta.

    Points are the Cartesian product of the axes, ordered lexicographically
    by key name (np.meshgrid with indexing="ij" over the sorted axes).
    Non-scanned parameters come from ``fixed``; with ``cos_family`` the
    diagonal follows a = (4/3) cos(theta), b = (2/3) cos(theta), c = 0 at
    each grid point and only theta may be scanned or fixed.  A key that is
    both fixed and scanned is rejected rather than silently dropped.  Every
    point passes HaKyeParams's rules, and the first that fails, in grid
    order, raises HaKyeParams's error.
    """
    seen = [axis.key for axis in axes]
    if len(set(seen)) != len(seen):
        raise InvalidParams(f"duplicate scan keys in {seen}")
    both = sorted(set(seen) & set(fixed))
    if both:
        raise InvalidParams(f"{both} both fixed and scanned; pass one or the other")
    axes = sorted(axes, key=lambda axis: axis.key)
    if cos_family:
        extra = sorted({*seen, *fixed} - {"theta"})
        if extra:
            raise InvalidParams(
                f"--cos-family derives a, b, c from theta; cannot set or scan {extra}"
            )
        if not axes and "theta" not in fixed:
            raise InvalidParams("--cos-family needs theta, scanned or fixed")
        theta = axes[0].values() if axes else np.array([fixed["theta"]], dtype=np.float64)
        params = cos_family_params(theta)
    else:
        missing = [
            key for key in GRID_KEYS if key not in fixed and key not in seen
        ]
        if missing:
            raise InvalidParams(f"no value for --{', --'.join(missing)}; pass flags or scan them")
        grids = np.meshgrid(*[axis.values() for axis in axes], indexing="ij")
        scanned = {axis.key: grid.ravel() for axis, grid in zip(axes, grids)}
        n = math.prod(axis.count for axis in axes)
        params = np.array([
            scanned[key] if key in scanned else np.full(n, fixed[key], dtype=np.float64)
            for key in GRID_KEYS
        ])
    check_params(params)
    return params


def analyze_point(params: HaKyeParams) -> dict:
    """One scan row of plain Python values: certified closed-form spectra,
    their bound, condition, verdict."""
    table = run_scan(params.column())
    return {key: column.tolist()[0] for key, column in table.items()}


def run_scan(
    params: np.ndarray, condition_tol: float = DEFAULT_CONDITION_TOL
) -> dict[str, np.ndarray]:
    """The scan of a (4, n >= 1) grid from build_grid as one column array
    per ROW_KEYS entry, in grid order, from one array pass (closed-form
    spectra, their certificate, gap rule, verdicts) per SCAN_CHUNK points.
    No row reports a normalized floor, so no trace is computed.

    A row gets a verdict only when its spectral_bound is within
    certify_spectra's tolerance and |gap - condition_tol| exceeds it, so
    the bound cannot move the gap across the tolerance; any other row
    reads "certificate-failed".  It holds the output columns (145 bytes a
    point) and one chunk's working arrays at once: each chunk is written
    into its slice of the columns, which are allocated up front."""
    check_params(params)
    n = params.shape[1]
    dtypes = {"condition_holds": bool, "verdict": f"<U{len(CERTIFICATE_FAILED)}"}
    table = {key: np.empty(n, dtypes.get(key, np.float64)) for key in ROW_KEYS}
    for start in range(0, n, SCAN_CHUNK):
        chunk = params[:, start:start + SCAN_CHUNK]
        w = hakye_matrices(chunk)
        spectra, spectra_pt = hakye_spectra_closed_form(chunk)
        bound, within_tol = certify_spectra(w, spectra, spectra_pt)
        lam0, lam0_pt = spectra[:, 0], spectra_pt[:, 0]
        gap, condition, _, raw = gap_rule(lam0, lam0_pt, condition_tol)
        # The row verdict rests on the gap alone, with the family's optimality
        # asserted (ASSERTION_LINE): no tie-window downgrade.
        verdict = np.where(condition, Conclusion.VIOLATES.value, Conclusion.CONSISTENT.value)
        certified = within_tol & (np.abs(gap - condition_tol) > bound)
        verdict = np.where(certified, verdict, CERTIFICATE_FAILED)
        parts = (*chunk, lam0, lam0_pt, gap, condition, raw[0], verdict, bound)
        for column, part in zip(table.values(), parts):
            column[start:start + SCAN_CHUNK] = part
    return table


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def report_header(kind: str, reproducible: bool, notes: tuple[str, ...]) -> dict:
    """The head of every report: schema version, kind, notes if any, and the
    generation time unless reproducible."""
    head: dict = {"schema_version": 1, "kind": kind}
    if notes:
        head["notes"] = list(notes)
    if not reproducible:
        head["generated"] = timestamp()
    return head


def cell_text(value) -> str:
    """Report text of a scalar: true/false, float.__repr__, or else str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float.__repr__(value)
    return str(value)


def _csv_cell(value) -> str:
    """cell_text(value) as a CSV cell that needs no quoting: text RFC 4180
    would quote (empty, or holding a comma, quote or line break) or holding
    a NUL raises ValueError naming it."""
    text = cell_text(value)
    if not text or any(ch in text for ch in ',"\r\n\0'):
        raise ValueError(f"CSV cell {text!r} would need quoting; report cells are plain text")
    return text


def _column_text(column: np.ndarray, rule) -> list[str]:
    """One chunk column's cells by its dtype, each distinct value formatted
    once: float64 by float.__repr__, bool and str by the format's rule; any
    other dtype raises TypeError naming it.

    Floats are keyed by bit pattern, so equal bits give equal text while
    0.0 and -0.0 stay apart and NaN needs no case of its own.  Keying costs
    a sort, which repays itself only on repeated cells: a float column with
    more than half its cells distinct formats every cell instead.  Bool and
    str values are taken in row order, so a cell the rule refuses is the
    first such cell of the chunk."""
    if column.dtype == np.float64:
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        if 2 * len(bits) > len(column):
            return list(map(float.__repr__, column.tolist()))
        texts = np.array(list(map(float.__repr__, bits.view(np.float64).tolist())), object)
        return texts[inverse].tolist()
    if column.dtype.kind not in "bU":
        raise TypeError(f"report columns are float64, bool or str, not {column.dtype}")
    values = column.tolist()
    return list(map({v: rule(v) for v in dict.fromkeys(values)}.__getitem__, values))


def _write_rows(stream: IO[str], columns: list[np.ndarray], cell, row: str, sep: str) -> int:
    """Write row % (one cell per column) for each row of a table's columns,
    sep between rows, SCAN_CHUNK rows at a time, so it holds one chunk's
    cells and text at once; each chunk column formats each of its distinct
    values once (floats keyed by bit pattern; see _column_text).  Returns
    the number of rows."""
    n = min(map(len, columns), default=0)
    for start in range(0, n, SCAN_CHUNK):
        cells = [_column_text(c[start:start + SCAN_CHUNK], cell) for c in columns]
        stream.write((sep if start else "") + sep.join(map(row.__mod__, zip(*cells))))
    return n


def write_rows_csv(
    table: Mapping[str, np.ndarray],
    columns: tuple[str, ...],
    schema: str,
    stream: IO[str],
    reproducible: bool = False,
    notes: tuple[str, ...] = (),
) -> None:
    """Versioned-header CSV of the named columns of a column table ('#'
    preamble lines, then RFC-4180 content whose cells never need quoting).
    The columns are float64, bool or str: another dtype raises TypeError,
    and a column name or cell that would need quoting ValueError."""
    head = report_header(schema, reproducible, notes)
    stamp = [f"generated={head['generated']}"] if "generated" in head else []
    preamble = [f"schema={schema}", *(f"note={note}" for note in notes), *stamp]
    names = ",".join(map(_csv_cell, columns))
    stream.write("".join(f"# {line}\r\n" for line in preamble) + names + "\r\n")
    row = ",".join(["%s"] * len(columns)) + "\r\n"
    _write_rows(stream, [table[col] for col in columns], _csv_cell, row, "")


def scan_report_json(
    table: Mapping[str, np.ndarray], reproducible: bool = False, notes: tuple[str, ...] = ()
) -> dict:
    """The scan report as one document, a row object per grid point."""
    doc = report_header(SCAN_SCHEMA, reproducible, notes)
    values = [column.tolist() for column in table.values()]
    doc["rows"] = [dict(zip(table, row)) for row in zip(*values)]
    return doc


def _check_json_floats(columns: list[np.ndarray]) -> None:
    """Raise json_text's error for the first non-finite value, in row
    order, of the float64 columns, from one np.isfinite pass over each."""
    firsts = sorted(
        (row, i) for i, column in enumerate(columns) if column.dtype == np.float64
        for row in np.flatnonzero(~np.isfinite(column))[:1].tolist()
    )
    json_text([columns[i][row].item() for row, i in firsts[:1]])


def write_scan_json(
    table: Mapping[str, np.ndarray],
    stream: IO[str],
    reproducible: bool = False,
    notes: tuple[str, ...] = (),
) -> None:
    """The bytes of json.dumps(scan_report_json(...), indent=2, allow_nan=False)
    and a newline, each row, keyed in the table's column order, from one
    format string.  The columns are float64, bool or str (another dtype
    raises TypeError), and a non-finite float raises the encoder's error
    before the first byte is written."""
    columns = list(table.values())
    _check_json_floats(columns)
    text = json_text(scan_report_json({}, reproducible, notes))
    template = "\n    {\n" + ",\n".join(f"      {json_text(k)}: %s" for k in table) + "\n    }"
    stream.write(text.removesuffix("]\n}"))  # the document up to the rows' "["
    rows = _write_rows(stream, columns, json_text, template, ",")
    stream.write("\n  ]\n}\n" if rows else "]\n}\n")
