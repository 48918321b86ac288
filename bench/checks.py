"""Output checks for every benchmark op, written against the benchmark's own oracles.

Nothing here imports the package under test or its test oracles: closed
forms, eigenvalues and product-vector samples are computed with numpy from
the inputs the benchmark generated.  Each check returns None when the op's
output is right, or a one-line detail of the first thing that is wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import product

import numpy as np

from inputs import cos_family

SCAN_TOL = 1e-9
SCAN_CONDITION_TOL = 1e-6  # the `hakye` default --tol
ANALYZE_TOL = 1e-9
ANALYZE_CONDITION_TOL = 1e-8  # the `analyze` default --tol
CMAX_TOL = 1e-12
GEOMETRY_TOL = 1e-9
UNIT_TOL = 1e-9

EXIT_OK = 0
EXIT_VIOLATION = 3


def scan_points(grid: dict) -> np.ndarray:
    """Rows (a, b, c, theta) of a scan grid in the CLI's order.

    The CLI orders a multi-axis grid lexicographically by key name, with the
    last key varying fastest.
    """
    if "cos_family" in grid:
        start, stop, n = grid["cos_family"]
        return np.array([cos_family(float(t)) for t in np.linspace(start, stop, n)])
    axes = [np.linspace(*grid["axes"][key]) for key in ("a", "b", "c", "theta")]
    return np.array(list(product(*axes)), dtype=np.float64)


def hakye_bottom_eigenvalues(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form bottom eigenvalues of W and of W^Gamma for Ha-Kye points.

    min{a - 2cos(theta + 2 pi k/3), b, c} and min{(b+c)/2 - hypot((b-c)/2, 1), a}.
    """
    a, b, c, theta = points.T
    shifts = 2.0 * math.pi * np.arange(3) / 3.0
    circulant = a[:, None] - 2.0 * np.cos(theta[:, None] + shifts[None, :])
    lam0 = np.minimum(circulant.min(axis=1), np.minimum(b, c))
    lam0_pt = np.minimum((b + c) / 2.0 - np.hypot((b - c) / 2.0, 1.0), a)
    return lam0, lam0_pt


def _csv_rows(stdout: str) -> list[dict]:
    body = [line for line in stdout.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if value not in ("true", "false"):
        raise ValueError(f"not a boolean: {value!r}")
    return value == "true"


def check_scan(spec: dict, stdout: str, rc) -> str | None:
    points = scan_points(spec["grid"])
    try:
        rows = json.loads(stdout)["rows"] if spec["format"] == "json" else _csv_rows(stdout)
        if len(rows) != len(points):
            return f"scan: {len(rows)} rows, grid has {len(points)}"
        cols = {
            key: np.array([float(row[key]) for row in rows])
            for key in ("a", "b", "c", "theta", "lambda0_W", "lambda0_WGamma", "gap")
        }
        condition = np.array([_as_bool(row["condition_holds"]) for row in rows])
        verdicts = [row["verdict"] for row in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return f"scan: unreadable report: {exc!r}"
    params = np.column_stack([cols[key] for key in ("a", "b", "c", "theta")])
    if not np.allclose(params, points, rtol=0.0, atol=1e-12):
        return "scan: row parameters differ from the grid"
    lam0, lam0_pt = hakye_bottom_eigenvalues(points)
    for name, expected in (("lambda0_W", lam0), ("lambda0_WGamma", lam0_pt)):
        err = np.abs(cols[name] - expected)
        if not (err <= SCAN_TOL).all():
            i = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
            return f"scan: {name} off the closed form by {err[i]!r} at row {i}"
    if "oracle-mismatch" in verdicts:
        return f"scan: oracle-mismatch verdict at row {verdicts.index('oracle-mismatch')}"
    fires = cols["gap"] > SCAN_CONDITION_TOL
    for i, (fired, holds, verdict) in enumerate(zip(fires, condition, verdicts)):
        if holds != fired or verdict != ("VIOLATES" if fired else "CONSISTENT"):
            return f"scan: row {i} has condition {holds} and verdict {verdict} for gap {cols['gap'][i]!r}"
    expected_rc = EXIT_VIOLATION if condition.any() else EXIT_OK
    if rc != expected_rc:
        return f"scan: exit code {rc}, expected {expected_rc}"
    return None


def _parse_analyze(stdout: str, as_json: bool) -> dict:
    if as_json:
        doc = json.loads(stdout)
        return {key: doc[key] for key in ("lambda0_W", "lambda0_WGamma", "condition_holds", "conclusion")}
    pairs = dict(line.split(maxsplit=1) for line in stdout.splitlines() if line.strip())
    return {
        "lambda0_W": float(pairs["lambda0_W"]),
        "lambda0_WGamma": float(pairs["lambda0_WGamma"]),
        "condition_holds": _as_bool(pairs["condition_holds"]),
        "conclusion": pairs["conclusion"],
    }


def check_analyze(spec: dict, expect: dict, stdout: str, rc) -> str | None:
    try:
        report = _parse_analyze(stdout, spec["json"])
        lam0 = float(report["lambda0_W"])
        lam0_pt = float(report["lambda0_WGamma"])
        holds = _as_bool(report["condition_holds"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"analyze: unreadable report: {exc!r}"
    tol = ANALYZE_TOL * expect["scale"]
    for name, got, want in (("lambda0_W", lam0, expect["lambda0"]), ("lambda0_WGamma", lam0_pt, expect["lambda0_pt"])):
        if not abs(got - want) <= tol:
            return f"analyze: {name} = {got!r}, own eigvalsh gives {want!r}"
    if holds != (abs(lam0 - lam0_pt) > ANALYZE_CONDITION_TOL):
        return f"analyze: condition_holds = {holds} for gap {abs(lam0 - lam0_pt)!r}"
    if holds:
        allowed = {"VIOLATES", "INCONCLUSIVE"} if spec["assert_onew"] else {"INCONCLUSIVE"}
    else:
        allowed = {"CONSISTENT"}
    if report["conclusion"] not in allowed:
        return f"analyze: conclusion {report['conclusion']} with condition {holds}"
    expected_rc = EXIT_VIOLATION if holds else EXIT_OK
    if rc != expected_rc:
        return f"analyze: exit code {rc}, expected {expected_rc}"
    return None


def _complex_vector(pairs) -> np.ndarray:
    arr = np.array(pairs, dtype=np.float64)
    return arr[:, 0] + 1j * arr[:, 1]


def check_cmax(spec: dict, expect: dict, sigma: np.ndarray, stdout: str, rc) -> str | None:
    if rc != EXIT_OK:
        return f"cmax: exit code {rc}, expected {EXIT_OK}"
    try:
        doc = json.loads(stdout)
        value = float(doc["value"])
        converged = doc["converged"]
        mu = _complex_vector(doc["argmin"]["mu_a"])
        nu = _complex_vector(doc["argmin"]["nu_b"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"cmax: unreadable report: {exc!r}"
    if converged is not True:
        return "cmax: estimate did not converge"
    if mu.size * nu.size != sigma.shape[0]:
        return f"cmax: argmin has shape {mu.size}x{nu.size} for a {sigma.shape[0]}-dim sigma"
    for name, vec in (("mu_a", mu), ("nu_b", nu)):
        if not abs(np.linalg.norm(vec) - 1.0) <= UNIT_TOL:
            return f"cmax: {name} is not a unit vector"
    joint = np.kron(mu, nu)
    at_argmin = float((joint.conj() @ sigma @ joint).real)
    if not abs(value - at_argmin) <= CMAX_TOL:
        return f"cmax: value {value!r} but <argmin|sigma|argmin> = {at_argmin!r}"
    if not expect["lambda_min"] - CMAX_TOL <= value <= expect["sample_min"] + CMAX_TOL:
        return (
            f"cmax: value {value!r} outside [lambda_min {expect['lambda_min']!r}, "
            f"sampled product minimum {expect['sample_min']!r}]"
        )
    return None


def check_geometry(spec: dict, expect: dict, dAB: int, stdout: str, rc) -> str | None:
    if rc != EXIT_OK:
        return f"geometry: exit code {rc}, expected {EXIT_OK}"
    try:
        rows = _csv_rows(stdout)
        sources = [row["source"] for row in rows]
        witness_values = [float(row["witness_value"]) for row in rows]
        min_pt = np.array([float(row["min_pt_eigenvalue"]) for row in rows])
        purity = np.array([float(row["purity"]) for row in rows])
    except (ValueError, KeyError, TypeError) as exc:
        return f"geometry: unreadable report: {exc!r}"
    samples = spec["samples"]
    if len(rows) != 1 + 2 * samples:
        return f"geometry: {len(rows)} rows, expected {1 + 2 * samples}"
    expected_sources = ["ground-projector"] + ["random-density"] * samples + ["separable-ensemble"] * samples
    if sources != expected_sources:
        return "geometry: row sources out of order"
    if rows[0]["classification"] != "negative-side":
        return f"geometry: ground projector classified {rows[0]['classification']}"
    if not abs(witness_values[0] - expect["lambda0"]) <= GEOMETRY_TOL:
        return f"geometry: ground projector value {witness_values[0]!r}, lambda_min(W) = {expect['lambda0']!r}"
    separable_pt = min_pt[1 + samples:]
    if not (separable_pt >= -GEOMETRY_TOL).all():
        return f"geometry: separable row with min_pt_eigenvalue {float(np.nanmin(separable_pt))!r}"
    if not ((purity >= 1.0 / dAB - GEOMETRY_TOL) & (purity <= 1.0 + GEOMETRY_TOL)).all():
        return "geometry: purity outside [1/dAB, 1]"
    return None


def check(op: dict, inputs: list[dict], matrices: dict, stdout: str, rc) -> str | None:
    """Dispatch an op's output to its workload's check."""
    spec = op["check"]
    kind = spec["kind"]
    if kind == "scan":
        return check_scan(spec, stdout, rc)
    entry = inputs[spec["input"]]
    if kind == "analyze":
        return check_analyze(spec, entry["expect"], stdout, rc)
    if kind == "cmax":
        return check_cmax(spec, entry["expect"], matrices[spec["input"]], stdout, rc)
    dA, dB = entry["dims"]
    return check_geometry(spec, entry["expect"], dA * dB, stdout, rc)
