"""Independent numerical oracles used to cross-check library results.

Everything here recomputes quantities through a different route than the
library: characteristic polynomials instead of eigh, brute-force index
loops instead of reshape/transpose, and direct sampling or grid search
instead of the see-saw.  Keep these free of spa_witness internals beyond
plain array access; the exceptions are geometry_rows_one_at_a_time and
scan_row_one_at_a_time, the per-object routes that the stacked geometry
rows and scan columns must reproduce bit for bit, and grid_one_at_a_time,
the per-point HaKyeParams build that the grid array must reproduce, errors
included, and check_density_eigh_only and draw_ensembles_dirichlet_loop,
the eigh density rule and the rng.dirichlet ensemble stream that
check_density's verdicts and messages and draw_ensembles' bits must
reproduce.  The scalar and row-by-row references at the end are the routes
that the array forms and the column-wise report writers must reproduce bit
for bit, and the per-cell operator-file loader and per-entry writer are the
ones that fileio's single-pass loader and writer must reproduce byte for byte,
errors included.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from fractions import Fraction
from itertools import product
from numbers import Real

import numpy as np

from spa_witness.errors import DimensionMismatch, InvalidParams, ParseError
from spa_witness.hakye import HaKyeParams, certify_spectra, hakye_witness
from spa_witness.operators import (
    Dims,
    HermitianOperator,
    eig_hermitian,
    hs_inner,
    hs_norm,
    min_eigenpair,
    partial_transpose,
)
from spa_witness.spa import hyperplane_classify, pt_min_eigenvalue
from spa_witness.states import (
    DENSITY_MIN_EIG_TOL,
    DENSITY_TRACE_TOL,
    DensityOperator,
    Provenance,
    SeparableEnsemble,
)


def char_poly_roots_2x2(m: np.ndarray) -> np.ndarray:
    """Roots of det(m - x I) for a 2x2 Hermitian matrix, sorted ascending."""
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    roots = np.roots([1.0, -tr, det])
    return np.sort(roots.real)


def char_poly_roots_3x3(m: np.ndarray) -> np.ndarray:
    """Roots of det(m - x I) for a 3x3 Hermitian matrix, sorted ascending."""
    tr = (m[0, 0] + m[1, 1] + m[2, 2]).real
    minors = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            minors += (m[i, i] * m[j, j] - m[i, j] * m[j, i]).real
    det = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    ).real
    roots = np.roots([1.0, -tr, minors, -det])
    return np.sort(roots.real)


def _gaussian_rationals(m: np.ndarray) -> list[list[tuple[Fraction, Fraction]]]:
    """The Hermitian part (m + m^H)/2 of a square complex matrix, exactly:
    each entry a (real, imaginary) pair of Fractions."""
    re = [[Fraction(x) for x in row] for row in np.real(m).tolist()]
    im = [[Fraction(x) for x in row] for row in np.imag(m).tolist()]
    d = len(re)
    return [
        [((re[i][j] + re[j][i]) / 2, (im[i][j] - im[j][i]) / 2) for j in range(d)]
        for i in range(d)
    ]


def _exact_vector(v: np.ndarray) -> list[tuple[Fraction, Fraction]]:
    return [(Fraction(z.real), Fraction(z.imag)) for z in np.asarray(v, dtype=complex).tolist()]


def exact_rayleigh(m: np.ndarray, v: np.ndarray) -> Fraction:
    """The Rayleigh quotient v^H H v / v^H v of the Hermitian part H of m, in
    exact arithmetic: an upper bound on the minimum eigenvalue of H, for
    any nonzero vector v, however v was computed."""
    return _rayleigh(_gaussian_rationals(m), _exact_vector(v))


def exact_product_value(m: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> Fraction:
    """<mu nu|H|mu nu> / (|mu|^2 |nu|^2) for the Hermitian part H of m, in
    exact arithmetic, the joint entries mu_i nu_j formed exactly (A-major):
    the value of H on the product state of any nonzero mu and nu, so an upper
    bound on H's product-state infimum, however mu and nu were computed."""
    joint = [
        (ar * br - ai * bi, ar * bi + ai * br)
        for (ar, ai), (br, bi) in product(_exact_vector(mu), _exact_vector(nu))
    ]
    return _rayleigh(_gaussian_rationals(m), joint)


def _rayleigh(h: list, x: list[tuple[Fraction, Fraction]]) -> Fraction:
    """x^H h x / x^H x for a Gaussian-rational Hermitian h and vector x."""
    num = Fraction(0)
    for (ar, ai), row in zip(x, h):
        # Re(conj(x_i) (H x)_i); the imaginary parts cancel over i exactly
        sr = si = Fraction(0)
        for (br, bi), (hr, hi) in zip(x, row):
            sr += hr * br - hi * bi
            si += hr * bi + hi * br
        num += ar * sr + ai * si
    return num / sum(ar * ar + ai * ai for ar, ai in x)


def exact_lower_bound(m: np.ndarray, t: Fraction | float) -> bool:
    """Whether t is proved a strict lower bound on the minimum eigenvalue of
    the Hermitian part H of m: an exact LDL^H factorisation of H - t I whose
    pivots are all positive shows that H - t I is positive definite.  False
    when a pivot is not positive, so nothing is proved."""
    h = _gaussian_rationals(m)
    t = Fraction(t)
    d = len(h)
    # the lower triangle, which the Schur complements overwrite in place
    a = [[h[i][j] for j in range(i + 1)] for i in range(d)]
    for i in range(d):
        a[i][i] = (a[i][i][0] - t, Fraction(0))
    for k in range(d):
        pivot = a[k][k][0]
        if pivot <= 0:
            return False
        for i in range(k + 1, d):
            lr, li = a[i][k][0] / pivot, a[i][k][1] / pivot
            for j in range(k + 1, i + 1):
                # a_ij -= l_ik conj(a_jk)
                br, bi = a[j][k]
                cr, ci = a[i][j]
                a[i][j] = (cr - (lr * br + li * bi), ci - (li * br - lr * bi))
    return True


def hakye_product_min(a: float, b: float, c: float, theta: float) -> float:
    """m = min over unit product vectors ef of <ef|W[a, b, c; theta]|ef>, in
    closed form: W - s I = W[a - s, b - s, c - s; theta] is block-positive
    exactly while s <= min(a, b, c), s <= (a + b + c - p_theta)/3 with
    p_theta = max_k 2 cos(theta + 2 pi k/3), and s <= max(a - 1, s2) with
    s2 = (bc - (1 - a)^2)/(b + c + 2 - 2a); s2 is dropped when its
    denominator is <= 0, where a - 1 >= min(b, c) already binds."""
    p_theta = max(2.0 * math.cos(theta + 2.0 * math.pi * k / 3.0) for k in range(3))
    denominator = b + c + 2.0 - 2.0 * a
    second = a - 1.0
    if denominator > 0.0:
        second = max(second, (b * c - (1.0 - a) ** 2) / denominator)
    return min(a, b, c, (a + b + c - p_theta) / 3.0, second)


def brute_force_partial_transpose(
    entries: np.ndarray, dA: int, dB: int, side: str = "B"
) -> np.ndarray:
    """Entry-by-entry partial transpose via explicit index loops."""
    out = np.zeros_like(entries)
    for i in range(dA):
        for j in range(dB):
            for k in range(dA):
                for l in range(dB):
                    if side == "B":
                        out[i * dB + j, k * dB + l] = entries[i * dB + l, k * dB + j]
                    else:
                        out[i * dB + j, k * dB + l] = entries[k * dB + j, i * dB + l]
    return out


def random_product_batch(
    dA: int, dB: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n joint product unit vectors, one per row."""
    mu = rng.standard_normal((n, dA)) + 1j * rng.standard_normal((n, dA))
    nu = rng.standard_normal((n, dB)) + 1j * rng.standard_normal((n, dB))
    mu /= np.linalg.norm(mu, axis=1, keepdims=True)
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    return np.einsum("na,nb->nab", mu, nu).reshape(n, dA * dB)


def mc_product_min(
    entries: np.ndarray, dA: int, dB: int, n: int, seed: int, batch: int = 200_000
) -> float:
    """Minimum product expectation over n Monte Carlo samples."""
    rng = np.random.default_rng(seed)
    best = np.inf
    remaining = n
    while remaining > 0:
        take = min(batch, remaining)
        joint = random_product_batch(dA, dB, take, rng)
        vals = np.einsum("ni,ij,nj->n", joint.conj(), entries, joint).real
        best = min(best, float(vals.min()))
        remaining -= take
    return best


def _two_qubit_grid_values(
    entries: np.ndarray,
    theta1: np.ndarray,
    phi1: np.ndarray,
    theta2: np.ndarray,
    phi2: np.ndarray,
) -> np.ndarray:
    """Expectations over the full 4-angle grid, shape (t1, p1, t2, p2)."""
    mu = np.stack(
        [
            np.cos(theta1)[:, None] * np.ones_like(phi1)[None, :],
            np.sin(theta1)[:, None] * np.exp(1j * phi1)[None, :],
        ],
        axis=-1,
    ).reshape(-1, 2)
    nu = np.stack(
        [
            np.cos(theta2)[:, None] * np.ones_like(phi2)[None, :],
            np.sin(theta2)[:, None] * np.exp(1j * phi2)[None, :],
        ],
        axis=-1,
    ).reshape(-1, 2)
    t4 = entries.reshape(2, 2, 2, 2)
    vals = np.einsum(
        "mi,nj,ijkl,mk,nl->mn", mu.conj(), nu.conj(), t4, mu, nu, optimize=True
    ).real
    return vals.reshape(theta1.size, phi1.size, theta2.size, phi2.size)


def grid_product_min_two_qubit(
    entries: np.ndarray, levels: int = 5, n: int = 24
) -> float:
    """Nested-refinement 4-angle grid minimum of the product expectation.

    Parametrizes mu = (cos t1, e^{i p1} sin t1), nu likewise; each level
    re-grids a box of +-2 grid cells around the best point, multiplying the
    effective per-axis resolution by (n-1)/4 per level.  The two-cell halo
    keeps the true minimizer inside the box even when it straddles a cell
    boundary at the coarser level.
    """
    lo = np.array([0.0, 0.0, 0.0, 0.0])
    hi = np.array([np.pi / 2, 2 * np.pi, np.pi / 2, 2 * np.pi])
    best_val = np.inf
    for _ in range(levels):
        axes = [np.linspace(lo[k], hi[k], n) for k in range(4)]
        vals = _two_qubit_grid_values(entries, *axes)
        idx = np.unravel_index(int(vals.argmin()), vals.shape)
        best_val = min(best_val, float(vals[idx]))
        center = np.array([axes[k][idx[k]] for k in range(4)])
        spacing = (hi - lo) / (n - 1)
        lo = center - 2.0 * spacing
        hi = center + 2.0 * spacing
    return best_val


def haar_one_at_a_time(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-random unit vector in C^d: a normalised complex Gaussian."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def geometry_rows_one_at_a_time(
    witness_op: HermitianOperator, samples: int, seed: int = 0
) -> list[dict]:
    """The geometry rows built one state object at a time.

    Draws as the per-object samplers did (one Gaussian matrix pair per
    density, Dirichlet weights and one Haar vector per factor per mixture),
    mixes with np.kron and np.outer term by term, and validates and measures
    each state through DensityOperator, pt_min_eigenvalue, hs_inner and
    hyperplane_classify.
    """
    dims = witness_op.dims
    d = dims.dAB
    rng = np.random.default_rng(seed)
    _, ground = min_eigenpair(witness_op)
    states = [("ground-projector", HermitianOperator(dims, np.outer(ground, ground.conj())))]
    for _ in range(samples):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        m = (m + m.conj().T) / 2.0
        m /= np.trace(m).real
        states.append(("random-density", HermitianOperator(dims, m)))
    for _ in range(samples):
        weights = rng.dirichlet(2.0 * np.ones(2 * d))
        weights = weights / weights.sum()
        factors = [
            (haar_one_at_a_time(dims.dA, rng), haar_one_at_a_time(dims.dB, rng))
            for _ in weights
        ]
        ensemble = SeparableEnsemble(dims, weights, *zip(*factors))
        acc = np.zeros((d, d), dtype=np.complex128)
        for weight, a, b in zip(ensemble.weights, ensemble.mu, ensemble.nu):
            v = np.kron(a, b)
            acc += weight * np.outer(v, v.conj())
        states.append(("separable-ensemble", HermitianOperator(dims, acc)))
    rows = []
    for source, op in states:
        rho = DensityOperator(op, Provenance.UNKNOWN)
        rows.append({
            "source": source,
            "witness_value": float(hs_inner(rho.op, witness_op)),
            "min_pt_eigenvalue": float(pt_min_eigenvalue(rho.op)),
            "purity": float(hs_norm(rho.op) ** 2),
            "classification": hyperplane_classify(witness_op, rho).value,
        })
    return rows


def check_density_eigh_only(m: np.ndarray) -> str | None:
    """The NotADensity message for the (..., d, d) stack m, or None if it is
    accepted, by the density rule with eigh alone: trace 1 to
    DENSITY_TRACE_TOL, then no eigenvalue below -DENSITY_MIN_EIG_TOL."""

    def first(bad):
        at = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), bad.shape))
        return at, (f"matrix {at}: " if at else "")

    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = ~(np.abs(tr - 1.0) <= DENSITY_TRACE_TOL)
    if bad.any():
        at, where = first(bad)
        return f"{where}trace is {float(tr[at])!r}, expected 1"
    min_eig = np.linalg.eigh(m)[0][..., 0]
    bad = ~(min_eig >= -DENSITY_MIN_EIG_TOL)
    if bad.any():
        at, where = first(bad)
        return f"{where}minimum eigenvalue {float(min_eig[at])!r} is negative"
    return None


def draw_ensembles_dirichlet_loop(
    dims: Dims, n: int, n_terms: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n separable ensembles drawn one at a time: rng.dirichlet(2) weights
    rescaled to sum 1, then one standard_normal draw of the ensemble's
    factors, normalised one vector at a time."""
    dA, dB = dims.dA, dims.dB
    weights = np.empty((n, n_terms))
    mu = np.empty((n, n_terms, dA), dtype=np.complex128)
    nu = np.empty((n, n_terms, dB), dtype=np.complex128)
    for k in range(n):
        w = rng.dirichlet(2.0 * np.ones(n_terms))
        weights[k] = w / w.sum()
        z = rng.standard_normal((n_terms, 2 * dA + 2 * dB))
        for t in range(n_terms):
            a = z[t, :dA] + 1j * z[t, dA : 2 * dA]
            b = z[t, 2 * dA : 2 * dA + dB] + 1j * z[t, 2 * dA + dB :]
            mu[k, t] = a / np.linalg.norm(a)
            nu[k, t] = b / np.linalg.norm(b)
    return weights, mu, nu


def hakye_spectra_one_at_a_time(a: float, b: float, c: float, theta: float) -> tuple:
    """Closed-form sorted spectra of one Ha-Kye witness and of its partial
    transpose, in scalar float arithmetic."""
    circulant = [a - 2.0 * math.cos(theta + 2.0 * math.pi * k / 3.0) for k in range(3)]
    mid = b / 2.0 + c / 2.0
    radius = math.hypot((b - c) / 2.0, 1.0)
    return (
        np.sort(np.array(circulant + [b] * 3 + [c] * 3)),
        np.sort(np.array([mid - radius, mid + radius] * 3 + [a] * 3)),
    )


def _expectation_raw(entries: np.ndarray, joint: np.ndarray) -> float:
    """<v|entries|v>.real for one joint vector v, as one vector-matrix-vector
    product: the bits the stacked product-expectation kernel gives each row."""
    return float((joint.conj() @ entries @ joint).real)


def gap_rule_one_at_a_time(
    lam0: float, lam0_pt: float, trace: float, dAB: int
) -> tuple[float, list[tuple[float, float, float]]]:
    """The gap and, for the SPA of W then of W^PT, (shift, SPA trace, raw
    PT floor) in scalar float arithmetic."""
    sides = []
    for lam, floor in ((lam0, lam0_pt), (lam0_pt, lam0)):
        s = max(0.0, -lam)
        sides.append((s, trace + dAB * s, floor + s))
    return abs(lam0 - lam0_pt), sides


def grid_one_at_a_time(axes: list, fixed: dict, cos_family: bool = False) -> list[HaKyeParams]:
    """The grid as one validated HaKyeParams per point, in the order of the
    Cartesian product of the axes sorted by key (fixed and scanned keys are
    assumed consistent)."""
    axes = sorted(axes, key=lambda axis: axis.key)
    if cos_family:
        thetas = axes[0].values().tolist() if axes else [fixed["theta"]]
        for theta in thetas:  # every theta is checked before any point is built
            if not math.isfinite(theta):
                raise InvalidParams(f"theta must be finite, got {theta!r}")
        points = []
        for theta in thetas:
            ct = math.cos(theta)
            points.append(HaKyeParams(4.0 * ct / 3.0, 2.0 * ct / 3.0, 0.0, theta))
        return points
    points = []
    for combo in product(*[axis.values() for axis in axes]):
        values = dict(fixed)
        values.update({axis.key: float(v) for axis, v in zip(axes, combo)})
        points.append(HaKyeParams(values["a"], values["b"], values["c"], values["theta"]))
    return points


def scan_row_one_at_a_time(p: HaKyeParams, condition_tol: float) -> dict:
    """One scan row from a single witness object: the scalar closed forms,
    their certificate on that one matrix, the scalar gap arithmetic, and
    its own eigensolves of W and W^PT.  A row whose solved spectra fall
    outside the certified bound reads "certificate-failed", as an
    uncertified row does, so a bound that does not hold fails the parity."""
    w = hakye_witness(p)
    closed, closed_pt = hakye_spectra_one_at_a_time(p.a, p.b, p.c, p.theta)
    [bound], [within_tol] = certify_spectra(w.entries[None], closed[None], closed_pt[None])
    spectrum, _ = eig_hermitian(w)
    spectrum_pt, _ = eig_hermitian(partial_transpose(w))
    off = max(float(np.abs(spectrum - closed).max()), float(np.abs(spectrum_pt - closed_pt).max()))
    lam0, lam0_pt = float(closed[0]), float(closed_pt[0])
    gap, sides = gap_rule_one_at_a_time(lam0, lam0_pt, float(np.trace(w.entries).real), 9)
    condition = gap > condition_tol
    if not (within_tol and off <= bound and abs(gap - condition_tol) > bound):
        verdict = "certificate-failed"
    elif condition:
        verdict = "VIOLATES"
    else:
        verdict = "CONSISTENT"
    return {
        "a": p.a, "b": p.b, "c": p.c, "theta": p.theta,
        "lambda0_W": lam0, "lambda0_WGamma": lam0_pt, "gap": gap,
        "condition_holds": condition, "spa_min_pt_eig": sides[0][2],
        "verdict": verdict, "spectral_bound": float(bound),
    }


def scan_report_reference(
    rows: list[dict], notes: tuple[str, ...] = (), generated: str | None = None
) -> str:
    """The scan's JSON report as the whole-document encoder writes it."""
    doc: dict = {"schema_version": 1, "kind": "hakye-scan-v2"}
    if notes:
        doc["notes"] = list(notes)
    if generated is not None:
        doc["generated"] = generated
    doc["rows"] = rows
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def rows_csv_row_by_row(
    rows: list[dict],
    columns: tuple[str, ...],
    schema: str,
    notes: tuple[str, ...] = (),
    generated: str | None = None,
) -> str:
    """A versioned-header CSV report written one row at a time."""

    def cell(value) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    out = io.StringIO()
    out.write(f"# schema={schema}\r\n")
    for note in notes:
        out.write(f"# note={note}\r\n")
    if generated is not None:
        out.write(f"# generated={generated}\r\n")
    writer = csv.writer(out, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([cell(row[col]) for col in columns])
    return out.getvalue()


def save_operator_per_entry(op: HermitianOperator, path, metadata: dict | None = None) -> None:
    """An operator file written with one [real, imag] pair built per entry."""
    if not np.isfinite(op.entries).all():
        raise ParseError("operator has non-finite entries; cannot serialize")
    cells = [[[z.real, z.imag] for z in row] for row in op.entries.tolist()]
    doc: dict = {
        "schema_version": 1,
        "dims": {"dA": op.dims.dA, "dB": op.dims.dB},
        "entries": cells,
    }
    if metadata:
        doc["metadata"] = metadata
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def load_operator_file_per_cell(path) -> tuple[HermitianOperator, dict]:
    """An operator file loaded and validated one cell at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    version = doc.get("schema_version")
    if isinstance(version, bool) or not isinstance(version, int) or version != 1:
        raise ParseError(
            f"{path}: schema_version {version!r} unsupported, expected 1"
        )
    dims_doc = doc.get("dims")
    if (
        not isinstance(dims_doc, dict)
        or not all(
            isinstance(dims_doc.get(k), int) and not isinstance(dims_doc.get(k), bool)
            for k in ("dA", "dB")
        )
    ):
        raise ParseError(f"{path}: dims must be an object with integer dA and dB")
    dims = Dims(dims_doc["dA"], dims_doc["dB"])
    rows = doc.get("entries")
    if not isinstance(rows, list) or len(rows) != dims.dAB:
        got = len(rows) if isinstance(rows, list) else type(rows).__name__
        raise DimensionMismatch(f"{path}: entries have {got} rows, dims demand {dims.dAB}")
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
    for key, value in metadata.items():
        if not isinstance(value, str):
            raise ParseError(
                f"{path}: metadata {key!r} must be a string, not {type(value).__name__}"
            )
    return HermitianOperator(dims, matrix), metadata
