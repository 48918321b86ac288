"""Independent numerical oracles used to cross-check library results.

Everything here recomputes quantities through a different route than the
library: characteristic polynomials instead of eigh, brute-force index
loops instead of reshape/transpose, and direct sampling or grid search
instead of the see-saw.  Keep these free of spa_witness internals beyond
plain array access; the one exception is geometry_rows_one_at_a_time, the
per-object route that the stacked geometry rows must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from spa_witness.operators import HermitianOperator, hs_inner, hs_norm, min_eigenpair
from spa_witness.spa import hyperplane_classify, pt_min_eigenvalue
from spa_witness.states import (
    DensityOperator,
    ProductVector,
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


def _haar_one_at_a_time(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def geometry_rows_one_at_a_time(
    witness_op: HermitianOperator, samples: int, seed: int = 0, tol: float = 1e-8
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
        terms = tuple(
            (float(w), ProductVector(
                _haar_one_at_a_time(dims.dA, rng), _haar_one_at_a_time(dims.dB, rng)
            ))
            for w in weights
        )
        acc = np.zeros((d, d), dtype=np.complex128)
        for weight, pv in SeparableEnsemble(dims, terms).terms:
            v = np.kron(pv.mu_a, pv.nu_b)
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
            "classification": hyperplane_classify(witness_op, rho, tol).value,
        })
    return rows
