"""Dense Hermitian operators on a bipartite product space.

Operators act on H_A (x) H_B with the product basis ordered A-major: the
basis vector |i>_A (x) |j>_B occupies row i*dB + j, which is exactly the
ordering produced by ``numpy.kron``.  All wrapper objects are immutable
(frozen dataclasses over read-only arrays) and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonRealResult, NotHermitian

HERMITICITY_TOL = 1e-12
DEFAULT_EIG_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-9
_ORTHONORMALITY_TOL = 1e-8
_IMAG_TRACE_TOL = 1e-10
# row and column axes of the transposed factor in the (dA, dB, dA, dB) view
_PT_SWAPPED_AXES = {"A": (-4, -2), "B": (-3, -1)}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def check_hermitian(m: np.ndarray) -> None:
    """Raise NotHermitian unless each matrix of the (..., d, d) stack m is
    finite and Hermitian to HERMITICITY_TOL, naming the offending entry."""
    asym = np.abs(m - m.mT.conj())
    worst = float(asym.max())
    # a non-finite entry makes its asymmetry inf or nan, so it fails here
    if worst <= HERMITICITY_TOL:
        return
    finite = bool(np.isfinite(m).all())
    at = np.unravel_index(asym.argmax(), asym.shape) if finite else np.argwhere(~np.isfinite(m))[0]
    *matrix, r, s = (int(i) for i in at)
    where = (f"matrix {tuple(matrix)}, " if matrix else "") + f"row {r}, column {s}"
    if not finite:
        raise NotHermitian(f"non-finite entry at {where}")
    raise NotHermitian(f"max asymmetry {worst:.3e} at {where} (tolerance {HERMITICITY_TOL:.0e})")


@dataclass(frozen=True)
class Dims:
    """Subsystem dimensions (dA, dB); the joint space has side dA*dB."""

    dA: int
    dB: int

    def __post_init__(self) -> None:
        if self.dA < 2 or self.dB < 2:
            raise DimensionMismatch(
                f"subsystem dimensions must both be >= 2, got ({self.dA}, {self.dB})"
            )

    @property
    def dAB(self) -> int:
        return self.dA * self.dB


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A validated Hermitian matrix on the joint space, stored dense."""

    dims: Dims
    entries: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.entries, dtype=np.complex128, copy=True)
        d = self.dims.dAB
        if m.ndim != 2 or m.shape != (d, d):
            raise DimensionMismatch(
                f"expected a {d}x{d} matrix for dims ({self.dims.dA}, {self.dims.dB}), "
                f"got shape {m.shape}"
            )
        check_hermitian(m)
        object.__setattr__(self, "entries", _read_only(m))

    @property
    def trace(self) -> float:
        """Trace, real by Hermiticity (imaginary residue discarded)."""
        return float(np.trace(self.entries).real)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Full eigensystem: ascending eigenvalues, orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


def make_hermitian(entries: np.ndarray, dims: Dims) -> HermitianOperator:
    """Validate and wrap a square complex matrix as a Hermitian operator."""
    return HermitianOperator(dims, np.asarray(entries, dtype=np.complex128))


def identity(dims: Dims) -> HermitianOperator:
    """The identity operator on the joint space."""
    return HermitianOperator(dims, np.eye(dims.dAB, dtype=np.complex128))


def shifted(op: HermitianOperator, s: float) -> HermitianOperator:
    """op + s*I for real s."""
    return HermitianOperator(
        op.dims, op.entries + float(s) * np.eye(op.dims.dAB, dtype=np.complex128)
    )


def scaled(op: HermitianOperator, factor: float) -> HermitianOperator:
    """factor*op for real factor."""
    return HermitianOperator(op.dims, float(factor) * op.entries)


def _squared_residuals(
    m: np.ndarray, w: np.ndarray, v: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Largest squared residual ||A v_k - w_k v_k||^2 of each matrix of the
    stack, and its squared limit tol^2 * max(1, ||A||^2)."""
    # both sides squared, to spare the square roots
    r = m @ v - v * w[..., None, :]
    residual2 = np.vecdot(r, r, axis=-2).real.max(axis=-1)
    limit2 = tol**2 * np.maximum(1.0, np.vecdot(m, m).real.sum(axis=-1))
    return residual2, limit2


def eigh_checked(m: np.ndarray, tol: float = DEFAULT_EIG_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of each matrix of a (..., d, d) Hermitian stack, verified.

    Residuals ||A v_k - w_k v_k|| are checked against tol*max(1, ||A||) where
    ||.|| is the Hilbert-Schmidt norm of each matrix; pairwise eigenvector
    overlaps are checked to 1e-8.  Violations raise ConvergenceFailure.
    """
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    s = 1.0
    residual2, limit2 = _squared_residuals(m, w, v, tol)
    if not (limit2 < np.inf).all():
        # Squares of entries beyond ~1e154 overflow.  Run the same test on
        # m/s with s = max(1, max |entry|) per matrix, whose eigenpairs are
        # (w/s, v): where s > 1, ||A||/s >= 1, so both sides scale by 1/s.
        s = np.abs(m).max(axis=(-2, -1), initial=1.0)
        residual2, limit2 = _squared_residuals(m / s[..., None, None], w / s[..., None], v, tol)
    ok = residual2 <= limit2
    if not ok.all():
        k = int(np.argmin(ok))
        scale = np.broadcast_to(s, ok.shape).flat[k]
        raise ConvergenceFailure(
            f"eigenpair residual {np.sqrt(residual2.flat[k]) * scale:.3e} exceeds "
            f"{np.sqrt(limit2.flat[k]) * scale:.3e}"
        )
    gram = np.abs(v.mT.conj() @ v - np.eye(m.shape[-1]))
    if not float(gram.max()) <= _ORTHONORMALITY_TOL:
        raise ConvergenceFailure(f"eigenvectors lost orthonormality by {float(gram.max()):.3e}")
    return w, v


def eig_hermitian(op: HermitianOperator, tol: float = DEFAULT_EIG_TOL) -> Spectrum:
    """Eigendecomposition of op, verified by eigh_checked."""
    w, v = eigh_checked(op.entries, tol)
    return Spectrum(_read_only(w), _read_only(v))


def min_eigenpair(op: HermitianOperator) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector for it."""
    spectrum = eig_hermitian(op)
    return spectrum.min_eigenvalue, spectrum.eigenvectors[:, 0].copy()


def partial_transpose(op: HermitianOperator, subsystem: str = "B") -> HermitianOperator:
    """Transpose one tensor factor, leaving the other untouched.

    For the default B side the entry map is
    output[(i,j),(k,l)] = input[(i,l),(k,j)]; the A side transposes the first
    factor instead.  Both sides yield the same spectrum.
    """
    out = partial_transpose_stack(op.entries, op.dims, subsystem)
    # an entry permutation commuting with the conjugate transpose keeps op
    # exactly as Hermitian and finite as it was, so validation is skipped
    pt = object.__new__(HermitianOperator)
    object.__setattr__(pt, "dims", op.dims)
    object.__setattr__(pt, "entries", _read_only(out))
    return pt


def partial_transpose_stack(m: np.ndarray, dims: Dims, subsystem: str = "B") -> np.ndarray:
    """partial_transpose of each matrix of a (..., dAB, dAB) stack, as a new array."""
    if subsystem not in _PT_SWAPPED_AXES:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    t = m.reshape(*m.shape[:-2], dims.dA, dims.dB, dims.dA, dims.dB)
    return np.swapaxes(t, *_PT_SWAPPED_AXES[subsystem]).reshape(m.shape)


def hs_inner(a: HermitianOperator, b: HermitianOperator) -> float:
    """Hilbert-Schmidt inner product tr(a b), real for Hermitian arguments."""
    if a.dims != b.dims:
        raise DimensionMismatch(f"operand dims differ: {a.dims} vs {b.dims}")
    val = complex(np.trace(a.entries @ b.entries))
    if abs(val.imag) > _IMAG_TRACE_TOL:
        raise NonRealResult(
            f"tr(a b) has imaginary part {val.imag:.3e}; inputs are too asymmetric"
        )
    return val.real


def hs_norm(op: HermitianOperator) -> float:
    """Hilbert-Schmidt norm sqrt(tr op^2)."""
    return float(np.linalg.norm(op.entries))


def numeric_rank(op: HermitianOperator, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of eigenvalues above tol times the largest magnitude eigenvalue."""
    try:
        w = np.abs(np.linalg.eigvalsh(op.entries))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    top = float(w.max())
    if top == 0.0:
        return 0
    return int(np.count_nonzero(w > tol * top))
