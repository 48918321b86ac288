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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
        asym = np.abs(m - m.conj().T)
        worst = float(asym.max())
        # a non-finite entry makes its asymmetry inf or nan, so it fails here
        if not worst <= HERMITICITY_TOL:
            if not np.isfinite(m).all():
                r, s = np.argwhere(~np.isfinite(m))[0]
                raise NotHermitian(f"non-finite entry at row {r}, column {s}")
            r, s = np.unravel_index(int(asym.argmax()), asym.shape)
            raise NotHermitian(
                f"max asymmetry {worst:.3e} at row {int(r)}, column {int(s)} "
                f"(tolerance {HERMITICITY_TOL:.0e})"
            )
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


def eig_hermitian(op: HermitianOperator, tol: float = DEFAULT_EIG_TOL) -> Spectrum:
    """Eigendecomposition with residual and orthonormality verification.

    Residuals ||A v_k - w_k v_k|| are checked against tol*max(1, ||A||) where
    ||.|| is the Hilbert-Schmidt norm; pairwise eigenvector overlaps are
    checked to 1e-8.  Violations raise ConvergenceFailure.
    """
    try:
        w, v = np.linalg.eigh(op.entries)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    scale = max(1.0, hs_norm(op))
    residual = np.linalg.norm(op.entries @ v - v * w, axis=0)
    if not float(residual.max()) <= tol * scale:
        raise ConvergenceFailure(
            f"eigenpair residual {float(residual.max()):.3e} exceeds {tol * scale:.3e}"
        )
    gram = v.conj().T @ v - np.eye(op.dims.dAB)
    if not float(np.abs(gram).max()) <= _ORTHONORMALITY_TOL:
        raise ConvergenceFailure(
            f"eigenvectors lost orthonormality by {float(np.abs(gram).max()):.3e}"
        )
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
    dA, dB = op.dims.dA, op.dims.dB
    t = op.entries.reshape(dA, dB, dA, dB)
    if subsystem == "B":
        out = t.transpose(0, 3, 2, 1)
    elif subsystem == "A":
        out = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    # an entry permutation commuting with the conjugate transpose keeps op
    # exactly as Hermitian and finite as it was, so validation is skipped
    pt = object.__new__(HermitianOperator)
    object.__setattr__(pt, "dims", op.dims)
    object.__setattr__(pt, "entries", _read_only(out.reshape(op.dims.dAB, op.dims.dAB)))
    return pt


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
