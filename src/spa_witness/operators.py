"""Dense Hermitian operators on a bipartite product space.

Operators act on H_A (x) H_B with the product basis ordered A-major: the
basis vector |i>_A (x) |j>_B occupies row i*dB + j, which is exactly the
ordering produced by ``numpy.kron``.  All wrapper objects are immutable
(frozen dataclasses over read-only arrays) and every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, InvalidParams, NonRealResult
from .errors import NotHermitian, ZeroTrace

HERMITICITY_TOL = 1e-12
DEFAULT_EIG_TOL = 1e-10
_ORTHONORMALITY_TOL = 1e-8
_IMAG_TRACE_TOL = 1e-10
_MIN_TRACE = 1e-12


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _first_failure(bad: np.ndarray, noun: str = "matrix") -> tuple[tuple[int, ...], str]:
    """Index of the first True entry of a per-item mask, and a "matrix (i,): "
    prefix naming it; both are empty for a single item."""
    at = tuple(int(i) for i in np.unravel_index(int(np.argmax(bad)), np.shape(bad)))
    return at, (f"{noun} {at}: " if at else "")


def check_tol(tol: float) -> None:
    """Raise InvalidParams unless the tolerance tol is finite and >= 0."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise InvalidParams(f"tolerance must be finite and >= 0, got {tol!r}")


def check_seed(seed: int | np.random.Generator) -> None:
    """Raise InvalidParams if seed is an int below 0; a Generator passes."""
    if not isinstance(seed, np.random.Generator) and seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed!r}")


def real_traces(m: np.ndarray) -> np.ndarray:
    """Real trace of each matrix of a (..., d, d) stack; an overflowing sum is inf, silently."""
    with np.errstate(over="ignore"):
        return np.trace(m, axis1=-2, axis2=-1).real


def check_trace(tr: float, what: str) -> float:
    """tr, when an operator may be normalized by it; ZeroTrace unless
    _MIN_TRACE < tr < inf, so a nan or an overflowed trace fails too."""
    if not _MIN_TRACE < tr < np.inf:
        raise ZeroTrace(f"{what} has trace {tr!r}; cannot normalize")
    return tr


def lapack_eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(m), unchecked, for the (..., d, d) Hermitian stack m;
    LAPACK failure is ConvergenceFailure."""
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc


def check_hermitian(m: np.ndarray) -> None:
    """Raise NotHermitian unless each matrix of the (..., d, d) stack m is
    finite and Hermitian to HERMITICITY_TOL, naming the offending entry."""
    # inf - inf and overflowing differences give nan or inf, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
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
        return float(real_traces(self.entries))


def shifted(op: HermitianOperator, s: float) -> HermitianOperator:
    """op + s*I for real s."""
    return HermitianOperator(
        op.dims, op.entries + float(s) * np.eye(op.dims.dAB, dtype=np.complex128)
    )


def scaled(op: HermitianOperator, factor: float) -> HermitianOperator:
    """factor*op for real factor."""
    return HermitianOperator(op.dims, float(factor) * op.entries)


def entry_scale(m: np.ndarray) -> np.ndarray:
    """p, the power of two at or below s = max(1, largest |real part| or
    |imaginary part| of an entry), for each matrix of a (..., d, d) stack,
    real or complex, and a non-finite s as it is.  No part of m/p reaches 2,
    so no square or sum of squares of m/p overflows, and dividing by p and
    multiplying back are exact for normal results.  One pass over the
    float64 view of m as contiguous complex128."""
    parts = np.ascontiguousarray(m, dtype=np.complex128).view(np.float64)
    s = np.abs(parts).max(axis=(-2, -1), initial=1.0)
    return np.where(np.isfinite(s), np.ldexp(1.0, np.frexp(s)[1] - 1), s)


def eigh_checked(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of each matrix of a (..., d, d) Hermitian stack, verified.

    LAPACK solves A/p, p = entry_scale(A), and its eigenvalues come back
    times p: both scalings are exact, so an eigenvalue is inf only past the
    float range, and below LAPACK's own rescale (entries near 1e146) the
    bits are np.linalg.eigh(A)'s.  Residuals ||(A/p) v_k - w_k v_k|| are
    checked against DEFAULT_EIG_TOL*max(1, ||A/p||_HS), which is
    DEFAULT_EIG_TOL*max(1, ||A||_HS)/p since p <= ||A|| where p > 1, and
    eigenvector overlaps to _ORTHONORMALITY_TOL, in one pass over the
    stack; violations raise ConvergenceFailure naming the matrix.
    """
    p = entry_scale(stack)
    a = stack / p[..., None, None]
    w, v = lapack_eig(a)
    # both sides squared, to spare the square roots; no square of a overflows
    r = a @ v - v * w[..., None, :]
    residual2 = np.vecdot(r, r, axis=-2).real.max(axis=-1)
    limit2 = DEFAULT_EIG_TOL**2 * np.maximum(1.0, np.vecdot(a, a).real.sum(axis=-1))
    ok = residual2 <= limit2
    if not ok.all():
        at, where = _first_failure(~ok)
        residual, limit = (float(np.sqrt(x[at])) * float(p[at]) for x in (residual2, limit2))
        raise ConvergenceFailure(f"{where}eigenpair residual {residual:.3e} exceeds {limit:.3e}")
    gram = np.abs(v.mT.conj() @ v - np.eye(stack.shape[-1])).max(axis=(-2, -1))
    ok = gram <= _ORTHONORMALITY_TOL
    if not ok.all():
        at, where = _first_failure(~ok)
        raise ConvergenceFailure(f"{where}eigenvectors lost orthonormality by {gram[at]:.3e}")
    with np.errstate(over="ignore"):  # an eigenvalue past the float range is +-inf
        return w * p[..., None], v


def spectra_with_pt(m: np.ndarray, dims: Dims) -> np.ndarray:
    """The (2, ..., dAB) ascending spectra of the (..., dAB, dAB) stack m and
    of its partial transpose, from one checked, stacked eigensolve."""
    w, _ = eigh_checked(np.stack([m, partial_transpose_stack(m, dims)]))
    return w


def eig_hermitian(op: HermitianOperator) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (ascending eigenvalues, orthonormal column eigenvectors) of
    op, verified by eigh_checked."""
    w, v = eigh_checked(op.entries)
    return _read_only(w), _read_only(v)


def min_eigenpair(op: HermitianOperator) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector for it."""
    w, v = eig_hermitian(op)
    return float(w[0]), v[:, 0].copy()


def partial_transpose(op: HermitianOperator) -> HermitianOperator:
    """Transpose the second tensor factor, leaving the first untouched.

    The entry map is output[(i,j),(k,l)] = input[(i,l),(k,j)].  Transposing
    the first factor instead gives the full transpose of this result, so
    both choices share every spectrum and every PPT verdict.
    """
    return HermitianOperator(op.dims, partial_transpose_stack(op.entries, op.dims))


def partial_transpose_stack(m: np.ndarray, dims: Dims) -> np.ndarray:
    """partial_transpose of each matrix of a (..., dAB, dAB) stack, as a new array."""
    t = m.reshape(*m.shape[:-2], dims.dA, dims.dB, dims.dA, dims.dB)
    return np.swapaxes(t, -3, -1).reshape(m.shape)


def hs_inner(a: HermitianOperator, b: HermitianOperator) -> float:
    """Hilbert-Schmidt inner product tr(a b), real for Hermitian arguments."""
    if a.dims != b.dims:
        raise DimensionMismatch(f"operand dims differ: {a.dims} vs {b.dims}")
    return float(hs_inner_stack(a.entries, b.entries))


def hs_inner_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a_k b) for each matrix a_k of a (..., d, d) stack, real for
    Hermitian arguments; NonRealResult names a matrix whose trace is not,
    or whose real part is nan or +-inf (a non-finite or overflowing operand)."""
    with np.errstate(invalid="ignore", over="ignore"):  # refused below
        val = np.trace(a @ b, axis1=-2, axis2=-1)
    imag_ok = np.abs(val.imag) <= _IMAG_TRACE_TOL
    bad = ~(imag_ok & np.isfinite(val.real))
    if bad.any():
        at, where = _first_failure(bad)
        fault = (
            f"real part {float(val.real[at])!r}, not finite" if imag_ok[at]
            else f"imaginary part {float(val.imag[at]):.3e}; inputs are too asymmetric"
        )
        raise NonRealResult(f"{where}tr(a b) has {fault}")
    return val.real


def hs_norm(op: HermitianOperator) -> float:
    """Hilbert-Schmidt norm sqrt(tr op^2), as p*||op/p|| for p = entry_scale:
    scaling by p is exact and no square of an entry of op/p overflows, so
    only a norm past the float range is inf."""
    p = float(entry_scale(op.entries))
    return p * float(np.linalg.norm(op.entries / p))
