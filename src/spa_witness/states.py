"""Product vectors, separable ensembles, density operators, random sampling.

Separability is tracked as provenance, never inferred: a density either was
built as a convex mixture of product projectors (separable-by-construction),
or nothing is known.

Sampling, mixing and validation work on stacks: ``draw_densities``,
``draw_ensembles`` and ``mix_products`` build (n, dAB, dAB) stacks, and
``check_density`` and ``check_product_terms`` check every matrix, factor and
weight of a stack at once.  ``check_density`` proves positivity with one
stacked Cholesky factorisation and computes eigenvalues only for a stack
that this does not accept.  The one-object constructors and samplers go
through the same functions, so a state has the same bits either way.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParams, NotADensity, WeightSumError
from .operators import Dims, HermitianOperator, _first_failure, _read_only, check_seed, lapack_eig
from .operators import real_traces

UNIT_NORM_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-10
DENSITY_MIN_EIG_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12


class Provenance(enum.Enum):
    """How much is known about separability of a density operator."""

    SEPARABLE = "separable-by-construction"
    UNKNOWN = "unknown"


def vector_norms(z: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a complex (..., d) stack.

    Summed as np.linalg.norm sums one complex vector (real parts, then
    imaginary parts), so each row gets the bits a one-vector norm gives it.
    """
    return np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))


def unit_rows(z: np.ndarray) -> np.ndarray:
    """Each row of a complex (..., d) stack divided by its norm."""
    return z / vector_norms(z)[..., None]


def joint_vectors(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """mu (x) nu for each row of (..., dA) and (..., dB) stacks.

    The same elementwise products as np.kron, bit for bit, without its
    fixed cost per call.
    """
    return (mu[..., :, None] * nu[..., None, :]).reshape(
        *mu.shape[:-1], mu.shape[-1] * nu.shape[-1]
    )


def _unit_factors(z: np.ndarray, dims: Dims) -> tuple[np.ndarray, np.ndarray]:
    # rows of raw draws: real and imaginary parts of mu, then those of nu
    dA, dB = dims.dA, dims.dB
    mu = unit_rows(z[..., :dA] + 1j * z[..., dA : 2 * dA])
    nu = unit_rows(z[..., 2 * dA : 2 * dA + dB] + 1j * z[..., 2 * dA + dB :])
    return mu, nu


def haar_product_factors(
    dims: Dims, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n Haar factor pairs as (n, dA) and (n, dB) stacks, from one draw.

    Pair by pair, the draw holds mu's real then imaginary parts, then nu's,
    so each row has the bits of normalising one complex Gaussian at a time.
    """
    return _unit_factors(rng.standard_normal((n, 2 * dims.dA + 2 * dims.dB)), dims)


def draw_densities(dims: Dims, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Hilbert-Schmidt random densities as an (n, dAB, dAB) stack.

    Each is G G^dag / tr(G G^dag) with G complex Gaussian; the one draw holds
    the real, then the imaginary parts of each G, the stream of n
    random_density calls.
    """
    d = dims.dAB
    z = rng.standard_normal((n, 2, d, d))
    g = z[:, 0] + 1j * z[:, 1]
    m = g @ g.conj().mT
    m = (m + m.conj().mT) / 2.0
    m /= real_traces(m)[:, None, None]
    return m


def draw_ensembles(
    dims: Dims, n: int, n_terms: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (n, n_terms) and unit factors (n, n_terms, dA), (n, n_terms, dB)
    of n random separable ensembles.

    Drawn one ensemble at a time: Dirichlet(2) weights rescaled to sum 1,
    then the factors' draw of haar_product_factors(dims, n_terms, rng).
    """
    gammas = np.empty((n, n_terms))
    z = np.empty((n, n_terms, 2 * dims.dA + 2 * dims.dB))
    for k in range(n):
        rng.standard_gamma(2.0, out=gammas[k])
        rng.standard_normal(out=z[k])
    # the bits of rng.dirichlet(2.0 * np.ones(n_terms)): for alpha > 0.1 numpy
    # draws standard gammas and multiplies them by the reciprocal of their
    # left-to-right sum; then the rescale to sum 1
    w = gammas * (1.0 / np.cumsum(gammas, axis=-1)[:, -1:])
    return (w / w.sum(axis=-1, keepdims=True), *_unit_factors(z, dims))


def mix_products(weights: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """sum_t w_t |mu_t nu_t><mu_t nu_t| for each row of (n, T) weights and
    (n, T, dA), (n, T, dB) factor stacks, as an (n, dAB, dAB) stack.

    Mixed term by term in term order, so each matrix has the bits of adding
    its weighted projectors one at a time.
    """
    n, n_terms = weights.shape
    d = mu.shape[-1] * nu.shape[-1]
    acc = np.zeros((n, d, d), dtype=np.complex128)
    for t in range(n_terms):
        v = joint_vectors(mu[:, t], nu[:, t])
        acc += weights[:, t, None, None] * (v[:, :, None] * v.conj()[:, None, :])
    return acc


def _check_unit_norm(name: str, vecs: np.ndarray) -> None:
    norms = vector_norms(vecs)
    bad = ~(np.abs(norms - 1.0) <= UNIT_NORM_TOL)
    if bad.any():
        at, _ = _first_failure(bad)
        label = f"{name} {at}" if at else name
        raise InvalidParams(
            f"{label} is not unit norm: ||{name}|| = {float(norms[at])!r}"
        )


def _check_weights(weights: np.ndarray) -> None:
    if weights.shape[-1] == 0:
        raise WeightSumError("an ensemble needs at least one term")
    bad = ~(weights > 0.0)
    if bad.any():
        at, _ = _first_failure(bad)
        where = f"ensemble {at[:-1]}: " if at[:-1] else ""
        raise WeightSumError(
            f"{where}every weight must be positive, got {float(weights[at])!r}"
        )
    # summed left to right, one weight at a time
    total = np.cumsum(weights, axis=-1)[..., -1]
    bad = ~(np.abs(total - 1.0) <= WEIGHT_SUM_TOL)
    if bad.any():
        at, where = _first_failure(bad, "ensemble")
        raise WeightSumError(f"{where}weights sum to {float(total[at])!r}, expected 1")


def check_product_terms(weights: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> None:
    """Raise unless every factor of the (..., T, dA) and (..., T, dB) stacks
    has unit norm to UNIT_NORM_TOL (InvalidParams), and every row of the
    (..., T >= 1) weights is positive and sums to 1 within WEIGHT_SUM_TOL
    (WeightSumError)."""
    _check_unit_norm("mu_a", mu)
    _check_unit_norm("nu_b", nu)
    _check_weights(weights)


def check_density(m: np.ndarray) -> None:
    """Raise NotADensity unless each matrix of the (..., d, d) Hermitian stack
    m has trace 1 to DENSITY_TRACE_TOL and no eigenvalue below
    -DENSITY_MIN_EIG_TOL, naming the offending matrix.

    A finite Cholesky factor of m + (DENSITY_MIN_EIG_TOL / 2) I accepts the
    stack without an eigensolve, and accepts nothing that eigvalsh rejects:
    the factorisation succeeds only with positive diagonal entries, which a
    trace of 1 then bounds by about 1, so its backward error is about
    d^2 eps (about 1e-13) and every eigenvalue of m exceeds
    -DENSITY_MIN_EIG_TOL / 2 - 1e-13.  Any other stack, including one whose
    factor is not finite, is decided by its minimum eigenvalues from eigvalsh.
    """
    tr = real_traces(m)
    bad = ~(np.abs(tr - 1.0) <= DENSITY_TRACE_TOL)
    if bad.any():
        at, where = _first_failure(bad)
        raise NotADensity(f"{where}trace is {float(tr[at])!r}, expected 1")
    try:
        factor = np.linalg.cholesky(m + 0.5 * DENSITY_MIN_EIG_TOL * np.eye(m.shape[-1]))
        if np.isfinite(factor).all():
            return
    except np.linalg.LinAlgError:
        pass
    min_eig = lapack_eig(np.linalg.eigvalsh, m)[..., 0]
    bad = ~(min_eig >= -DENSITY_MIN_EIG_TOL)
    if bad.any():
        at, where = _first_failure(bad)
        raise NotADensity(f"{where}minimum eigenvalue {float(min_eig[at])!r} is negative")


@dataclass(frozen=True, eq=False)
class ProductVector:
    """A pair of unit factor vectors; the joint vector is their Kronecker product."""

    mu_a: np.ndarray
    nu_b: np.ndarray

    def __post_init__(self) -> None:
        for name, raw in (("mu_a", self.mu_a), ("nu_b", self.nu_b)):
            vec = np.array(raw, dtype=np.complex128, copy=True)
            if vec.ndim != 1 or vec.size < 2:
                raise DimensionMismatch(f"{name} must be a vector of length >= 2")
            _check_unit_norm(name, vec)
            object.__setattr__(self, name, _read_only(vec))

    @property
    def dims(self) -> Dims:
        return Dims(self.mu_a.size, self.nu_b.size)

    def vector(self) -> np.ndarray:
        """The joint unit vector mu_a (x) nu_b in A-major ordering."""
        return joint_vectors(self.mu_a, self.nu_b)


@dataclass(frozen=True, eq=False)
class SeparableEnsemble:
    """Weighted product vectors; weights form a probability distribution."""

    dims: Dims
    terms: tuple[tuple[float, ProductVector], ...]

    def __post_init__(self) -> None:
        for _, pv in self.terms:
            if pv.dims != self.dims:
                raise DimensionMismatch(
                    f"term dims {pv.dims} do not match ensemble dims {self.dims}"
                )
        _check_weights(np.array([weight for weight, _ in self.terms], dtype=np.float64))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A unit-trace positive operator plus what is known about its separability."""

    op: HermitianOperator
    provenance: Provenance = Provenance.UNKNOWN

    def __post_init__(self) -> None:
        check_density(self.op.entries)

    @property
    def dims(self) -> Dims:
        return self.op.dims


def ensemble_density(ensemble: SeparableEnsemble) -> DensityOperator:
    """Mix the ensemble into a density; the result is separable by construction."""
    weights = np.array([[weight for weight, _ in ensemble.terms]], dtype=np.float64)
    mu = np.array([[pv.mu_a for _, pv in ensemble.terms]])
    nu = np.array([[pv.nu_b for _, pv in ensemble.terms]])
    acc = mix_products(weights, mu, nu)[0]
    return DensityOperator(HermitianOperator(ensemble.dims, acc), Provenance.SEPARABLE)


def maximally_mixed(dims: Dims) -> DensityOperator:
    """The normalized identity I/dAB, separable by construction."""
    op = HermitianOperator(dims, np.eye(dims.dAB, dtype=np.complex128) / dims.dAB)
    return DensityOperator(op, Provenance.SEPARABLE)


def random_density(dims: Dims, seed: int | np.random.Generator) -> DensityOperator:
    """Hilbert-Schmidt random density: G G^dag normalized, G complex Gaussian."""
    check_seed(seed)
    m = draw_densities(dims, 1, np.random.default_rng(seed))[0]
    return DensityOperator(HermitianOperator(dims, m), Provenance.UNKNOWN)


def random_separable_ensemble(
    dims: Dims, n_terms: int, seed: int | np.random.Generator
) -> SeparableEnsemble:
    """Random mixture of Haar product vectors with Dirichlet weights."""
    check_seed(seed)
    weights, mu, nu = draw_ensembles(dims, 1, n_terms, np.random.default_rng(seed))
    terms = tuple(
        (float(w), ProductVector(m, n)) for w, m, n in zip(weights[0], mu[0], nu[0])
    )
    return SeparableEnsemble(dims, terms)
