"""Product vectors, separable ensembles, density operators, random sampling.

Separability is tracked as provenance, never inferred: a density either was
built as a convex mixture of product projectors (separable-by-construction),
or a caller vouched for it (asserted-separable), or nothing is known.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotADensity, WeightSumError
from .operators import Dims, HermitianOperator, _read_only

UNIT_NORM_TOL = 1e-12
DENSITY_TRACE_TOL = 1e-10
DENSITY_MIN_EIG_TOL = 1e-10
WEIGHT_SUM_TOL = 1e-12

SeedLike = int | np.random.Generator


class Provenance(enum.Enum):
    """How much is known about separability of a density operator."""

    SEPARABLE = "separable-by-construction"
    ASSERTED = "asserted-separable"
    UNKNOWN = "unknown"


def haar_unit_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector in C^d (normalized complex Gaussian)."""
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


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
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > UNIT_NORM_TOL:
                raise DimensionMismatch(
                    f"{name} is not unit norm: ||{name}|| = {norm!r}"
                )
            object.__setattr__(self, name, _read_only(vec))

    @property
    def dims(self) -> Dims:
        return Dims(self.mu_a.size, self.nu_b.size)

    def vector(self) -> np.ndarray:
        """The joint unit vector mu_a (x) nu_b in A-major ordering."""
        return np.kron(self.mu_a, self.nu_b)

    def projector(self) -> HermitianOperator:
        """Rank-one projector onto the joint vector."""
        v = self.vector()
        return HermitianOperator(self.dims, np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class SeparableEnsemble:
    """Weighted product vectors; weights form a probability distribution."""

    dims: Dims
    terms: tuple[tuple[float, ProductVector], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise WeightSumError("an ensemble needs at least one term")
        total = 0.0
        for weight, pv in self.terms:
            if not weight > 0.0:
                raise WeightSumError(f"every weight must be positive, got {weight!r}")
            if pv.dims != self.dims:
                raise DimensionMismatch(
                    f"term dims {pv.dims} do not match ensemble dims {self.dims}"
                )
            total += weight
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise WeightSumError(f"weights sum to {total!r}, expected 1")


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A unit-trace positive operator plus what is known about its separability."""

    op: HermitianOperator
    provenance: Provenance = Provenance.UNKNOWN

    def __post_init__(self) -> None:
        tr = self.op.trace
        if not abs(tr - 1.0) <= DENSITY_TRACE_TOL:
            raise NotADensity(f"trace is {tr!r}, expected 1")
        min_eig = float(np.linalg.eigvalsh(self.op.entries)[0])
        if not min_eig >= -DENSITY_MIN_EIG_TOL:
            raise NotADensity(f"minimum eigenvalue {min_eig!r} is negative")

    @property
    def dims(self) -> Dims:
        return self.op.dims


def ensemble_density(ensemble: SeparableEnsemble) -> DensityOperator:
    """Mix the ensemble into a density; the result is separable by construction."""
    d = ensemble.dims.dAB
    acc = np.zeros((d, d), dtype=np.complex128)
    for weight, pv in ensemble.terms:
        v = pv.vector()
        acc += weight * np.outer(v, v.conj())
    return DensityOperator(HermitianOperator(ensemble.dims, acc), Provenance.SEPARABLE)


def maximally_mixed(dims: Dims) -> DensityOperator:
    """The normalized identity I/dAB, separable by construction."""
    op = HermitianOperator(dims, np.eye(dims.dAB, dtype=np.complex128) / dims.dAB)
    return DensityOperator(op, Provenance.SEPARABLE)


def random_product_vector(dims: Dims, seed: SeedLike) -> ProductVector:
    """Haar-random product vector; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    return ProductVector(haar_unit_vector(dims.dA, rng), haar_unit_vector(dims.dB, rng))


def random_density(dims: Dims, seed: SeedLike) -> DensityOperator:
    """Hilbert-Schmidt random density: G G^dag normalized, G complex Gaussian."""
    rng = np.random.default_rng(seed)
    d = dims.dAB
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    m /= np.trace(m).real
    return DensityOperator(HermitianOperator(dims, m), Provenance.UNKNOWN)


def random_separable_ensemble(
    dims: Dims, n_terms: int, seed: SeedLike
) -> SeparableEnsemble:
    """Random mixture of Haar product vectors with Dirichlet weights."""
    if n_terms < 1:
        raise WeightSumError("an ensemble needs at least one term")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(2.0 * np.ones(n_terms))
    weights = weights / weights.sum()
    terms = tuple(
        (
            float(w),
            ProductVector(
                haar_unit_vector(dims.dA, rng), haar_unit_vector(dims.dB, rng)
            ),
        )
        for w in weights
    )
    return SeparableEnsemble(dims, terms)
