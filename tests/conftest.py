"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from spa_witness.operators import Dims, HermitianOperator
from spa_witness.states import (
    DensityOperator,
    ensemble_density,
    random_separable_ensemble,
)
from spa_witness.witness import SigmaFormWitness, build_witness, c_sigma_max

DIMS_SMALL = (Dims(2, 2), Dims(2, 3), Dims(3, 3))


def table_rows(table: dict) -> list[dict]:
    """The rows of a column table as dicts of plain Python values."""
    return [dict(zip(table, row)) for row in zip(*(c.tolist() for c in table.values()))]


def random_hermitian(dims: Dims, rng: np.random.Generator, scale: float = 1.0) -> HermitianOperator:
    d = dims.dAB
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator(dims, scale * (g + g.conj().T) / 2.0)


def random_negative_hermitian(dims: Dims, rng: np.random.Generator) -> HermitianOperator:
    """Random Hermitian matrix guaranteed to have a negative eigenvalue."""
    op = random_hermitian(dims, rng)
    lam = np.linalg.eigvalsh(op.entries)
    if lam[0] > -0.1:
        op = HermitianOperator(
            dims, op.entries - (lam[0] + 0.5) * np.eye(dims.dAB)
        )
    return op


def full_rank_separable(dims: Dims, rng: np.random.Generator) -> DensityOperator:
    """Separable-by-construction density with full numeric rank."""
    for _ in range(20):
        ensemble = random_separable_ensemble(dims, 3 * dims.dAB, rng)
        rho = ensemble_density(ensemble)
        if np.linalg.matrix_rank(rho.op.entries, tol=1e-9) == dims.dAB:
            return rho
    raise AssertionError("could not draw a full-rank separable density")


def rank_deficient_separable(dims: Dims, rng: np.random.Generator) -> DensityOperator:
    """Separable-by-construction density with too few terms to reach full rank."""
    n_terms = max(1, dims.dAB - 2)
    return ensemble_density(random_separable_ensemble(dims, n_terms, rng))


def weakly_optimal_witness(dims: Dims, seed: int, restarts: int = 32) -> SigmaFormWitness:
    """Witness with c at the see-saw estimate of the product-state infimum."""
    rng = np.random.default_rng(seed)
    sigma = full_rank_separable(dims, rng)
    estimate = c_sigma_max(sigma, restarts=restarts, seed=seed)
    return build_witness(sigma, estimate.value, estimate)


@pytest.fixture
def eigh_calls(monkeypatch) -> list[np.ndarray]:
    """Copies of the matrices passed to np.linalg.eigh in the test, in call order."""
    calls = []
    real = np.linalg.eigh

    def counted(m, *args, **kwargs):
        calls.append(np.array(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


@pytest.fixture(scope="session")
def hakye_reference():
    from spa_witness.hakye import hakye_witness, reference_violation_params

    params = reference_violation_params()
    return params, hakye_witness(params)
