"""State layer: product vectors, ensembles, densities, random sampling."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import DIMS_SMALL
from spa_witness.errors import DimensionMismatch, NotADensity, WeightSumError
from spa_witness.operators import Dims, make_hermitian, partial_transpose
from spa_witness.states import (
    DensityOperator,
    ProductVector,
    Provenance,
    SeparableEnsemble,
    ensemble_density,
    haar_unit_vector,
    maximally_mixed,
    random_density,
    random_product_vector,
    random_separable_ensemble,
)

D22 = Dims(2, 2)
D23 = Dims(2, 3)
D33 = Dims(3, 3)


def basis_product(dims: Dims, i: int, j: int) -> ProductVector:
    mu = np.zeros(dims.dA)
    nu = np.zeros(dims.dB)
    mu[i] = 1.0
    nu[j] = 1.0
    return ProductVector(mu, nu)


class TestProductVector:
    def test_joint_vector_ordering(self):
        pv = basis_product(D23, 1, 2)
        joint = pv.vector()
        assert joint[1 * 3 + 2] == pytest.approx(1.0)
        assert np.linalg.norm(joint) == pytest.approx(1.0)

    def test_projector_is_rank_one(self):
        pv = random_product_vector(D33, 5)
        proj = pv.projector()
        assert proj.trace == pytest.approx(1.0)
        assert_allclose(proj.entries @ proj.entries, proj.entries, atol=1e-12)

    def test_non_unit_factor_rejected(self):
        with pytest.raises(DimensionMismatch):
            ProductVector(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


class TestSeparableEnsemble:
    def test_weights_must_sum_to_one(self):
        pv = basis_product(D22, 0, 0)
        with pytest.raises(WeightSumError):
            SeparableEnsemble(D22, ((0.5, pv), (0.4, pv)))

    def test_weights_must_be_positive(self):
        pv = basis_product(D22, 0, 0)
        with pytest.raises(WeightSumError):
            SeparableEnsemble(D22, ((1.2, pv), (-0.2, pv)))

    def test_term_dims_must_match(self):
        with pytest.raises(DimensionMismatch):
            SeparableEnsemble(D22, ((1.0, basis_product(D23, 0, 0)),))

    def test_empty_rejected(self):
        with pytest.raises(WeightSumError):
            SeparableEnsemble(D22, ())


class TestEnsembleDensity:
    def test_single_term_is_projector(self):
        pv = basis_product(D22, 0, 0)
        rho = ensemble_density(SeparableEnsemble(D22, ((1.0, pv),)))
        assert rho.provenance is Provenance.SEPARABLE
        assert rho.op.entries[0, 0] == pytest.approx(1.0)

    def test_uniform_product_basis_gives_maximally_mixed(self):
        terms = tuple(
            (0.25, basis_product(D22, i, j)) for i in range(2) for j in range(2)
        )
        rho = ensemble_density(SeparableEnsemble(D22, terms))
        assert_allclose(rho.op.entries, maximally_mixed(D22).op.entries, atol=1e-15)

    def test_affine_in_weights(self):
        rng = np.random.default_rng(0)
        e1 = random_separable_ensemble(D23, 4, rng)
        e2 = random_separable_ensemble(D23, 5, rng)
        merged_terms = tuple((0.3 * w, pv) for w, pv in e1.terms) + tuple(
            (0.7 * w, pv) for w, pv in e2.terms
        )
        merged = ensemble_density(SeparableEnsemble(D23, merged_terms))
        expected = (
            0.3 * ensemble_density(e1).op.entries + 0.7 * ensemble_density(e2).op.entries
        )
        assert_allclose(merged.op.entries, expected, atol=1e-14)

    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_every_ensemble_density_is_ppt(self, dims):
        rng = np.random.default_rng(42)
        for _ in range(60):
            rho = ensemble_density(random_separable_ensemble(dims, dims.dAB + 2, rng))
            min_pt = float(
                np.linalg.eigvalsh(partial_transpose(rho.op).entries)[0]
            )
            assert min_pt > -1e-10


class TestMaximallyMixed:
    def test_diagonal_entries(self):
        rho = maximally_mixed(D33)
        assert_allclose(rho.op.entries, np.eye(9) / 9.0)
        assert rho.provenance is Provenance.SEPARABLE

    def test_purity(self):
        rho = maximally_mixed(D22)
        assert float(np.trace(rho.op.entries @ rho.op.entries).real) == pytest.approx(
            0.25
        )


class TestDensityValidation:
    def test_wrong_trace_rejected(self):
        with pytest.raises(NotADensity):
            DensityOperator(make_hermitian(np.eye(4), D22))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(NotADensity):
            DensityOperator(make_hermitian(m, D22))

    def test_nan_spectrum_rejected(self, monkeypatch):
        op = make_hermitian(np.eye(4) / 4.0, D22)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(4, np.nan))
        with pytest.raises(NotADensity, match="nan"):
            DensityOperator(op)


class TestRandomSampling:
    def test_product_vector_deterministic_per_seed(self):
        pv1 = random_product_vector(D23, 123)
        pv2 = random_product_vector(D23, 123)
        assert_allclose(pv1.mu_a, pv2.mu_a)
        assert_allclose(pv1.nu_b, pv2.nu_b)
        pv3 = random_product_vector(D23, 124)
        assert float(np.abs(pv1.mu_a - pv3.mu_a).max()) > 1e-3

    def test_density_deterministic_per_seed(self):
        r1 = random_density(D22, 9)
        r2 = random_density(D22, 9)
        assert_allclose(r1.op.entries, r2.op.entries)

    def test_density_is_valid_state(self):
        for dims in DIMS_SMALL:
            rho = random_density(dims, 3)
            assert rho.op.trace == pytest.approx(1.0)
            assert float(np.linalg.eigvalsh(rho.op.entries)[0]) > -1e-12
            assert rho.provenance is Provenance.UNKNOWN

    def test_haar_first_component_moment(self):
        # E|<e_0|mu>|^2 = 1/d for Haar vectors; check the dA = 2 marginal
        # against the Beta(1, d-1) standard error over 1e5 draws.
        n = 100_000
        rng = np.random.default_rng(2024)
        z = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        mean = float(np.mean(np.abs(z[:, 0]) ** 2))
        sigma = float(np.sqrt((1.0 / 12.0) / n))
        assert abs(mean - 0.5) < 3.0 * sigma

    def test_library_sampler_matches_haar_moment(self):
        n = 20_000
        rng = np.random.default_rng(77)
        total = 0.0
        for _ in range(n):
            total += float(abs(haar_unit_vector(3, rng)[0]) ** 2)
        sigma = float(np.sqrt((2.0 / (9.0 * 4.0)) / n))
        assert abs(total / n - 1.0 / 3.0) < 3.0 * sigma

    def test_separable_ensemble_weights_and_dims(self):
        ensemble = random_separable_ensemble(D33, 7, 11)
        weights = [w for w, _ in ensemble.terms]
        assert len(weights) == 7
        assert all(w > 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
