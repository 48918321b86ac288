"""State layer: product vectors, ensembles, densities, random sampling."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import DIMS_SMALL
from oracles import check_density_eigvalsh_only, draw_ensembles_dirichlet_loop, haar_one_at_a_time
from spa_witness.errors import DimensionMismatch, InvalidParams, NotADensity, WeightSumError
from spa_witness.operators import Dims, HermitianOperator, partial_transpose
from spa_witness.states import (
    DENSITY_MIN_EIG_TOL,
    DensityOperator,
    ProductVector,
    Provenance,
    SeparableEnsemble,
    check_density,
    check_product_terms,
    draw_densities,
    draw_ensembles,
    ensemble_density,
    haar_product_factors,
    maximally_mixed,
    mix_products,
    random_density,
    random_separable_ensemble,
    vector_norms,
)

D22 = Dims(2, 2)
D23 = Dims(2, 3)
D33 = Dims(3, 3)


def _failed_cholesky(a):
    raise np.linalg.LinAlgError("Matrix is not positive definite")


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
        mu, nu = haar_product_factors(D33, 1, np.random.default_rng(5))
        pv = ProductVector(mu[0], nu[0])
        v = pv.vector()
        proj = np.outer(v, v.conj())
        assert np.trace(proj).real == pytest.approx(1.0)
        assert_allclose(proj @ proj, proj, atol=1e-12)

    def test_non_unit_factor_rejected(self):
        with pytest.raises(InvalidParams, match="is not unit norm"):
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

    def test_every_empty_ensemble_gets_the_weight_check_message(self):
        empty = (np.empty((3, 0)), np.empty((3, 0, 2)), np.empty((3, 0, 2)))
        for build in (
            lambda: SeparableEnsemble(D22, ()),
            lambda: random_separable_ensemble(D22, 0, 5),
            lambda: check_product_terms(*empty),
        ):
            with pytest.raises(WeightSumError) as refused:
                build()
            assert str(refused.value) == "an ensemble needs at least one term"


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
            DensityOperator(HermitianOperator(D22, np.eye(4)))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(NotADensity):
            DensityOperator(HermitianOperator(D22, m))

    def test_single_matrix_messages_name_no_matrix(self):
        with pytest.raises(NotADensity, match=r"^trace is 4\.0, expected 1$"):
            DensityOperator(HermitianOperator(D22, np.eye(4)))
        m = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(NotADensity, match=r"^minimum eigenvalue -0\.5\d* is negative$"):
            DensityOperator(HermitianOperator(D22, m))

    def test_stack_check_names_each_offending_matrix(self):
        stack = draw_densities(D22, 5, np.random.default_rng(1))
        check_density(stack)
        stack[3] = np.diag([1.5, -0.5, 0.0, 0.0])
        stack[1] *= 2.0
        with pytest.raises(NotADensity, match=r"^matrix \(1,\): trace is "):
            check_density(stack)
        stack[1] /= 2.0
        with pytest.raises(NotADensity, match=r"^matrix \(3,\): minimum eigenvalue -0\.5"):
            check_density(stack)

    def test_nan_spectrum_rejected(self, monkeypatch):
        op = HermitianOperator(D22, np.eye(4) / 4.0)
        # a failed factorisation leaves the verdict to the eigenvalues
        monkeypatch.setattr(np.linalg, "cholesky", _failed_cholesky)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(4, np.nan))
        with pytest.raises(NotADensity, match="nan"):
            DensityOperator(op)

    def test_nan_factor_is_not_accepted(self, monkeypatch):
        op = HermitianOperator(D22, np.diag([1.5, -0.5, 0.0, 0.0]))
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full(a.shape, np.nan))
        with pytest.raises(NotADensity, match=r"^minimum eigenvalue -0\.5\d* is negative$"):
            DensityOperator(op)

    @pytest.mark.parametrize("dims", [D22, D23, D33, Dims(3, 4)], ids=str)
    @pytest.mark.parametrize("scale", [-2.0, -1.01, -1.0, -0.99, -0.6, -0.5, -0.4, 0.0, 1.0])
    def test_boundary_verdicts_equal_the_eigvalsh_rule(self, dims, scale):
        d = dims.dAB
        rng = np.random.default_rng(round(100 * scale) + 300 + 1000 * d)
        u, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        lam0 = scale * DENSITY_MIN_EIG_TOL
        lam = np.array([lam0] + [(1.0 - lam0) / (d - 1)] * (d - 1))
        m = (u * lam) @ u.conj().T
        m = (m + m.conj().T) / 2.0
        m /= np.trace(m).real
        stack = draw_densities(dims, 4, rng)
        stack[2] = m
        for case in (m, stack):
            expected = check_density_eigvalsh_only(case)
            if scale != -1.0:
                assert (expected is None) == (scale > -1.0)
            if expected is None:
                check_density(case)
            else:
                with pytest.raises(NotADensity) as raised:
                    check_density(case)
                assert str(raised.value) == expected


class TestRandomSampling:
    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParams, match=r"^seed must be >= 0, got -1$"):
            random_density(D22, -1)
        with pytest.raises(InvalidParams, match=r"^seed must be >= 0, got -1$"):
            random_separable_ensemble(D22, 3, -1)

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
        mu, _ = haar_product_factors(Dims(3, 2), n, np.random.default_rng(77))
        mean = float(np.mean(np.abs(mu[:, 0]) ** 2))
        sigma = float(np.sqrt((2.0 / (9.0 * 4.0)) / n))
        assert abs(mean - 1.0 / 3.0) < 3.0 * sigma

    def test_separable_ensemble_weights_and_dims(self):
        ensemble = random_separable_ensemble(D33, 7, 11)
        weights = [w for w, _ in ensemble.terms]
        assert len(weights) == 7
        assert all(w > 0 for w in weights)
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)


class TestStackedSampling:
    def test_vector_norms_have_the_bits_of_np_linalg_norm(self):
        z = np.random.default_rng(5).standard_normal((50, 7, 2)) @ np.array([1.0, 1j])
        norms = vector_norms(z)
        for row, norm in zip(z, norms):
            assert norm == np.linalg.norm(row)

    def test_product_factors_equal_alternating_haar_draws(self):
        mu, nu = haar_product_factors(D23, 6, np.random.default_rng(8))
        rng = np.random.default_rng(8)
        for k in range(6):
            assert np.array_equal(mu[k], haar_one_at_a_time(2, rng))
            assert np.array_equal(nu[k], haar_one_at_a_time(3, rng))

    def test_density_stack_equals_one_density_at_a_time(self):
        stack = draw_densities(D23, 4, np.random.default_rng(6))
        rng = np.random.default_rng(6)
        for m in stack:
            assert np.array_equal(m, random_density(D23, rng).op.entries)

    def test_ensemble_stack_equals_one_ensemble_at_a_time(self):
        weights, mu, nu = draw_ensembles(D23, 4, 5, np.random.default_rng(9))
        mixed = mix_products(weights, mu, nu)
        rng = np.random.default_rng(9)
        for k in range(4):
            ensemble = random_separable_ensemble(D23, 5, rng)
            assert [w for w, _ in ensemble.terms] == weights[k].tolist()
            assert np.array_equal(mixed[k], ensemble_density(ensemble).op.entries)

    @pytest.mark.parametrize("n_terms", [1, 2, 7, 8, 9, 18, 24, 33])
    def test_ensembles_equal_the_dirichlet_loop(self, n_terms):
        for seed in (0, 1, 17, 2024):
            got = draw_ensembles(D23, 5, n_terms, np.random.default_rng(seed))
            want = draw_ensembles_dirichlet_loop(D23, 5, n_terms, np.random.default_rng(seed))
            for g, w in zip(got, want):
                assert g.shape == w.shape and np.array_equal(g, w)

    def test_term_checks_name_the_offending_entry(self):
        weights, mu, nu = draw_ensembles(D22, 3, 4, np.random.default_rng(2))
        check_product_terms(weights, mu, nu)
        bad_mu = mu.copy()
        bad_mu[1, 2] *= 1.5
        with pytest.raises(InvalidParams, match=r"^mu_a \(1, 2\) is not unit norm"):
            check_product_terms(weights, bad_mu, nu)
        bad_weights = weights.copy()
        bad_weights[2, 0] += 0.25
        with pytest.raises(WeightSumError, match=r"^ensemble \(2,\): weights sum to"):
            check_product_terms(bad_weights, mu, nu)
        bad_weights[2, 0] = -0.1
        with pytest.raises(WeightSumError, match=r"^ensemble \(2,\): every weight must be positive"):
            check_product_terms(bad_weights, mu, nu)
