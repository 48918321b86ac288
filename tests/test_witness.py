"""Sigma-form witness layer: see-saw infimum, construction, comparisons."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    DIMS_SMALL,
    full_rank_separable,
    random_negative_hermitian,
    weakly_optimal_witness,
)
from oracles import grid_product_min_two_qubit, mc_product_min
from spa_witness.errors import (
    DifferentSigma,
    DimensionMismatch,
    EstimateMissing,
    ExceedsCmax,
    InvalidParams,
    NotAWitness,
    NotNegative,
)
from spa_witness.operators import Dims, HermitianOperator, make_hermitian, min_eigenpair
from spa_witness.states import (
    DensityOperator,
    ProductVector,
    Provenance,
    SeparableEnsemble,
    ensemble_density,
    maximally_mixed,
    random_density,
    random_separable_ensemble,
)
from spa_witness.witness import (
    FinerVerdict,
    _seesaw_run,
    build_witness,
    c_sigma_max,
    detects,
    finer_than,
    is_weakly_optimal,
    product_expectation,
    sigma_form_from_matrix,
    to_tau_form,
    verify_decomposition,
    witness_value,
)

D22 = Dims(2, 2)
D33 = Dims(3, 3)


def swap_operator(d: int) -> HermitianOperator:
    v = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            v[i * d + j, j * d + i] = 1.0
    return make_hermitian(v, Dims(d, d))


def basis_pv(dims: Dims, i: int, j: int) -> ProductVector:
    mu = np.zeros(dims.dA)
    nu = np.zeros(dims.dB)
    mu[i] = 1.0
    nu[j] = 1.0
    return ProductVector(mu, nu)


class TestProductExpectation:
    def test_basis_state_reads_diagonal(self):
        rho = random_density(Dims(2, 3), 1)
        for i in range(2):
            for j in range(3):
                val = product_expectation(rho, basis_pv(Dims(2, 3), i, j))
                assert val == pytest.approx(float(rho.op.entries[i * 3 + j, i * 3 + j].real))

    def test_dims_mismatch(self):
        with pytest.raises(DimensionMismatch):
            product_expectation(random_density(D22, 0), basis_pv(Dims(2, 3), 0, 0))


class TestSeesaw:
    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_maximally_mixed_infimum_is_exact(self, dims):
        est = c_sigma_max(maximally_mixed(dims), restarts=4)
        assert abs(est.value - 1.0 / dims.dAB) < 1e-12
        assert est.converged

    def test_pure_product_state_infimum_is_zero(self):
        # an orthogonal product vector exists, so the infimum vanishes
        rho = ensemble_density(SeparableEnsemble(D22, ((1.0, basis_pv(D22, 0, 0)),)))
        est = c_sigma_max(rho, restarts=8)
        assert abs(est.value) < 1e-10

    def test_history_is_monotone_non_increasing(self):
        rng = np.random.default_rng(7)
        rho = full_rank_separable(D33, rng)
        t4 = rho.op.entries.reshape(3, 3, 3, 3)
        mu = np.array([1.0, 0.0, 0.0], dtype=complex)
        nu = np.array([0.0, 1.0, 0.0], dtype=complex)
        value, _, _, _, converged, history = _seesaw_run(t4, mu, nu, 500, 1e-12)
        diffs = np.diff(np.asarray(history))
        assert diffs.max() <= 1e-12
        assert converged
        assert value == pytest.approx(history[-1], abs=1e-10)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(3)
        rho = full_rank_separable(D22, rng)
        e1 = c_sigma_max(rho, restarts=6, seed=5)
        e2 = c_sigma_max(rho, restarts=6, seed=5)
        assert e1.value == e2.value
        assert_allclose(e1.argmin.mu_a, e2.argmin.mu_a)

    def test_value_matches_argmin_expectation(self):
        rng = np.random.default_rng(11)
        rho = full_rank_separable(Dims(2, 3), rng)
        est = c_sigma_max(rho, restarts=8)
        assert product_expectation(rho, est.argmin) == pytest.approx(
            est.value, abs=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_never_above_monte_carlo_minimum(self, seed):
        rng = np.random.default_rng(seed)
        rho = full_rank_separable(D22, rng)
        est = c_sigma_max(rho, restarts=16, seed=seed)
        mc = mc_product_min(rho.op.entries, 2, 2, 100_000, seed=seed + 1000)
        assert est.value <= mc + 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_nested_grid_two_qubit(self, seed):
        rng = np.random.default_rng(seed + 40)
        rho = full_rank_separable(D22, rng)
        est = c_sigma_max(rho, restarts=16, seed=seed)
        grid = grid_product_min_two_qubit(rho.op.entries)
        assert abs(est.value - grid) < 1e-5

    @pytest.mark.parametrize("kwargs", [{"restarts": 0}, {"max_iter": -1}])
    def test_counts_validated(self, kwargs):
        with pytest.raises(InvalidParams):
            c_sigma_max(maximally_mixed(D22), **kwargs)

    def test_zero_sweeps_reports_not_converged(self):
        rng = np.random.default_rng(6)
        rho = full_rank_separable(D22, rng)
        est = c_sigma_max(rho, restarts=2, max_iter=0)
        assert not est.converged
        assert est.iterations == 0


class TestBuildWitness:
    def test_operator_is_sigma_minus_c(self):
        rng = np.random.default_rng(2)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=8)
        w = build_witness(sigma, est.value, est)
        assert_allclose(
            w.operator().entries,
            sigma.op.entries - est.value * np.eye(4),
            atol=1e-14,
        )
        assert w.dims == D22

    def test_c_below_min_eigenvalue_rejected(self):
        rng = np.random.default_rng(2)
        sigma = full_rank_separable(D22, rng)
        lam0, _ = min_eigenpair(sigma.op)
        with pytest.raises(NotAWitness):
            build_witness(sigma, lam0)
        with pytest.raises(NotAWitness):
            build_witness(sigma, lam0 - 0.1)

    def test_c_above_estimate_rejected(self):
        rng = np.random.default_rng(2)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=8)
        with pytest.raises(ExceedsCmax):
            build_witness(sigma, est.value + 1e-6, est)

    def test_no_estimate_skips_cmax_gate(self):
        rng = np.random.default_rng(2)
        sigma = full_rank_separable(D22, rng)
        w = build_witness(sigma, 0.9)
        assert w.cmax_estimate is None


class TestSigmaFormFromMatrix:
    def test_round_trip_is_positive_multiple(self):
        v = swap_operator(2)
        w = sigma_form_from_matrix(v)
        op = w.operator().entries
        factor = float((op[0, 0] / v.entries[0, 0]).real)
        assert factor > 0
        assert_allclose(op, factor * v.entries, atol=1e-12)
        assert w.sigma.provenance is Provenance.ASSERTED
        assert w.sigma.op.trace == pytest.approx(1.0)

    def test_sigma_strictly_positive(self):
        w = sigma_form_from_matrix(swap_operator(3))
        assert w.lambda0_sigma > 0

    def test_positive_input_rejected(self):
        with pytest.raises(NotNegative):
            sigma_form_from_matrix(make_hermitian(np.eye(4), D22))

    def test_product_negative_input_rejected(self):
        bad = make_hermitian(np.diag([-1.0, 0.2, 0.2, 0.2]), D22)
        with pytest.raises(NotAWitness):
            sigma_form_from_matrix(bad)

    def test_margin_raises_offset_monotonically(self):
        v = swap_operator(2)
        cs = [sigma_form_from_matrix(v, margin=m).c for m in (1e-6, 1e-3, 1e-1)]
        assert cs[0] < cs[1] < cs[2]
        assert all(c < 0.25 + 1e-12 for c in cs)


class TestTauForm:
    def test_offset_rescaled_by_total_dimension(self):
        w = sigma_form_from_matrix(swap_operator(2))
        sigma, c_tau = to_tau_form(w)
        assert c_tau == pytest.approx(w.c * 4)
        assert sigma is w.sigma
        assert_allclose(
            sigma.op.entries - (c_tau / 4) * np.eye(4),
            w.operator().entries,
            atol=1e-15,
        )


class TestWeakOptimality:
    def test_missing_estimate_raises(self):
        w = sigma_form_from_matrix(swap_operator(2))
        with pytest.raises(EstimateMissing):
            is_weakly_optimal(w)

    def test_witness_at_estimate_is_weakly_optimal(self):
        w = weakly_optimal_witness(D22, seed=1)
        flag, certificate = is_weakly_optimal(w)
        assert flag
        assert certificate is not None
        touch = product_expectation(w.sigma, certificate) - w.c
        assert abs(touch) < 1e-10

    def test_interior_offset_is_not(self):
        rng = np.random.default_rng(4)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=8)
        lam0, _ = min_eigenpair(sigma.op)
        c = 0.5 * (lam0 + est.value)
        w = build_witness(sigma, c, est)
        flag, certificate = is_weakly_optimal(w)
        assert not flag
        assert certificate is None


class TestValuesAndDetection:
    def test_value_identity(self):
        w = weakly_optimal_witness(D22, seed=2)
        rho = random_density(D22, 17)
        direct = witness_value(w, rho)
        manual = float(
            np.trace(rho.op.entries @ w.sigma.op.entries).real
        ) - w.c
        assert direct == pytest.approx(manual, abs=1e-12)

    def test_swap_witness_detects_singlet(self):
        w = sigma_form_from_matrix(swap_operator(2))
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        singlet = DensityOperator(
            make_hermitian(np.outer(psi, psi.conj()), D22), Provenance.UNKNOWN
        )
        assert witness_value(w, singlet) < -1e-3
        assert detects(w, singlet)

    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_separable_states_never_detected(self, dims):
        w = weakly_optimal_witness(dims, seed=3)
        rng = np.random.default_rng(99)
        for _ in range(50):
            rho = ensemble_density(
                random_separable_ensemble(dims, dims.dAB + 1, rng)
            )
            assert witness_value(w, rho) >= -1e-10
            assert not detects(w, rho)


class TestFinerThan:
    def _pair(self):
        rng = np.random.default_rng(8)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=8)
        lam0, _ = min_eigenpair(sigma.op)
        c1 = lam0 + 0.25 * (est.value - lam0)
        c2 = lam0 + 0.75 * (est.value - lam0)
        return build_witness(sigma, c1, est), build_witness(sigma, c2, est)

    def test_larger_offset_is_finer(self):
        w1, w2 = self._pair()
        assert finer_than(w2, w1) is FinerVerdict.FINER
        assert finer_than(w1, w2) is FinerVerdict.INCOMPARABLE
        assert finer_than(w1, w1) is FinerVerdict.EQUAL

    def test_pointwise_value_shift(self):
        w1, w2 = self._pair()
        rho = random_density(D22, 5)
        assert witness_value(w2, rho) == pytest.approx(
            witness_value(w1, rho) - (w2.c - w1.c), abs=1e-12
        )

    def test_detection_containment(self):
        w1, w2 = self._pair()
        for seed in range(40):
            rho = random_density(D22, seed)
            if detects(w1, rho):
                assert detects(w2, rho)

    def test_different_sigma_rejected(self):
        w1, _ = self._pair()
        other = sigma_form_from_matrix(swap_operator(2))
        with pytest.raises(DifferentSigma):
            finer_than(other, w1)

    @settings(max_examples=30, deadline=None)
    @given(
        f1=st.floats(0.05, 0.45),
        f2=st.floats(0.55, 0.95),
    )
    def test_offset_order_decides_verdict(self, f1, f2):
        rng = np.random.default_rng(8)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=4)
        lam0, _ = min_eigenpair(sigma.op)
        span = est.value - lam0
        w_lo = build_witness(sigma, lam0 + f1 * span, est)
        w_hi = build_witness(sigma, lam0 + f2 * span, est)
        assert finer_than(w_hi, w_lo) is FinerVerdict.FINER


class TestVerifyDecomposition:
    def test_swap_is_decomposable(self):
        v = swap_operator(2)
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
        q = make_hermitian(2.0 * np.outer(phi, phi), D22)
        p = make_hermitian(np.zeros((4, 4)), D22)
        assert verify_decomposition(v, p, q)

    def test_negative_piece_fails(self):
        v = swap_operator(2)
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
        p = make_hermitian(-0.1 * np.eye(4), D22)
        q = make_hermitian(2.0 * np.outer(phi, phi) + 0.1 * np.eye(4), D22)
        assert not verify_decomposition(v, p, q)

    def test_wrong_sum_fails(self):
        v = swap_operator(2)
        p = make_hermitian(np.eye(4), D22)
        q = make_hermitian(np.eye(4), D22)
        assert not verify_decomposition(v, p, q)

    def test_dims_mismatch(self):
        v = swap_operator(2)
        p = make_hermitian(np.zeros((6, 6)), Dims(2, 3))
        with pytest.raises(DimensionMismatch):
            verify_decomposition(v, p, p)
