"""Sigma-form witness layer: see-saw infimum, construction, values, certificates."""

from __future__ import annotations

import importlib
import math
import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    DIMS_SMALL,
    full_rank_separable,
    random_negative_hermitian,
    weakly_optimal_witness,
)
from oracles import (
    _expectation_raw,
    grid_product_min_two_qubit,
    haar_one_at_a_time,
    mc_product_min,
)
from spa_witness.cli import EXIT_NUMERIC, main
from spa_witness.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParams,
    NotAWitness,
    NotNegative,
    ZeroTrace,
)
from spa_witness.fileio import save_operator
from spa_witness.operators import (
    Dims,
    HermitianOperator,
    eig_hermitian,
    hs_inner,
    hs_norm,
    min_eigenpair,
)
from spa_witness.states import (
    DensityOperator,
    ProductVector,
    Provenance,
    SeparableEnsemble,
    ensemble_density,
    haar_product_factors,
    joint_vectors,
    maximally_mixed,
    random_density,
    random_separable_ensemble,
)
from spa_witness.spa import PptStatus, hyperplane_classify, ppt_check
from spa_witness.witness import (
    DEFAULT_DETECT_TOL,
    SPOT_CHECKS,
    HyperplaneSide,
    _expectations,
    build_witness,
    c_sigma_max,
    hyperplane_side,
    is_weakly_optimal,
    product_expectation,
    sigma_form_from_matrix,
    verify_decomposition,
)

D22 = Dims(2, 2)
D33 = Dims(3, 3)
SEESAW_DIMS = (Dims(2, 2), Dims(2, 3), Dims(3, 3), Dims(3, 4), Dims(4, 4))

witness_module = importlib.import_module("spa_witness.witness")


def swap_operator(d: int) -> HermitianOperator:
    v = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            v[i * d + j, j * d + i] = 1.0
    return HermitianOperator(Dims(d, d), v)


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
        runs = [c_sigma_max(rho, restarts=1, max_iter=k, seed=3) for k in range(40)]
        diffs = np.diff([est.value for est in runs])
        assert diffs.max() <= 1e-12
        assert runs[-1].converged
        assert runs[-1].iterations < 40
        assert runs[-1].value == c_sigma_max(rho, restarts=1, seed=3).value

    @pytest.mark.parametrize("max_iter", [500, 15])
    @pytest.mark.parametrize(
        "rho",
        [full_rank_separable(D33, np.random.default_rng(7)), random_density(Dims(2, 3), 4)],
        ids=["separable-3x3", "hs-2x3"],
    )
    def test_stacked_restarts_equal_best_single_runs(self, rho, max_iter):
        # restart r of a stacked run is the one-restart run with seed + r
        seed, restarts = 5, 8
        singles = [
            c_sigma_max(rho, restarts=1, max_iter=max_iter, seed=seed + r)
            for r in range(restarts)
        ]
        # the runs stop at different sweeps, so the stack shrinks as it goes
        assert len({est.iterations for est in singles}) > 1
        best = singles[0]
        for est in singles[1:]:
            if est.value < best.value:
                best = est
        stacked = c_sigma_max(rho, restarts=restarts, max_iter=max_iter, seed=seed)
        assert stacked.value == best.value
        assert np.array_equal(stacked.argmin.mu_a, best.argmin.mu_a)
        assert np.array_equal(stacked.argmin.nu_b, best.argmin.nu_b)
        assert (stacked.iterations, stacked.converged) == (best.iterations, best.converged)
        assert stacked.restarts == restarts

    @pytest.mark.parametrize("dims", SEESAW_DIMS, ids=str)
    def test_starts_are_the_per_restart_haar_draws(self, dims, monkeypatch):
        # restart r starts from one Haar draw in C^dA, then one in C^dB, of seed + r
        seed, restarts = 11, 9
        starts = []

        def record(mu, nu):
            starts.append((mu.copy(), nu.copy()))
            return joint_vectors(mu, nu)

        monkeypatch.setattr(witness_module, "joint_vectors", record)
        c_sigma_max(random_density(dims, 2), restarts=restarts, max_iter=0, seed=seed)
        mu, nu = starts[0]
        for r in range(restarts):
            rng = np.random.default_rng(seed + r)
            assert mu[r].tobytes() == haar_one_at_a_time(dims.dA, rng).tobytes()
            assert nu[r].tobytes() == haar_one_at_a_time(dims.dB, rng).tobytes()

    @pytest.mark.parametrize("dims", SEESAW_DIMS, ids=str)
    def test_stacked_expectations_equal_the_per_vector_product(self, dims):
        rng = np.random.default_rng(dims.dAB)
        for trial in range(50):
            sigma = random_density(dims, int(rng.integers(2**31))).op.entries
            if trial % 2:  # a Hermitian matrix of no particular scale
                sigma = random_negative_hermitian(dims, rng).entries * 10.0 ** rng.uniform(-3, 3)
            mu, nu = haar_product_factors(dims, 12, rng)
            joint = joint_vectors(mu, nu)
            stacked = _expectations(sigma, joint)
            for r in range(len(joint)):
                single = np.float64(_expectation_raw(sigma, joint[r]))
                assert stacked[r].tobytes() == single.tobytes()

    @pytest.mark.parametrize("dims", SEESAW_DIMS, ids=str)
    def test_product_expectation_has_the_per_vector_bits(self, dims):
        # product_expectation is the stacked kernel on a one-row stack
        rng = np.random.default_rng(dims.dAB + 1)
        for _ in range(20):
            sigma = random_density(dims, int(rng.integers(2**31)))
            for mu, nu in zip(*haar_product_factors(dims, 4, rng)):
                pv = ProductVector(mu, nu)
                single = np.float64(_expectation_raw(sigma.op.entries, pv.vector()))
                assert np.float64(product_expectation(sigma, pv)).tobytes() == single.tobytes()

    @pytest.mark.parametrize("raised_call", [1, 2], ids=["A-side", "B-side"])
    def test_rising_objective_names_the_restart(
        self, monkeypatch, tmp_path, capsys, raised_call
    ):
        real_eigh = np.linalg.eigh
        calls = []

        def raise_restart_one(a):
            w, v = real_eigh(a)
            calls.append(a.shape)
            if len(calls) == raised_call:
                w = w.copy()
                w[1, 0] += 0.5
            return w, v

        rho = full_rank_separable(D22, np.random.default_rng(6))
        monkeypatch.setattr(np.linalg, "eigh", raise_restart_one)
        with pytest.raises(ConvergenceFailure) as info:
            c_sigma_max(rho, restarts=4)
        assert calls[0] == (4, 2, 2)
        message = str(info.value)
        assert message.startswith("see-saw restart 1: objective rose from ")
        old, new = (float(x) for x in re.findall(r"from (\S+) to (\S+) in", message)[0])
        assert new > old + 0.4

        path = tmp_path / "rho.json"
        save_operator(rho.op, path)
        calls.clear()
        assert main(["cmax", str(path), "--restarts", "4"]) == EXIT_NUMERIC
        assert "see-saw restart 1: objective rose" in capsys.readouterr().err

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
        # exact: the stacked joint vectors are np.kron's, bit for bit
        assert product_expectation(rho, est.argmin) == est.value

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

    @pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf, -math.inf])
    def test_tolerance_validated(self, tol):
        with pytest.raises(InvalidParams, match=re.escape(f"tolerance must be finite and >= 0, got {tol!r}")):
            c_sigma_max(maximally_mixed(D22), tol=tol)

    def test_lapack_failure_raises_convergence_failure(self, monkeypatch):
        rho = full_rank_separable(D22, np.random.default_rng(3))

        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceFailure, match="^eigensolver did not converge: Eigen"):
            c_sigma_max(rho, restarts=2)

    def test_zero_tolerance_accepted(self):
        est = c_sigma_max(maximally_mixed(D22), restarts=2, tol=0.0)
        assert est.value == pytest.approx(0.25, abs=1e-12)

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
        not_negative = r"of the witness matrix is not negative: not a witness candidate$"
        with pytest.raises(NotNegative, match=r"^minimum eigenvalue 0\.0 " + not_negative):
            build_witness(sigma, lam0)
        with pytest.raises(NotNegative, match=r"^minimum eigenvalue .* " + not_negative):
            build_witness(sigma, lam0 - 0.1)
        # lambda0(sigma) - nan is nan: not negative, and not non-negative either
        with pytest.raises(NotNegative, match=r"^minimum eigenvalue nan " + not_negative):
            build_witness(maximally_mixed(Dims(2, 2)), float("nan"))

    def test_lower_bound_is_strict_at_the_last_float(self):
        # lambda0(sigma) - c < 0 exactly when lambda0(sigma) < c
        sigma = full_rank_separable(D22, np.random.default_rng(2))
        lam0 = float(eig_hermitian(sigma.op)[0][0])
        with pytest.raises(NotNegative, match="not a witness candidate"):
            build_witness(sigma, lam0)
        assert build_witness(sigma, np.nextafter(lam0, np.inf)).lambda0_sigma == lam0

    def test_c_above_estimate_rejected(self):
        rng = np.random.default_rng(2)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=8)
        with pytest.raises(NotAWitness, match=r"exceeds the c_max estimate"):
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
        # nobody vouched for the recast sigma, so it carries no separability claim
        assert w.sigma.provenance is Provenance.UNKNOWN
        assert w.sigma.op.trace == pytest.approx(1.0)

    def test_recast_reference_sigma_is_npt_and_not_claimed_separable(self, hakye_reference):
        # the theta = pi/12 Ha-Kye reference recasts to an entangled sigma
        w = sigma_form_from_matrix(hakye_reference[1])
        verdict = ppt_check(w.sigma)
        assert verdict.status is PptStatus.NPT_ENTANGLED
        assert verdict.min_pt_eigenvalue == pytest.approx(-0.0073, abs=5e-5)
        assert w.sigma.provenance is Provenance.UNKNOWN

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_huge_swap_recasts_like_the_unit_swap(self, scale):
        # hs_norm squares no entry past the float range, so no overflow warns
        base = sigma_form_from_matrix(swap_operator(2)).c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = sigma_form_from_matrix(HermitianOperator(D22, scale * swap_operator(2).entries))
        assert abs(w.c - base) <= np.spacing(base)

    def test_overflowing_divisor_is_numerical(self):
        # tr = 1e308 is finite; tr + 4*(5e307 + eps) is not, so gamma cannot be 0
        with pytest.raises(ZeroTrace, match=r"shifted operator has trace inf; cannot normalize"):
            sigma_form_from_matrix(HermitianOperator(D22, 5e307 * swap_operator(2).entries))

    def test_sigma_strictly_positive(self):
        w = sigma_form_from_matrix(swap_operator(3))
        assert w.lambda0_sigma > 0

    def test_positive_input_rejected(self):
        with pytest.raises(NotNegative):
            sigma_form_from_matrix(HermitianOperator(D22, np.eye(4)))

    def test_product_negative_input_rejected(self):
        bad = HermitianOperator(D22, np.diag([-1.0, 0.2, 0.2, 0.2]))
        with pytest.raises(NotAWitness):
            sigma_form_from_matrix(bad)

    def test_spot_checks_report_the_first_negative_sample(self):
        bad = HermitianOperator(Dims(2, 3), np.diag([-1.0, 0.5, 0.5, 0.5, 0.5, 0.5]))
        # reference: one product vector per sample, drawn and checked in turn
        rng = np.random.default_rng(0)
        vals = [
            _expectation_raw(
                bad.entries, np.kron(haar_one_at_a_time(2, rng), haar_one_at_a_time(3, rng))
            )
            for _ in range(SPOT_CHECKS)
        ]
        first = next(k for k, val in enumerate(vals) if val < -1e-8 * hs_norm(bad))
        assert first > 0
        with pytest.raises(NotAWitness, match=re.escape(f"({vals[first]!r})")):
            sigma_form_from_matrix(bad)


class TestWeakOptimality:
    def test_missing_estimate_raises(self):
        w = sigma_form_from_matrix(swap_operator(2))
        with pytest.raises(InvalidParams, match="no c_max estimate attached"):
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


def detected(w, rho) -> bool:
    """rho is on the negative side of w's hyperplane, i.e. flagged as entangled."""
    return hyperplane_side(hs_inner(rho.op, w.operator())) is HyperplaneSide.NEGATIVE


class TestValuesAndDetection:
    def test_value_identity(self):
        w = weakly_optimal_witness(D22, seed=2)
        rho = random_density(D22, 17)
        direct = hs_inner(rho.op, w.operator())
        manual = float(
            np.trace(rho.op.entries @ w.sigma.op.entries).real
        ) - w.c
        assert direct == pytest.approx(manual, abs=1e-12)

    def test_swap_witness_detects_singlet(self):
        w = sigma_form_from_matrix(swap_operator(2))
        psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        singlet = DensityOperator(
            HermitianOperator(D22, np.outer(psi, psi.conj())), Provenance.UNKNOWN
        )
        assert hs_inner(singlet.op, w.operator()) < -1e-3
        assert detected(w, singlet)

    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_separable_states_never_detected(self, dims):
        w = weakly_optimal_witness(dims, seed=3)
        rng = np.random.default_rng(99)
        for _ in range(50):
            rho = ensemble_density(
                random_separable_ensemble(dims, dims.dAB + 1, rng)
            )
            assert hs_inner(rho.op, w.operator()) >= -1e-10
            assert not detected(w, rho)

    def _pair(self):
        # one sigma, two offsets between its minimum eigenvalue and c_max
        rng = np.random.default_rng(8)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=8)
        lam0, _ = min_eigenpair(sigma.op)
        c1 = lam0 + 0.25 * (est.value - lam0)
        c2 = lam0 + 0.75 * (est.value - lam0)
        return build_witness(sigma, c1, est), build_witness(sigma, c2, est)

    def test_pointwise_value_shift(self):
        w1, w2 = self._pair()
        rho = random_density(D22, 5)
        assert hs_inner(rho.op, w2.operator()) == pytest.approx(
            hs_inner(rho.op, w1.operator()) - (w2.c - w1.c), abs=1e-12
        )

    def test_detection_containment(self):
        # at one sigma a larger offset detects everything a smaller one does
        w1, w2 = self._pair()
        for seed in range(40):
            rho = random_density(D22, seed)
            if detected(w1, rho):
                assert detected(w2, rho)

    @pytest.mark.parametrize("value", [-2e-8, -5e-9, -5e-11, 0.0, 5e-9])
    def test_detects_is_the_negative_hyperplane_side(self, value):
        # tr(W rho) = 1/4 - c for rho = I/4 and any sigma of trace 1
        sigma = DensityOperator(
            HermitianOperator(D22, np.diag([0.1, 0.2, 0.3, 0.4])), Provenance.UNKNOWN
        )
        w = build_witness(sigma, 0.25 - value)
        rho = maximally_mixed(D22)
        assert hs_inner(rho.op, w.operator()) == pytest.approx(value, abs=1e-16)
        side = hyperplane_classify(w.operator(), rho)
        assert detected(w, rho) is (side is HyperplaneSide.NEGATIVE)
        assert detected(w, rho) is (value < -DEFAULT_DETECT_TOL)


class TestVerifyDecomposition:
    def test_one_stacked_eigensolve_of_both_pieces(self, eigh_calls):
        p = HermitianOperator(D22, np.eye(4))
        q = HermitianOperator(D22, np.diag([1.0, 2.0, 3.0, 4.0]))
        verify_decomposition(swap_operator(2), p, q)
        assert len(eigh_calls) == 1
        assert np.array_equal(eigh_calls[0], np.stack([p.entries, q.entries]))

    def test_swap_is_decomposable(self):
        v = swap_operator(2)
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
        q = HermitianOperator(D22, 2.0 * np.outer(phi, phi))
        p = HermitianOperator(D22, np.zeros((4, 4)))
        assert verify_decomposition(v, p, q)

    def test_negative_piece_fails(self):
        v = swap_operator(2)
        phi = np.zeros(4)
        phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
        p = HermitianOperator(D22, -0.1 * np.eye(4))
        q = HermitianOperator(D22, 2.0 * np.outer(phi, phi) + 0.1 * np.eye(4))
        assert not verify_decomposition(v, p, q)

    def test_wrong_sum_fails(self):
        v = swap_operator(2)
        p = HermitianOperator(D22, np.eye(4))
        q = HermitianOperator(D22, np.eye(4))
        assert not verify_decomposition(v, p, q)

    def test_dims_mismatch(self):
        v = swap_operator(2)
        p = HermitianOperator(Dims(2, 3), np.zeros((6, 6)))
        with pytest.raises(DimensionMismatch):
            verify_decomposition(v, p, p)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tolerance_validated(self, tol):
        # with tol=inf, -I and -I would certify any witness
        minus_i = HermitianOperator(D22, -np.eye(4))
        with pytest.raises(InvalidParams, match="tolerance must be finite and >= 0"):
            verify_decomposition(swap_operator(2), minus_i, minus_i, tol=tol)
