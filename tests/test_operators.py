"""Operator layer: validation, eigensolver contract, partial transpose, HS algebra."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import DIMS_SMALL, random_hermitian
from oracles import (
    brute_force_partial_transpose,
    char_poly_roots_2x2,
    char_poly_roots_3x3,
)
from spa_witness.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonRealResult,
    NotHermitian,
)
from spa_witness.operators import (
    Dims,
    HermitianOperator,
    check_hermitian,
    eig_hermitian,
    eigh_checked,
    hs_inner,
    hs_norm,
    min_eigenpair,
    partial_transpose,
    partial_transpose_stack,
    scaled,
    shifted,
)

D22 = Dims(2, 2)
D23 = Dims(2, 3)
D33 = Dims(3, 3)


def identity(dims: Dims) -> HermitianOperator:
    """The identity operator on the joint space."""
    return HermitianOperator(dims, np.eye(dims.dAB))


class TestDims:
    def test_joint_dimension(self):
        assert D23.dAB == 6

    @pytest.mark.parametrize("bad", [(1, 2), (2, 1), (0, 3), (2, -2)])
    def test_too_small_rejected(self, bad):
        with pytest.raises(DimensionMismatch):
            Dims(*bad)


class TestHermitianOperator:
    def test_valid_matrix_accepted(self):
        m = np.array([[1.0, 1j, 0, 0], [-1j, 2.0, 0, 0], [0, 0, 3.0, 0], [0, 0, 0, 4.0]])
        op = HermitianOperator(D22, m)
        assert_allclose(op.entries, m)
        assert op.trace == pytest.approx(10.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
    def test_non_finite_rejected_with_location(self, bad):
        m = np.eye(4, dtype=complex)
        m[2, 1] = m[1, 2] = bad
        with pytest.raises(NotHermitian, match="non-finite entry .* row 1, column 2"):
            HermitianOperator(D22, m)

    def test_asymmetric_rejected_with_location(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 1j
        m[1, 0] = 1j
        with pytest.raises(NotHermitian, match="row 0, column 1"):
            HermitianOperator(D22, m)
        with pytest.raises(NotHermitian, match=r"at matrix \(1,\), row 0, column 1"):
            check_hermitian(np.stack([np.eye(4), m]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            HermitianOperator(D22, np.eye(5))

    def test_entries_are_read_only(self):
        op = identity(D22)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 7.0


class TestEigHermitian:
    def test_nan_eigenpairs_rejected(self, monkeypatch):
        op = HermitianOperator(D22, np.diag([3.0, 1.0, 2.0, 5.0]))
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: (np.full(4, np.nan), np.eye(4))
        )
        with pytest.raises(ConvergenceFailure, match="residual"):
            eig_hermitian(op)

    @pytest.mark.parametrize("scale", [1.0, 1e200], ids=["unit", "huge"])
    def test_residual_check_holds_at_any_scale(self, monkeypatch, scale):
        # at 1e200 the squared norms overflow; the check must still hold
        m = np.diag([1.0, -1.0, 0.3, 1e-200]) * scale
        spectrum = eig_hermitian(HermitianOperator(D22, m))
        assert_allclose(spectrum.eigenvalues, np.sort(np.diag(m)))
        real_eigh = np.linalg.eigh

        def swap_first_two(a):
            w, v = real_eigh(a)
            return w, v[..., [1, 0, 2, 3]]

        monkeypatch.setattr(np.linalg, "eigh", swap_first_two)
        with pytest.raises(ConvergenceFailure, match="residual"):
            eig_hermitian(HermitianOperator(D22, m))
        # one matrix of a stack overflowing leaves the others' check intact
        with pytest.raises(ConvergenceFailure, match="residual"):
            eigh_checked(np.stack([m, np.diag([1e200, 1.0, 1.0, 1.0])]))

    def test_diagonal_sorted_ascending(self):
        op = HermitianOperator(D22, np.diag([3.0, 1.0, 2.0, 5.0]))
        spectrum = eig_hermitian(op)
        assert_allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0, 5.0])

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(7)
        for dims in DIMS_SMALL:
            op = random_hermitian(dims, rng)
            spectrum = eig_hermitian(op)
            for k in range(dims.dAB):
                v = spectrum.eigenvectors[:, k]
                resid = op.entries @ v - spectrum.eigenvalues[k] * v
                assert np.linalg.norm(resid) < 1e-10 * max(1.0, hs_norm(op))

    def test_shift_moves_eigenvalues_only(self):
        rng = np.random.default_rng(11)
        op = random_hermitian(D23, rng)
        spectrum = eig_hermitian(op)
        spectrum_shifted = eig_hermitian(shifted(op, 2.5))
        assert_allclose(
            spectrum_shifted.eigenvalues, spectrum.eigenvalues + 2.5, atol=1e-12
        )
        overlaps = np.abs(
            np.sum(spectrum.eigenvectors.conj() * spectrum_shifted.eigenvectors, axis=0)
        )
        assert_allclose(overlaps, 1.0, atol=1e-8)

    def test_agrees_with_char_poly_roots_2x2_block(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            block = (g + g.conj().T) / 2
            m = np.zeros((4, 4), dtype=complex)
            m[:2, :2] = block
            m[2, 2], m[3, 3] = 10.0, 11.0
            spectrum = eig_hermitian(HermitianOperator(D22, m))
            expected = np.sort(
                np.concatenate([char_poly_roots_2x2(block), [10.0, 11.0]])
            )
            assert_allclose(spectrum.eigenvalues, expected, atol=1e-8)

    def test_agrees_with_char_poly_roots_3x3_block(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            block = (g + g.conj().T) / 2
            m = np.zeros((4, 4), dtype=complex)
            m[:3, :3] = block
            m[3, 3] = 20.0
            spectrum = eig_hermitian(HermitianOperator(D22, m))
            expected = np.sort(
                np.concatenate([char_poly_roots_3x3(block), [20.0]])
            )
            assert_allclose(spectrum.eigenvalues, expected, atol=1e-8)


class TestMinEigenpair:
    def test_identity(self):
        lam, vec = min_eigenpair(identity(D22))
        assert lam == pytest.approx(1.0)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_diagonal_ground_state(self):
        lam, vec = min_eigenpair(HermitianOperator(D22, np.diag([-2.0, 0.0, 1.0, 5.0])))
        assert lam == pytest.approx(-2.0)
        assert abs(vec[0]) == pytest.approx(1.0)


class TestPartialTranspose:
    def test_diagonal_fixed_point(self):
        op = HermitianOperator(D22, np.diag([1.0, 2.0, 3.0, 4.0]))
        assert_allclose(partial_transpose(op).entries, op.entries)

    def test_involution(self):
        rng = np.random.default_rng(5)
        for dims in DIMS_SMALL:
            op = random_hermitian(dims, rng)
            twice = partial_transpose(partial_transpose(op))
            assert_allclose(twice.entries, op.entries)

    def test_matches_brute_force_index_map(self):
        rng = np.random.default_rng(6)
        for dims in (D23, D33):
            ops = [random_hermitian(dims, rng) for _ in range(3)]
            stacked = partial_transpose_stack(np.stack([op.entries for op in ops]), dims)
            for op, pt in zip(ops, stacked):
                expected = brute_force_partial_transpose(op.entries, dims.dA, dims.dB)
                assert_allclose(partial_transpose(op).entries, expected)
                assert np.array_equal(pt, partial_transpose(op).entries)

    def test_trace_preserved(self):
        rng = np.random.default_rng(8)
        op = random_hermitian(D33, rng)
        assert partial_transpose(op).trace == pytest.approx(op.trace)

    def test_both_sides_share_spectrum(self):
        # transposing the first factor gives the full transpose of the
        # second-factor result, so both share every spectrum
        rng = np.random.default_rng(9)
        op = random_hermitian(D23, rng)
        a_side = brute_force_partial_transpose(op.entries, D23.dA, D23.dB, "A")
        assert np.array_equal(a_side, partial_transpose(op).entries.T)
        b_side = eig_hermitian(partial_transpose(op)).eigenvalues
        assert_allclose(np.linalg.eigvalsh(a_side), b_side, atol=1e-10)


class TestHsAlgebra:
    def test_identity_inner_product(self):
        assert hs_inner(identity(D22), identity(D22)) == pytest.approx(4.0)

    def test_inner_equals_norm_squared(self):
        rng = np.random.default_rng(10)
        op = random_hermitian(D23, rng)
        assert hs_inner(op, op) == pytest.approx(hs_norm(op) ** 2)

    def test_norm_is_root_sum_of_squared_eigenvalues(self):
        rng = np.random.default_rng(12)
        op = random_hermitian(D22, rng)
        lam = eig_hermitian(op).eigenvalues
        assert hs_norm(op) == pytest.approx(float(np.sqrt(np.sum(lam**2))))

    def test_dims_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            hs_inner(identity(D22), identity(D23))

    def test_large_hidden_asymmetry_raises_non_real(self):
        # Entries pass the 1e-12 Hermiticity gate yet the product trace
        # accumulates an imaginary part beyond the 1e-10 budget.
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1e4 + 4.9e-13j
        m[1, 0] = 1e4 + 4.9e-13j
        a = HermitianOperator(D22, m)
        with pytest.raises(NonRealResult):
            hs_inner(a, a)


class TestScaleShiftHelpers:
    def test_shifted_adds_identity(self):
        op = identity(D22)
        assert_allclose(shifted(op, -0.5).entries, 0.5 * np.eye(4))

    def test_scaled_multiplies(self):
        op = identity(D22)
        assert_allclose(scaled(op, 3.0).entries, 3.0 * np.eye(4))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), dims_idx=st.integers(0, 2))
def test_partial_transpose_properties_hold(seed, dims_idx):
    dims = DIMS_SMALL[dims_idx]
    rng = np.random.default_rng(seed)
    op = random_hermitian(dims, rng)
    pt = partial_transpose(op)
    # Hermiticity survives exactly (the entry map commutes with the conjugate
    # transpose, so the result skips re-validation), the entries stay
    # read-only, trace is preserved, and transposing twice returns the
    # original entries.
    assert np.abs(pt.entries - pt.entries.conj().T).max() == np.abs(
        op.entries - op.entries.conj().T
    ).max()
    assert not pt.entries.flags.writeable
    assert pt.trace == pytest.approx(op.trace)
    assert_allclose(partial_transpose(pt).entries, op.entries)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), shift=st.floats(-5.0, 5.0))
def test_min_eigenvalue_tracks_identity_shift(seed, shift):
    rng = np.random.default_rng(seed)
    op = random_hermitian(D22, rng)
    lam, _ = min_eigenpair(op)
    lam_shifted, _ = min_eigenpair(shifted(op, shift))
    assert lam_shifted == pytest.approx(lam + shift, abs=1e-10)


def test_eigensolver_failure_is_wrapped(monkeypatch):
    def boom(_):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, "eigh", boom)
    with pytest.raises(ConvergenceFailure):
        eig_hermitian(identity(D22))
