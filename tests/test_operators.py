"""Operator layer: validation, eigensolver contract, partial transpose, HS algebra."""

from __future__ import annotations

import math
import warnings

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
from spa_witness.hakye import cos_family_params, hakye_matrices
from spa_witness.operators import (
    Dims,
    HermitianOperator,
    check_hermitian,
    eig_hermitian,
    eigh_checked,
    entry_scale,
    hs_inner,
    hs_inner_stack,
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
        # at 1e200 the squared norms of A would overflow; the check must still hold
        m = np.diag([1.0, -1.0, 0.3, 1e-200]) * scale
        mixed = np.stack([m, np.diag([1e200, 1.0, 1.0, 1.0])])
        w, _ = eig_hermitian(HermitianOperator(D22, m))
        assert_allclose(w, np.sort(np.diag(m)))
        # the check returns LAPACK's own arrays for A/p, with the eigenvalues
        # scaled back by the power of two p, bit for bit
        for a in (m, mixed):
            p = entry_scale(a)
            lapack_w, lapack_v = np.linalg.eigh(a / p[..., None, None])
            for got, want in zip(eigh_checked(a), (lapack_w * p[..., None], lapack_v)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        real_eigh = np.linalg.eigh

        def swap_first_two(a):
            w, v = real_eigh(a)
            return w, v[..., [1, 0, 2, 3]]

        monkeypatch.setattr(np.linalg, "eigh", swap_first_two)
        with pytest.raises(ConvergenceFailure, match="residual"):
            eig_hermitian(HermitianOperator(D22, m))
        # the swap leaves the second matrix's residuals intact (its first two
        # eigenvalues are equal), and the error names the matrix that fails
        with pytest.raises(ConvergenceFailure, match=r"^matrix \(0,\): eigenpair residual"):
            eigh_checked(mixed)

    def test_orthonormality_failure_names_the_matrix(self, monkeypatch):
        real_eigh = np.linalg.eigh

        def stretch_second(a):
            # doubled eigenvectors keep every residual zero but lose unit norm
            w, v = real_eigh(a)
            return w, v * np.array([1.0, 2.0])[:, None, None]

        monkeypatch.setattr(np.linalg, "eigh", stretch_second)
        stack = np.stack([np.diag([3.0, 1.0, 2.0, 5.0])] * 2)
        with pytest.raises(ConvergenceFailure, match=r"^matrix \(1,\): eigenvectors lost"):
            eigh_checked(stack)

    def test_diagonal_sorted_ascending(self):
        op = HermitianOperator(D22, np.diag([3.0, 1.0, 2.0, 5.0]))
        w, _ = eig_hermitian(op)
        assert_allclose(w, [1.0, 2.0, 3.0, 5.0])

    def test_eigenvector_residuals(self):
        rng = np.random.default_rng(7)
        for dims in DIMS_SMALL:
            op = random_hermitian(dims, rng)
            w, vecs = eig_hermitian(op)
            for k in range(dims.dAB):
                v = vecs[:, k]
                resid = op.entries @ v - w[k] * v
                assert np.linalg.norm(resid) < 1e-10 * max(1.0, hs_norm(op))

    def test_shift_moves_eigenvalues_only(self):
        rng = np.random.default_rng(11)
        op = random_hermitian(D23, rng)
        w, v = eig_hermitian(op)
        w_shifted, v_shifted = eig_hermitian(shifted(op, 2.5))
        assert_allclose(w_shifted, w + 2.5, atol=1e-12)
        overlaps = np.abs(np.sum(v.conj() * v_shifted, axis=0))
        assert_allclose(overlaps, 1.0, atol=1e-8)

    def test_agrees_with_char_poly_roots_2x2_block(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            block = (g + g.conj().T) / 2
            m = np.zeros((4, 4), dtype=complex)
            m[:2, :2] = block
            m[2, 2], m[3, 3] = 10.0, 11.0
            w, _ = eig_hermitian(HermitianOperator(D22, m))
            expected = np.sort(
                np.concatenate([char_poly_roots_2x2(block), [10.0, 11.0]])
            )
            assert_allclose(w, expected, atol=1e-8)

    def test_agrees_with_char_poly_roots_3x3_block(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            block = (g + g.conj().T) / 2
            m = np.zeros((4, 4), dtype=complex)
            m[:3, :3] = block
            m[3, 3] = 20.0
            w, _ = eig_hermitian(HermitianOperator(D22, m))
            expected = np.sort(
                np.concatenate([char_poly_roots_3x3(block), [20.0]])
            )
            assert_allclose(w, expected, atol=1e-8)


def power_of_two_at_or_below(s: np.ndarray) -> np.ndarray:
    """The power of two at or below each finite s >= 1, one math.frexp per
    value; a non-finite s as it is."""
    return np.array([
        math.ldexp(0.5, math.frexp(x)[1]) if math.isfinite(x) else x for x in np.ravel(s).tolist()
    ]).reshape(np.shape(s))


class TestEntryScale:
    def test_brackets_the_largest_part_of_hakye_matrices(self):
        # p <= s < 2p for s the largest part over the float64 parts, which is
        # the scale certify_spectra used to compute inline
        rng = np.random.default_rng(5)
        n = 64
        grid = np.vstack([
            rng.choice([-1.0, 1.0], (3, n)) * 10.0 ** rng.uniform(-3.0, 300.0, (3, n)),
            rng.uniform(-np.pi, np.pi, (1, n)),
        ])
        m = hakye_matrices(grid)
        parts = m.view(np.float64).reshape(n, 162)
        s = np.maximum(parts.max(axis=1, initial=1.0), -parts.min(axis=1))
        p = entry_scale(m)
        assert (np.frexp(p)[0] == 0.5).all()
        assert (p <= s).all() and (s < 2.0 * p).all()
        assert p.tobytes() == power_of_two_at_or_below(s).tobytes()

    def test_real_and_complex_input(self):
        stack = np.stack([np.diag([0.5, -0.25]), np.diag([-3.0, 2.0])])
        assert entry_scale(stack).tolist() == [1.0, 2.0]
        assert entry_scale(np.array([[1.0, -4.0j], [4.0j, 2.0]])) == 4.0
        assert entry_scale(np.array([[1.0, -4.5j], [4.5j, 2.0]])) == 4.0

    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    def test_equals_the_larger_part_rule_bit_for_bit(self, complex_entries):
        # the one pass over the float64 view gives the bits of the power of
        # two at or below the max over entries of max(|re|, |im|), whatever
        # the entries and the layout
        values = np.array([
            0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 0.5, -3.0
        ])
        rng = np.random.default_rng(11)
        for shape in [(3, 3), (6, 4, 4), (2, 3, 5, 5)]:
            for _ in range(50):
                m = rng.choice(values, shape)
                if complex_entries:
                    m = m + 0j
                    m.imag = rng.choice(values, shape)
                for view in (m, m.mT, m[..., ::2, ::2], m[..., 1:, 1:]):
                    larger = np.maximum(np.abs(view.real), np.abs(view.imag)).max(
                        axis=(-2, -1), initial=1.0
                    )
                    expected = power_of_two_at_or_below(larger)
                    assert entry_scale(view).tobytes() == expected.tobytes()


def hermitian_stack(rng: np.random.Generator, n: int, d: int, lo: float, hi: float) -> np.ndarray:
    """n random d x d Hermitian matrices, each scaled by 10**uniform(lo, hi)."""
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (g + g.mT.conj()) / 2.0 * 10.0 ** rng.uniform(lo, hi, (n, 1, 1))


class TestPowerOfTwoScale:
    def test_eigh_checked_keeps_lapacks_bits_below_its_own_rescale(self):
        # LAPACK rescales a matrix whose largest entry passes about 1e146;
        # below that its arithmetic commutes with a power-of-two scale, so
        # solving A/p and multiplying back by p changes no bit
        rng = np.random.default_rng(31)
        grid = np.vstack([rng.uniform(0.0, 2.0, (3, 16)), rng.uniform(-np.pi, np.pi, (1, 16))])
        stacks = []
        for m, dims in [
            (hakye_matrices(grid), D33),
            (hakye_matrices(cos_family_params(rng.uniform(0.05, 1.2, 16))), D33),
            *[(hermitian_stack(rng, 8, d.dAB, -1.0, 1.0), d) for d in DIMS_SMALL + (Dims(3, 4),)],
        ]:
            stacks.append(np.stack([m, partial_transpose_stack(m, dims)]))
        stacks += [hermitian_stack(rng, 12, d, -3.0, 100.0) for d in range(2, 13)]
        for a in stacks:
            for got, want in zip(eigh_checked(a), np.linalg.eigh(a)):
                assert got.tobytes() == want.tobytes()

    def test_above_lapacks_rescale_the_power_of_two_scale_is_exact(self):
        rng = np.random.default_rng(37)
        for d in range(2, 13):
            a = hermitian_stack(rng, 6, d, 150.0, 300.0)
            p = entry_scale(a)
            w, v = np.linalg.eigh(a / p[:, None, None])
            got_w, got_v = eigh_checked(a)
            assert got_w.tobytes() == (w * p[:, None]).tobytes()
            assert got_v.tobytes() == v.tobytes()
        # LAPACK's own rescale misplaces 3e199 here; the exact one does not
        m = np.diag([1.0, -1.0, 0.3, 1e-200]) * 1e200
        assert eigh_checked(m)[0].tolist() == np.sort(np.diag(m)).tolist()

    def test_only_an_eigenvalue_past_the_float_range_overflows(self):
        # [[x, x], [x, -x]] has eigenvalues +-sqrt(2) x: past the range for
        # x = 1.7e308, and inf without a numpy warning
        x = 1.7e308
        w, _ = eigh_checked(np.array([[x, x], [x, -x]]))
        assert w.tolist() == [-np.inf, np.inf]
        w, _ = eigh_checked(np.array([[x, 0.0], [0.0, -x]]))
        assert w.tolist() == [-x, x]


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
        b_side, _ = eig_hermitian(partial_transpose(op))
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
        lam, _ = eig_hermitian(op)
        assert hs_norm(op) == pytest.approx(float(np.sqrt(np.sum(lam**2))))

    def test_norm_keeps_numpy_bits_in_range(self):
        # scaling by a power of two changes no bit where numpy's norm is finite
        rng = np.random.default_rng(13)
        for scale in 10.0 ** np.arange(-5, 101, 5):
            for dims in DIMS_SMALL:
                op = random_hermitian(dims, rng, float(scale))
                assert repr(hs_norm(op)) == repr(float(np.linalg.norm(op.entries)))

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

    def test_nan_trace_raises_non_real(self):
        # a nan imaginary part is no evidence of a real trace either; with a
        # complex b, as a HermitianOperator's entries are, the nan reaches the
        # imaginary part, and with a real b only the real part, which must be
        # refused as well (inf * 0 makes it nan), without a RuntimeWarning
        cases = [
            (np.nan, np.complex128, "imaginary part nan"),
            (np.nan, np.float64, "real part nan"),
            (np.inf, np.float64, "real part nan"),
        ]
        for fill, b_dtype, part in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonRealResult, match=rf"^matrix \(0,\): tr\(a b\) has {part}"):
                    hs_inner_stack(np.full((1, 2, 2), fill), np.eye(2, dtype=b_dtype))


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
