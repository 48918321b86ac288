"""SPA layer: shifts, PPT verdicts, both violation conditions, geometry helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import importlib

spa_module = importlib.import_module("spa_witness.spa")

from conftest import (
    DIMS_SMALL,
    full_rank_separable,
    random_negative_hermitian,
    rank_deficient_separable,
)
from spa_witness.errors import (
    ConvergenceFailure,
    InvalidParams,
    NotNegative,
    SpaWitnessError,
    ZeroTrace,
)
from spa_witness.operators import (
    Dims,
    HermitianOperator,
    hs_inner,
    hs_norm,
    make_hermitian,
    min_eigenpair,
    partial_transpose,
)
from spa_witness.spa import (
    Conclusion,
    HyperplaneSide,
    PptStatus,
    PptVerdict,
    extremal_projectors,
    gap_verdict,
    hyperplane_classify,
    ppt_check,
    pt_min_eigenvalue,
    spa,
    spa_sigma_form,
    spa_violation_from_gap,
    spa_violation_from_sigma,
)
from spa_witness.states import (
    DensityOperator,
    ProductVector,
    Provenance,
    SeparableEnsemble,
    ensemble_density,
    haar_unit_vector,
    maximally_mixed,
)
from spa_witness.witness import build_witness, c_sigma_max, sigma_form_from_matrix

D22 = Dims(2, 2)
D33 = Dims(3, 3)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)

SWAP_22 = np.eye(4)[[0, 2, 1, 3]]

# Entries that overflow, poison or sit near the edge of the float range.
EDGE_ENTRIES = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([np.inf, -np.inf, np.nan, 1e300, -1e300]),
)


def singlet_state() -> DensityOperator:
    return DensityOperator(
        make_hermitian(np.outer(SINGLET, SINGLET.conj()), D22), Provenance.UNKNOWN
    )


def pt_symmetric_separable(dims: Dims, seed: int) -> DensityOperator:
    """Separable density invariant under second-factor partial transposition.

    Each product term is paired with its factor-conjugated twin, so the
    partial transpose permutes terms and the density is a fixed point.
    """
    rng = np.random.default_rng(seed)
    n = 2 * dims.dAB
    terms = []
    for _ in range(n):
        mu = haar_unit_vector(dims.dA, rng)
        nu = haar_unit_vector(dims.dB, rng)
        w = rng.uniform(0.5, 1.5)
        terms.append((w, ProductVector(mu, nu)))
        terms.append((w, ProductVector(mu, nu.conj())))
    total = sum(w for w, _ in terms)
    terms = tuple((w / total, pv) for w, pv in terms)
    return ensemble_density(SeparableEnsemble(dims, terms))


class TestSpa:
    def test_positive_operator_needs_no_shift(self):
        op = make_hermitian(np.diag([0.5, 1.0, 2.0, 3.0]), D22)
        result = spa(op)
        assert result.s == 0.0
        assert_allclose(result.spa_operator.entries, op.entries)
        assert result.normalized_state.op.trace == pytest.approx(1.0)

    def test_shift_equals_negative_part(self):
        rng = np.random.default_rng(0)
        op = random_negative_hermitian(D33, rng)
        lam0, _ = min_eigenpair(op)
        result = spa(op)
        assert result.s == pytest.approx(-lam0, abs=1e-14)
        lam_shifted, _ = min_eigenpair(result.spa_operator)
        assert -1e-10 <= lam_shifted <= 1e-8 * hs_norm(op)

    def test_shift_is_minimal(self):
        rng = np.random.default_rng(1)
        op = random_negative_hermitian(D22, rng)
        result = spa(op)
        under = result.s - 1e-6 * hs_norm(op)
        lam, _ = min_eigenpair(
            make_hermitian(op.entries + under * np.eye(4), D22)
        )
        assert lam < 0

    def test_trace_zero_shift_rejected(self):
        with pytest.raises(ZeroTrace):
            spa(make_hermitian(-np.eye(4), D22))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_spa_bounds_property(self, seed):
        rng = np.random.default_rng(seed)
        op = random_negative_hermitian(D22, rng)
        result = spa(op)
        lam, _ = min_eigenpair(result.spa_operator)
        assert -1e-10 <= lam <= 1e-8 * hs_norm(op)


class TestSpaSigmaForm:
    def test_full_rank_shift(self):
        rng = np.random.default_rng(3)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=8)
        w = build_witness(sigma, est.value, est)
        result = spa_sigma_form(w)
        assert not result.rank_deficient_shortcut
        assert result.s == pytest.approx(w.c - w.lambda0_sigma, abs=1e-14)
        assert_allclose(
            result.spa_operator.entries,
            sigma.op.entries - w.lambda0_sigma * np.eye(4),
            atol=1e-14,
        )

    def test_same_spa_for_every_offset(self):
        rng = np.random.default_rng(4)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=8)
        lam0 = min_eigenpair(sigma.op)[0]
        w_lo = build_witness(sigma, lam0 + 0.3 * (est.value - lam0), est)
        w_hi = build_witness(sigma, est.value, est)
        s_lo = spa_sigma_form(w_lo).normalized_state.op.entries
        s_hi = spa_sigma_form(w_hi).normalized_state.op.entries
        assert float(np.abs(s_lo - s_hi).max()) < 1e-12

    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_rank_deficient_shortcut_returns_sigma(self, dims):
        # c only needs to exceed the vanished bottom eigenvalue of sigma;
        # no c_max certificate is attached here
        rng = np.random.default_rng(5)
        sigma = rank_deficient_separable(dims, rng)
        w = build_witness(sigma, 0.01)
        result = spa_sigma_form(w)
        assert result.rank_deficient_shortcut
        assert result.normalized_state is sigma
        assert result.normalized_state.provenance is Provenance.SEPARABLE
        assert result.s == pytest.approx(w.c)
        assert float(np.abs(result.spa_operator.entries - sigma.op.entries).max()) == 0.0


class TestPptCheck:
    def test_singlet_pt_spectrum(self):
        rho = singlet_state()
        pt = partial_transpose(rho.op)
        assert_allclose(
            np.linalg.eigvalsh(pt.entries), [-0.5, 0.5, 0.5, 0.5], atol=1e-12
        )
        assert pt_min_eigenvalue(rho.op) == pytest.approx(-0.5, abs=1e-12)
        verdict = ppt_check(rho)
        assert verdict.status is PptStatus.NPT_ENTANGLED
        assert verdict.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert not verdict.conclusive_separability

    def test_scale_invariant_verdict(self):
        rho = singlet_state()
        scaled_op = make_hermitian(250.0 * rho.op.entries, D22)
        verdict = ppt_check(scaled_op)
        assert verdict.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)
        assert verdict.status is PptStatus.NPT_ENTANGLED

    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_maximally_mixed_is_ppt(self, dims):
        verdict = ppt_check(maximally_mixed(dims))
        assert verdict.status is PptStatus.PPT
        assert verdict.conclusive_separability == (dims.dAB <= 6)

    def test_marginal_negativity_within_tol_counts_as_ppt(self):
        m = np.diag([0.5, 0.5, 0.0, -5e-9])
        verdict = ppt_check(make_hermitian(m, D22), tol=1e-8)
        assert verdict.status is PptStatus.PPT

    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_separable_densities_pass(self, dims):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = full_rank_separable(dims, rng)
            assert ppt_check(rho).status is PptStatus.PPT


class TestSigmaRouteCondition:
    def test_reference_family_violates(self, hakye_reference):
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        verdict = spa_violation_from_sigma(w, asserted_onew=True)
        assert verdict.condition_holds
        assert verdict.conclusion is Conclusion.VIOLATES
        assert verdict.spa_ppt.status is PptStatus.NPT_ENTANGLED

    def test_reference_family_without_assertion_is_inconclusive(self, hakye_reference):
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        verdict = spa_violation_from_sigma(w)
        assert verdict.condition_holds
        assert verdict.conclusion is Conclusion.INCONCLUSIVE
        assert "assertion" in verdict.assertion_note

    def test_single_side_has_no_spa_sides(self, hakye_reference):
        _, op = hakye_reference
        verdict = spa_violation_from_sigma(sigma_form_from_matrix(op))
        with pytest.raises(TypeError, match="gap verdict"):
            verdict.spa_sides

    def test_exact_pt_eigenvalue_identity(self, hakye_reference):
        # min eig of SPA^PT equals min eig(sigma^PT) - min eig(sigma)
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        verdict = spa_violation_from_sigma(w)
        result = spa_sigma_form(w)
        raw = pt_min_eigenvalue(result.spa_operator)
        assert raw == pytest.approx(verdict.lambda0_pt - verdict.lambda0, abs=1e-12)

    def test_pt_symmetric_sigma_is_consistent(self):
        sigma = pt_symmetric_separable(D22, seed=21)
        est = c_sigma_max(sigma, restarts=8)
        lam0 = min_eigenpair(sigma.op)[0]
        assert est.value > lam0 + 1e-9
        w = build_witness(sigma, est.value, est)
        verdict = spa_violation_from_sigma(w, asserted_onew=True)
        assert not verdict.condition_holds
        assert verdict.conclusion is Conclusion.CONSISTENT
        assert verdict.gap < 1e-10

    def test_cross_check_tripwire(self, hakye_reference, monkeypatch):
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        fake = PptVerdict(
            min_pt_eigenvalue=0.0, status=PptStatus.PPT, conclusive_separability=False
        )
        monkeypatch.setattr(spa_module, "ppt_check", lambda *a, **k: fake)
        with pytest.raises(ConvergenceFailure):
            spa_violation_from_sigma(w)


class TestGapCondition:
    def test_reference_family_gap(self, hakye_reference):
        _, op = hakye_reference
        verdict = spa_violation_from_gap(op, asserted_onew=True)
        assert verdict.condition_holds
        assert verdict.npt_side == "direct"
        assert verdict.gap == pytest.approx(0.0846302540741, abs=1e-10)
        assert verdict.spa_ppt.status is PptStatus.NPT_ENTANGLED
        assert verdict.conclusion is Conclusion.VIOLATES
        assert verdict.partner_spa_ppt is not None

    def test_raw_pt_floor_identity(self, hakye_reference):
        _, op = hakye_reference
        lam0, _ = min_eigenpair(op)
        lam0_pt = pt_min_eigenvalue(op)
        raw = pt_min_eigenvalue(spa(op).spa_operator)
        assert raw == pytest.approx(lam0_pt - lam0, abs=1e-12)

    def test_pt_invariant_witness_is_consistent(self):
        rng = np.random.default_rng(31)
        h = random_negative_hermitian(D22, rng)
        sym = h.entries + partial_transpose(h).entries
        lam = np.linalg.eigvalsh(sym)[0]
        if lam >= -0.1:
            sym = sym - (lam + 0.5) * np.eye(4)
        op = make_hermitian(sym, D22)
        verdict = spa_violation_from_gap(op, asserted_onew=True)
        assert not verdict.condition_holds
        assert verdict.conclusion is Conclusion.CONSISTENT
        assert verdict.npt_side is None

    def test_positive_input_rejected(self):
        with pytest.raises(NotNegative):
            spa_violation_from_gap(make_hermitian(np.eye(4), D22))

    def test_swap_flags_partial_transpose_side(self):
        v = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                v[i * 2 + j, j * 2 + i] = 1.0
        verdict = spa_violation_from_gap(make_hermitian(v, D22))
        assert verdict.condition_holds
        assert verdict.npt_side == "partial-transpose"
        assert verdict.spa_ppt.status is PptStatus.NPT_ENTANGLED
        assert verdict.partner_spa_ppt.status is PptStatus.PPT

    def test_tie_window_degrades_to_inconclusive(self):
        # gap clears tol on the raw scale but not after trace normalization
        x = 250.0
        e1, e2 = 2e-6, 1e-6
        m = np.diag([x - e1, x - e2, x - e2, x - e1]).astype(complex)
        m[0, 3] = m[3, 0] = x
        op = make_hermitian(m, D22)
        verdict = spa_violation_from_gap(op, asserted_onew=True)
        assert verdict.condition_holds
        assert verdict.gap == pytest.approx(1e-6, rel=1e-3)
        assert verdict.spa_ppt.status is PptStatus.PPT
        assert verdict.conclusion is Conclusion.INCONCLUSIVE


class TestGapVerdict:
    """Closed-form SPA verdicts from min eig(W), min eig(W^PT) and tr W."""

    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_matches_explicit_spa_operators(self, dims):
        # build both SPAs and PPT-check them, the way the closed form avoids
        rng = np.random.default_rng(41)
        for _ in range(10):
            op = random_negative_hermitian(dims, rng)
            verdict = spa_violation_from_gap(op)
            direct, partner = verdict.spa_sides
            for side, target in (
                (direct, op), (partner, partial_transpose(op))
            ):
                built = spa(target)
                explicit = ppt_check(built.spa_operator)
                assert side.shift == pytest.approx(built.s, abs=1e-14)
                assert side.min_pt_eigenvalue == pytest.approx(
                    explicit.min_pt_eigenvalue, abs=1e-12
                )
                assert side.min_pt_eigenvalue_raw == pytest.approx(
                    pt_min_eigenvalue(built.spa_operator), abs=1e-12
                )
                assert side.status is explicit.status
                assert side.conclusive_separability == explicit.conclusive_separability

    @pytest.mark.parametrize("matrix", ["reference", "swap"])
    def test_two_eigensolves(self, matrix, hakye_reference, monkeypatch):
        op = hakye_reference[1] if matrix == "reference" else make_hermitian(SWAP_22, D22)
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        spa_violation_from_gap(op)
        assert calls == ["eigh", "eigh"]

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(InvalidParams):
            gap_verdict(-1.0, -2.0, 4.0, 4, tol=tol)

    def test_zero_trace_spa_rejected(self):
        # tr W + dAB*s vanishes: W = -I has lam0 = -1 and trace -dAB
        with pytest.raises(ZeroTrace):
            gap_verdict(-1.0, -1.0, -4.0, 4)

    def test_ppt_conclusive_only_up_to_six(self):
        small = gap_verdict(-1.0, -1.0, 10.0, 6)
        large = gap_verdict(-1.0, -1.0, 10.0, 8)
        assert small.spa_ppt.conclusive_separability
        assert not large.spa_ppt.conclusive_separability

    @settings(max_examples=200, deadline=None)
    @given(upper=st.lists(EDGE_ENTRIES, min_size=10, max_size=10))
    def test_raises_or_returns_finite_fields(self, upper):
        m = np.zeros((4, 4))
        m[np.triu_indices(4)] = upper
        m = np.triu(m) + np.triu(m, 1).T
        try:
            verdict = spa_violation_from_gap(HermitianOperator(D22, m))
        except SpaWitnessError:
            return
        fields = [verdict.lambda0, verdict.lambda0_pt, verdict.gap]
        for side in verdict.spa_sides:
            fields += [side.min_pt_eigenvalue, side.shift, side.min_pt_eigenvalue_raw]
        assert np.isfinite(fields).all()


class TestExtremalProjectors:
    def test_rank_one_ground_projector(self, hakye_reference):
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        proj = extremal_projectors(w.sigma)
        p = proj.sigma_ground.entries
        assert not proj.sigma_ground_degenerate
        assert float(np.trace(p).real) == pytest.approx(1.0, abs=1e-10)
        assert_allclose(p @ p, p, atol=1e-10)

    def test_ground_state_value_is_lam0_minus_c(self, hakye_reference):
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        proj = extremal_projectors(w.sigma)
        value = hs_inner(proj.sigma_ground, w.operator())
        assert value == pytest.approx(w.lambda0_sigma - w.c, abs=1e-12)
        assert value < 0

    def test_pt_trace_duality(self, hakye_reference):
        # tr(W e0^PT) = tr(W^PT e0) for the PT-side ground projector
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        proj = extremal_projectors(w.sigma)
        lhs = hs_inner(partial_transpose(proj.sigma_pt_ground), w.operator())
        rhs = hs_inner(proj.sigma_pt_ground, partial_transpose(w.operator()))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_degenerate_flags(self):
        proj = extremal_projectors(maximally_mixed(D22))
        assert proj.sigma_ground_degenerate
        assert proj.sigma_pt_ground_degenerate
        assert_allclose(proj.sigma_ground.entries, np.eye(4), atol=1e-12)


class TestHyperplaneClassify:
    def test_three_sides(self, hakye_reference):
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        wop = w.operator()
        spectrum_vecs = np.linalg.eigh(wop.entries)[1]
        ground = spectrum_vecs[:, 0]
        top = spectrum_vecs[:, -1]
        rho_neg = DensityOperator(
            make_hermitian(np.outer(ground, ground.conj()), D33), Provenance.UNKNOWN
        )
        rho_pos = DensityOperator(
            make_hermitian(np.outer(top, top.conj()), D33), Provenance.UNKNOWN
        )
        assert hyperplane_classify(wop, rho_neg) is HyperplaneSide.NEGATIVE
        assert hyperplane_classify(wop, rho_pos) is HyperplaneSide.POSITIVE

    def test_on_plane_at_product_argmin(self):
        rng = np.random.default_rng(2)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=16)
        w = build_witness(sigma, est.value, est)
        rho = DensityOperator(est.argmin.projector(), Provenance.SEPARABLE)
        assert hyperplane_classify(w.operator(), rho) is HyperplaneSide.ON_PLANE
