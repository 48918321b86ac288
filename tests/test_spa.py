"""SPA layer: shifts, PPT verdicts, both violation conditions, geometry helpers."""

from __future__ import annotations

import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import gap_rule_one_at_a_time, haar_one_at_a_time
from conftest import (
    DIMS_SMALL,
    full_rank_separable,
    random_negative_hermitian,
    rank_deficient_separable,
)
from spa_witness.errors import (
    InvalidParams,
    NotNegative,
    NumericalError,
    SpaWitnessError,
    ZeroTrace,
)
from spa_witness.operators import (
    Dims,
    HermitianOperator,
    eig_hermitian,
    hs_inner,
    hs_norm,
    min_eigenpair,
    partial_transpose,
    spectra_with_pt,
)
from spa_witness.scan import SCAN_CHUNK, build_grid, parse_grid_axis, run_scan
from spa_witness.spa import (
    Conclusion,
    HyperplaneSide,
    PptStatus,
    gap_rule,
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
        HermitianOperator(D22, np.outer(SINGLET, SINGLET.conj())), Provenance.UNKNOWN
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
        mu = haar_one_at_a_time(dims.dA, rng)
        nu = haar_one_at_a_time(dims.dB, rng)
        w = rng.uniform(0.5, 1.5)
        terms.append((w, ProductVector(mu, nu)))
        terms.append((w, ProductVector(mu, nu.conj())))
    total = sum(w for w, _ in terms)
    terms = tuple((w / total, pv) for w, pv in terms)
    return ensemble_density(SeparableEnsemble(dims, terms))


class TestSpa:
    def test_positive_operator_needs_no_shift(self):
        op = HermitianOperator(D22, np.diag([0.5, 1.0, 2.0, 3.0]))
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
            HermitianOperator(D22, op.entries + under * np.eye(4))
        )
        assert lam < 0

    def test_trace_zero_shift_rejected(self):
        with pytest.raises(ZeroTrace):
            spa(HermitianOperator(D22, -np.eye(4)))

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

    @pytest.mark.parametrize(
        "diagonal, shortcut",
        [
            ([k / 45 for k in range(1, 10)], False),
            ([1.0, 0.0, 0.0, 0.0], True),
            ([0.5, 0.0, 0.0, 0.5], True),
            # the rule: |eigenvalue| > DEFAULT_RANK_TOL * max |eigenvalue| (5e-10)
            ([0.5, 0.5 - 2e-9, 1e-9, 1e-9], False),
            ([0.5, 0.5 - 2e-10, 1e-10, 1e-10], True),
        ],
        ids=["full-rank", "rank-one", "two-term", "above-rank-tol", "below-rank-tol"],
    )
    def test_rank_rule_decides_the_shortcut(self, diagonal, shortcut):
        dims = D33 if len(diagonal) == 9 else D22
        sigma = DensityOperator(HermitianOperator(dims, np.diag(diagonal)), Provenance.UNKNOWN)
        assert spa_sigma_form(build_witness(sigma, 0.2)).rank_deficient_shortcut is shortcut

    def test_rank_comes_from_the_checked_eigensolve(self, monkeypatch):
        # criterion 4's draws, built first: a density check may use eigvalsh
        rng = np.random.default_rng(77)
        dims_cycle = itertools.cycle(DIMS_SMALL)
        witnesses = [
            build_witness(rank_deficient_separable(next(dims_cycle), rng), 0.05)
            for _ in range(100)
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert all(spa_sigma_form(w).rank_deficient_shortcut for w in witnesses)


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
        scaled_op = HermitianOperator(D22, 250.0 * rho.op.entries)
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
        verdict = ppt_check(HermitianOperator(D22, m))
        assert verdict.status is PptStatus.PPT

    def test_non_positive_trace_rejected(self):
        # -I is no state; its partial transpose is not tested unnormalized
        with pytest.raises(ZeroTrace):
            ppt_check(HermitianOperator(D22, -np.eye(4)))

    @pytest.mark.parametrize("dims", DIMS_SMALL, ids=str)
    def test_separable_densities_pass(self, dims):
        rng = np.random.default_rng(12)
        for _ in range(20):
            rho = full_rank_separable(dims, rng)
            assert ppt_check(rho).status is PptStatus.PPT


class TestSigmaRouteCondition:
    def test_one_solve_of_sigma_and_one_of_its_partial_transpose(self, eigh_calls):
        # build, SPA and verdict: both spectra come with the witness, from one
        # stacked solve; c = 0.2 exceeds min eig sigma <= 1/6 for any 6x6 density
        sigma = full_rank_separable(Dims(2, 3), np.random.default_rng(5))
        w = build_witness(sigma, 0.2)
        spa_sigma_form(w)
        spa_violation_from_sigma(w)
        assert [m.shape for m in eigh_calls] == [(2, 6, 6)]
        stack = np.stack([sigma.op.entries, partial_transpose(sigma.op).entries])
        assert (eigh_calls[0] == stack).all()

    def test_recast_solves_the_input_then_sigma_and_its_partial_transpose(
        self, eigh_calls, hakye_reference
    ):
        _, op = hakye_reference
        d = op.dims.dAB
        w = sigma_form_from_matrix(op)
        assert [m.shape for m in eigh_calls] == [(d, d), (2, d, d)]
        spa_violation_from_sigma(w)
        assert len(eigh_calls) == 2
        rebuilt = build_witness(w.sigma, w.c).spectra
        assert rebuilt.tobytes() == w.spectra.tobytes()
        assert not w.spectra.flags.writeable

    def test_spectra_are_the_stacked_solve_bit_for_bit(self):
        # criterion 4's draws: lambda0 and lambda0^PT of sigma as the one
        # stacked eigensolve of (sigma, sigma^PT) gives them
        rng = np.random.default_rng(77)
        dims_cycle = itertools.cycle(DIMS_SMALL)
        for _ in range(100):
            sigma = rank_deficient_separable(next(dims_cycle), rng)
            w = build_witness(sigma, 0.05)
            verdict = spa_violation_from_sigma(w)
            lam0, lam0_pt = spectra_with_pt(sigma.op.entries, sigma.dims)[:, 0].tolist()
            assert w.lambda0_sigma.hex() == lam0.hex()
            assert verdict.lambda0.hex() == (lam0 - 0.05).hex()
            assert verdict.lambda0_pt.hex() == (lam0_pt - 0.05).hex()

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

    def test_spa_sides_are_those_of_w(self, hakye_reference):
        # W's eigenvalues and the sides (SPA of W, SPA of W^PT), as the gap
        # route gives them for the matrix sigma - c*I
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        verdict = spa_violation_from_sigma(w)
        gap = spa_violation_from_gap(w.operator())
        assert verdict.npt_side == gap.npt_side == "direct"
        assert verdict.spa_ppt is verdict.spa_sides[0]
        assert verdict.lambda0 == pytest.approx(gap.lambda0, abs=1e-12)
        assert verdict.lambda0_pt == pytest.approx(gap.lambda0_pt, abs=1e-12)
        for mine, theirs in zip(verdict.spa_sides, gap.spa_sides):
            assert mine.shift == pytest.approx(theirs.shift, abs=1e-12)
            assert mine.min_pt_eigenvalue == pytest.approx(theirs.min_pt_eigenvalue, abs=1e-12)
            assert mine.status is theirs.status

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

    def test_matches_explicit_sigma_form_build(self):
        # build the SPA and PPT-check it, the way the closed form avoids
        rng = np.random.default_rng(51)
        for dims in itertools.islice(itertools.cycle(DIMS_SMALL), 40):
            sigma = full_rank_separable(dims, rng)
            lam0 = min_eigenpair(sigma.op)[0]
            w = build_witness(sigma, lam0 + float(rng.uniform(0.01, 1.0)))
            side = spa_violation_from_sigma(w).spa_sides[0]
            built = spa_sigma_form(w)
            assert not built.rank_deficient_shortcut
            explicit = ppt_check(built.spa_operator)
            assert side.shift == pytest.approx(built.s, abs=1e-12)
            assert side.min_pt_eigenvalue == pytest.approx(
                explicit.min_pt_eigenvalue, abs=1e-12
            )
            assert side.min_pt_eigenvalue_raw == pytest.approx(
                pt_min_eigenvalue(built.spa_operator), abs=1e-12
            )
            assert side.status is explicit.status
            assert side.conclusive_separability == explicit.conclusive_separability

    def test_rank_deficient_draws_raise_nothing(self):
        # criterion 4's draws: lam0(sigma) and lam0(sigma^PT) are rounding
        # noise there, so at tol 0 the gap may fire, and every field must
        # then tell the same story
        rng = np.random.default_rng(77)
        for dims in itertools.islice(itertools.cycle(DIMS_SMALL), 100):
            sigma = rank_deficient_separable(dims, rng)
            verdict = spa_violation_from_sigma(build_witness(sigma, 0.05), tol=0.0)
            assert verdict.condition_holds is (verdict.conclusion is not Conclusion.CONSISTENT)
            assert verdict.condition_holds is (verdict.npt_side == "direct")
            assert verdict.spa_ppt is verdict.spa_sides[0]


class TestGapCondition:
    def test_reference_family_gap(self, hakye_reference):
        _, op = hakye_reference
        verdict = spa_violation_from_gap(op, asserted_onew=True)
        assert verdict.condition_holds
        assert verdict.npt_side == "direct"
        assert verdict.gap == pytest.approx(0.0846302540741, abs=1e-10)
        assert verdict.spa_ppt.status is PptStatus.NPT_ENTANGLED
        assert verdict.conclusion is Conclusion.VIOLATES
        assert verdict.spa_sides[1] is not None

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
        op = HermitianOperator(D22, sym)
        verdict = spa_violation_from_gap(op, asserted_onew=True)
        assert not verdict.condition_holds
        assert verdict.conclusion is Conclusion.CONSISTENT
        assert verdict.npt_side is None

    def test_positive_input_rejected(self):
        op = HermitianOperator(D22, np.eye(4))
        # the message the solve of W alone gives
        lam0 = float(eig_hermitian(op)[0][0])
        message = (
            f"minimum eigenvalue {lam0!r} of the witness matrix is not negative: "
            "not a witness candidate"
        )
        with pytest.raises(NotNegative) as info:
            spa_violation_from_gap(op)
        assert str(info.value) == message

    def test_swap_flags_partial_transpose_side(self):
        v = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                v[i * 2 + j, j * 2 + i] = 1.0
        verdict = spa_violation_from_gap(HermitianOperator(D22, v))
        assert verdict.condition_holds
        assert verdict.npt_side == "partial-transpose"
        assert verdict.spa_ppt.status is PptStatus.NPT_ENTANGLED
        assert verdict.spa_sides[0].status is PptStatus.PPT

    def test_tie_window_degrades_to_inconclusive(self):
        # gap clears tol on the raw scale but not after trace normalization
        x = 250.0
        e1, e2 = 2e-6, 1e-6
        m = np.diag([x - e1, x - e2, x - e2, x - e1]).astype(complex)
        m[0, 3] = m[3, 0] = x
        op = HermitianOperator(D22, m)
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

    @pytest.mark.parametrize("matrix", ["reference", "swap", "sigma", "scan"])
    def test_one_stacked_eigensolve(self, matrix, hakye_reference, monkeypatch):
        op = HermitianOperator(D22, SWAP_22) if matrix == "swap" else hakye_reference[1]
        # the sigma route on the reference sigma, recast before counting
        witness = sigma_form_from_matrix(op) if matrix == "sigma" else None
        calls = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(m, *args, _real=real, _name=name, **kwargs):
                calls.append((_name, np.shape(m)))
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        d = op.dims.dAB
        expected = [("eigh", (2, d, d))]
        if matrix == "scan":
            # the scan certifies its closed-form spectra and solves nothing
            run_scan(build_grid([parse_grid_axis(f"theta=0.01:1.5:{SCAN_CHUNK + 1}")], {}, True))
            expected = []
        elif witness is None:
            spa_violation_from_gap(op)
        else:
            # both spectra came with the witness: nothing is solved
            spa_violation_from_sigma(witness)
            expected = []
        assert calls == expected

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_bad_tolerance_rejected(self, tol):
        w = sigma_form_from_matrix(HermitianOperator(D22, SWAP_22))
        for check in (
            lambda: gap_verdict(-1.0, -2.0, 4.0, 4, tol=tol),
            lambda: spa_violation_from_sigma(w, tol=tol),
        ):
            with pytest.raises(InvalidParams):
                check()

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


class TestGapRuleArrays:
    """gap_rule over arrays against the scalar arithmetic, bit for bit, and
    gap_verdict's normalized floors and ZeroTrace against the same oracle."""

    POINTS = st.lists(
        st.tuples(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.floats(-50.0, 1e7)),
        min_size=1,
        max_size=12,
    )

    @settings(max_examples=200, deadline=None)
    @given(points=POINTS, dAB=st.sampled_from([4, 6, 9]), tol=st.floats(0.0, 1.0))
    def test_matches_scalar_arithmetic(self, points, dAB, tol):
        lam0, lam0_pt, _ = (np.array(column) for column in zip(*points))
        gap, holds, shift, raw = gap_rule(lam0, lam0_pt, tol)
        for k, point in enumerate(points):
            ref_gap, sides = gap_rule_one_at_a_time(*point, dAB)
            got = [(shift[i, k], raw[i, k]) for i in range(2)]
            assert repr([tuple(map(float, side)) for side in got]) == repr(
                [(s, r) for s, _, r in sides]
            )
            assert repr(float(gap[k])) == repr(ref_gap)
            assert bool(holds[k]) is (ref_gap > tol)
            bad = [tr for _, tr, _ in sides if not 1e-12 < tr < np.inf]
            if bad:
                with pytest.raises(ZeroTrace, match=re.escape(f"trace {bad[0]!r};")):
                    gap_verdict(*point, dAB, tol)
                continue
            verdict = gap_verdict(*point, dAB, tol)
            scalar = [
                (v.shift, v.min_pt_eigenvalue_raw, v.min_pt_eigenvalue) for v in verdict.spa_sides
            ]
            assert repr(scalar) == repr([(s, r, r / tr) for s, tr, r in sides])
            assert verdict.condition_holds is (ref_gap > tol)

    @pytest.mark.parametrize("lam0", [0.0, -0.0])
    @pytest.mark.parametrize("lam0_pt", [0.0, -0.0, -0.5])
    def test_signed_zero_shift(self, lam0, lam0_pt):
        # max(0.0, -lam0) is +0.0 for lam0 = +-0.0, so the PT floor
        # -0.0 + s stays +0.0; a shift of -0.0 would make it -0.0
        _, _, shift, raw = gap_rule(np.array([lam0]), np.array([lam0_pt]), 0.0)
        assert repr(shift[0].tolist()) == repr([max(0.0, -lam0)]) == "[0.0]"
        assert repr(raw[0].tolist()) == repr([lam0_pt + max(0.0, -lam0)])
        direct, _ = gap_verdict(lam0, lam0_pt, 3.0, 9, 0.0).spa_sides
        assert repr(direct.min_pt_eigenvalue_raw) == repr(lam0_pt + max(0.0, -lam0))

    @pytest.mark.parametrize(
        "point",
        [(-1.0, -1.0, -4.0), (-2.0, -1.0, -9.0), (-1.0, -2.0, -9.0), (-2.0, -1.0, -5.0)],
    )
    def test_zero_trace_names_the_first_side(self, point):
        # W's side is checked first: with both SPA traces failing, gap_verdict
        # names W's (-1.0, then -5.0); the last point fails on W^PT's alone
        _, sides = gap_rule_one_at_a_time(*point, 4)
        first = next(tr for _, tr, _ in sides if not tr > 1e-12)
        with pytest.raises(ZeroTrace, match=re.escape(f"shifted operator has trace {first!r};")):
            gap_verdict(*point, 4)


class TestOverflowingTraces:
    """A trace or an SPA trace past the float range cannot be normalized by."""

    # tr(5e307 F) = 1e308 is finite, its SPA's 1e308 + 4 * 5e307 is not
    SWAP = HermitianOperator(D22, 5e307 * SWAP_22)
    # the trace itself overflows
    HUGE = HermitianOperator(D22, np.diag([1e308, 1e308, -1.0, 0.0]))

    @pytest.mark.parametrize(
        "check, op",
        [(spa, SWAP), (spa, HUGE), (ppt_check, HUGE), (spa_violation_from_gap, SWAP),
         (spa_violation_from_gap, HUGE)],
        ids=["spa-spa-trace", "spa-trace", "ppt_check-trace", "gap-spa-trace", "gap-trace"],
    )
    def test_zero_trace(self, check, op):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroTrace, match=r"trace inf; cannot normalize"):
                check(op)

    @staticmethod
    def verdict_fields(verdict):
        sides = [(v.status, v.conclusive_separability) for v in verdict.spa_sides]
        return verdict.conclusion, verdict.npt_side, sides

    def test_power_of_two_scales_keep_the_verdict(self, hakye_reference):
        # at tolerance 0 the gap and the normalized floors of 2^k W keep the
        # signs of W's, so 2^k W gets W's verdict or fails numerically; at
        # 2^1017 (F + 100 diag(1, 0, 0, 1)) every entry is finite, the trace not
        rng = np.random.default_rng(5)
        fixed = [SWAP_22 + t * np.diag([1.0, 0.0, 0.0, 1.0]) for t in (0.0, 1.0, 100.0)]
        witnesses = [HermitianOperator(D22, m) for m in fixed] + [hakye_reference[1]]
        draws = [random_negative_hermitian(dims, rng) for dims in DIMS_SMALL for _ in range(3)]
        for w in witnesses + draws:
            base = spa_violation_from_gap(w, tol=0.0)
            near = min(abs(v.min_pt_eigenvalue) for v in base.spa_sides) <= 1e-6
            if w in draws and (near or base.gap <= 1e-6 * hs_norm(w)):
                continue  # a draw within 1e-6 relative of the tolerance
            for k in range(-60, 1021):
                with np.errstate(over="ignore"):
                    m = w.entries * 2.0**k
                if not np.isfinite(m).all():
                    break
                try:
                    verdict = spa_violation_from_gap(HermitianOperator(w.dims, m), tol=0.0)
                except NumericalError:
                    continue
                assert self.verdict_fields(verdict) == self.verdict_fields(base), k

def ground_projector(op: HermitianOperator) -> HermitianOperator:
    """Rank-one projector onto a unit eigenvector of op's minimum eigenvalue."""
    _, vec = min_eigenpair(op)
    return HermitianOperator(op.dims, np.outer(vec, vec.conj()))


class TestGroundProjectors:
    def test_ground_state_value_is_lam0_minus_c(self, hakye_reference):
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        value = hs_inner(ground_projector(w.sigma.op), w.operator())
        assert value == pytest.approx(w.lambda0_sigma - w.c, abs=1e-12)
        assert value < 0

    def test_pt_trace_duality(self, hakye_reference):
        # tr(W e0^PT) = tr(W^PT e0) for the ground projector of sigma^PT
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        e0 = ground_projector(partial_transpose(w.sigma.op))
        lhs = hs_inner(partial_transpose(e0), w.operator())
        rhs = hs_inner(e0, partial_transpose(w.operator()))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestHyperplaneClassify:
    def test_three_sides(self, hakye_reference):
        _, op = hakye_reference
        w = sigma_form_from_matrix(op)
        wop = w.operator()
        spectrum_vecs = np.linalg.eigh(wop.entries)[1]
        ground = spectrum_vecs[:, 0]
        top = spectrum_vecs[:, -1]
        rho_neg = DensityOperator(
            HermitianOperator(D33, np.outer(ground, ground.conj())), Provenance.UNKNOWN
        )
        rho_pos = DensityOperator(
            HermitianOperator(D33, np.outer(top, top.conj())), Provenance.UNKNOWN
        )
        assert hyperplane_classify(wop, rho_neg) is HyperplaneSide.NEGATIVE
        assert hyperplane_classify(wop, rho_pos) is HyperplaneSide.POSITIVE

    def test_on_plane_at_product_argmin(self):
        rng = np.random.default_rng(2)
        sigma = full_rank_separable(D22, rng)
        est = c_sigma_max(sigma, restarts=16)
        w = build_witness(sigma, est.value, est)
        v = est.argmin.vector()
        rho = DensityOperator(HermitianOperator(D22, np.outer(v, v.conj())), Provenance.SEPARABLE)
        assert hyperplane_classify(w.operator(), rho) is HyperplaneSide.ON_PLANE
