"""Phase-coupled 9x9 witness family: layout, closed-form spectra, reference point."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import (
    brute_force_partial_transpose,
    exact_product_value,
    hakye_product_min,
    hakye_spectra_one_at_a_time,
)
from spa_witness.errors import InvalidParams
from spa_witness.hakye import (
    HAKYE_DIMS,
    HaKyeParams,
    cos_family_params,
    hakye_pt_spectrum_closed_form,
    hakye_spectra_closed_form,
    hakye_spectrum_closed_form,
    hakye_witness,
    reference_violation_params,
)
from spa_witness.operators import Dims, HermitianOperator, min_eigenpair, partial_transpose
from spa_witness.states import DensityOperator
from spa_witness.witness import c_sigma_max


class TestLayout:
    def test_theta_zero_matrix(self):
        op = hakye_witness(HaKyeParams(a=1.0, b=2.0, c=3.0, theta=0.0))
        m = op.entries
        assert_allclose(np.diag(m).real, [1, 3, 2, 2, 1, 3, 3, 2, 1])
        for r, s in ((0, 4), (4, 8), (8, 0)):
            assert m[r, s] == pytest.approx(-1.0)
            assert m[s, r] == pytest.approx(-1.0)
        off = m - np.diag(np.diag(m))
        assert int(np.count_nonzero(off)) == 6

    def test_coupling_phase(self):
        theta = 0.7
        op = hakye_witness(HaKyeParams(a=1.0, b=1.0, c=1.0, theta=theta))
        assert op.entries[0, 4] == pytest.approx(-np.exp(1j * theta))
        assert op.entries[4, 0] == pytest.approx(-np.exp(-1j * theta))

    def test_dims(self):
        op = hakye_witness(HaKyeParams(a=1.0, b=0.0, c=0.0, theta=0.1))
        assert op.dims == HAKYE_DIMS

    def test_trace_identity(self):
        params = HaKyeParams(a=0.3, b=0.8, c=1.1, theta=1.2)
        op = hakye_witness(params)
        assert op.trace == pytest.approx(3 * (params.a + params.b + params.c), abs=1e-12)


class TestParamValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidParams):
            HaKyeParams(a=-0.1, b=1.0, c=1.0, theta=0.0)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidParams):
            HaKyeParams(a=0.0, b=0.0, c=0.0, theta=0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParams):
            HaKyeParams(a=math.nan, b=1.0, c=1.0, theta=0.0)
        with pytest.raises(InvalidParams):
            HaKyeParams(a=1.0, b=1.0, c=1.0, theta=math.inf)


class TestClosedFormSpectra:
    def test_direct_spectrum_matches_eigensolver(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            params = HaKyeParams(
                a=float(rng.uniform(0, 3)),
                b=float(rng.uniform(0, 3)),
                c=float(rng.uniform(0, 3)),
                theta=float(rng.uniform(-math.pi, math.pi)),
            )
            numeric = np.linalg.eigvalsh(hakye_witness(params).entries)
            closed = hakye_spectrum_closed_form(params)
            assert float(np.abs(numeric - closed).max()) < 1e-10

    def test_pt_spectrum_matches_eigensolver(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            params = HaKyeParams(
                a=float(rng.uniform(0, 3)),
                b=float(rng.uniform(0, 3)),
                c=float(rng.uniform(0, 3)),
                theta=float(rng.uniform(-math.pi, math.pi)),
            )
            pt = partial_transpose(hakye_witness(params))
            numeric = np.linalg.eigvalsh(pt.entries)
            closed = hakye_pt_spectrum_closed_form(params)
            assert float(np.abs(numeric - closed).max()) < 1e-10

    def test_pt_relocates_couplings_to_22_blocks(self):
        params = HaKyeParams(a=1.0, b=2.0, c=3.0, theta=0.4)
        op = hakye_witness(params)
        pt = brute_force_partial_transpose(op.entries, 3, 3, side="B")
        coupled = {(1, 3), (3, 1), (2, 6), (6, 2), (5, 7), (7, 5)}
        for r in range(9):
            for s in range(9):
                if r == s:
                    continue
                if (r, s) in coupled:
                    assert abs(pt[r, s]) == pytest.approx(1.0)
                else:
                    assert pt[r, s] == 0.0

    def test_phase_invariant_spectra_under_theta_shift_by_two_thirds_pi(self):
        # shifting theta by 2*pi/3 permutes the circulant branch only
        base = HaKyeParams(a=1.5, b=0.5, c=0.25, theta=0.3)
        shifted = HaKyeParams(a=1.5, b=0.5, c=0.25, theta=0.3 + 2 * math.pi / 3)
        assert_allclose(
            hakye_spectrum_closed_form(base),
            hakye_spectrum_closed_form(shifted),
            atol=1e-12,
        )
        assert_allclose(
            hakye_pt_spectrum_closed_form(base),
            hakye_pt_spectrum_closed_form(shifted),
            atol=1e-12,
        )


class TestReferenceInstance:
    def test_parameter_slice(self):
        params = reference_violation_params()
        ct = math.cos(math.pi / 12.0)
        assert params.a == pytest.approx(4 * ct / 3, abs=1e-15)
        assert params.b == pytest.approx(2 * ct / 3, abs=1e-15)
        assert params.c == 0.0
        assert params.theta == pytest.approx(math.pi / 12.0)

    def test_bottom_eigenvalue_pair(self, hakye_reference):
        params, op = hakye_reference
        lam0, _ = min_eigenpair(op)
        lam0_pt, _ = min_eigenpair(partial_transpose(op))
        pair = sorted([lam0, lam0_pt])
        assert pair[0] == pytest.approx(-0.7286, abs=1e-4)
        assert pair[1] == pytest.approx(-0.6440, abs=1e-4)

    def test_closed_form_values_at_reference(self, hakye_reference):
        params, op = hakye_reference
        lam0, _ = min_eigenpair(op)
        lam0_pt, _ = min_eigenpair(partial_transpose(op))
        assert lam0 == pytest.approx(hakye_spectrum_closed_form(params)[0], abs=1e-12)
        assert lam0_pt == pytest.approx(
            hakye_pt_spectrum_closed_form(params)[0], abs=1e-12
        )
        # frozen values from the closed forms at theta = pi/12
        assert lam0 == pytest.approx(-0.6439505508593788, abs=1e-12)
        assert lam0_pt == pytest.approx(-0.7285808049334792, abs=1e-12)

    def test_direct_minimum_is_circulant_branch(self, hakye_reference):
        # a - 2 cos(theta) with a = (4/3) cos(theta) gives -(2/3) cos(theta)
        params, op = hakye_reference
        lam0, _ = min_eigenpair(op)
        assert lam0 == pytest.approx(-2.0 / 3.0 * math.cos(params.theta), abs=1e-12)

    def test_has_negative_eigenvalue_but_positive_diagonal(self, hakye_reference):
        _, op = hakye_reference
        assert float(np.diag(op.entries).real.min()) >= 0.0
        assert min_eigenpair(op)[0] < 0.0


# mostly moderate weights, where last-bit differences of cos and hypot show
WEIGHTS = st.one_of(st.floats(0.0, 10.0), st.floats(min_value=0.0, allow_infinity=False))
VALID_POINTS = st.lists(
    st.tuples(WEIGHTS, WEIGHTS, WEIGHTS, st.floats(-1e9, 1e9)).filter(lambda p: any(p[:3])),
    min_size=1,
    max_size=12,
).map(lambda points: [HaKyeParams(*p) for p in points])


class TestArrayOracles:
    @settings(max_examples=300, deadline=None)
    @given(points=VALID_POINTS)
    def test_match_scalar_arithmetic_bit_for_bit(self, points):
        direct, pt = hakye_spectra_closed_form(np.hstack([p.column() for p in points]))
        for k, p in enumerate(points):
            ref, ref_pt = hakye_spectra_one_at_a_time(p.a, p.b, p.c, p.theta)
            assert direct[k].tobytes() == ref.tobytes()
            assert pt[k].tobytes() == ref_pt.tobytes()
            assert hakye_spectrum_closed_form(p).tobytes() == ref.tobytes()
            assert hakye_pt_spectrum_closed_form(p).tobytes() == ref_pt.tobytes()


def rule_r_allowance(a: float, b: float, c: float) -> float:
    """Rule R's rounding allowance, 4 ulps of a + b + c + 2: the closed-form
    product minimum m is 0 in exact arithmetic on the cos family up to
    theta0 = arccos(3/4), and its float value stays above -0.2 ulps there."""
    return 4.0 * 2.0**-53 * (a + b + c + 2.0)


# cos-family points beyond theta0, where W is not block-positive: m ranges
# from -7.96e-6 at 0.725 to -0.209 at 1.2
NOT_BLOCK_POSITIVE_THETAS = (0.725, 0.8, 1.0, 1.2)


class TestRuleRAllowance:
    """Rule R: W[a, b, c; theta] is block-positive iff its product minimum m
    is >= 0, read with a rounding allowance."""

    def test_cos_family_passes_up_to_theta0(self):
        theta0 = math.acos(0.75)
        for a, b, c, theta in cos_family_params(np.linspace(-theta0, theta0, 2001)).T.tolist():
            assert hakye_product_min(a, b, c, theta) >= -rule_r_allowance(a, b, c), theta

    @pytest.mark.parametrize("theta", NOT_BLOCK_POSITIVE_THETAS)
    def test_cos_family_fails_beyond_theta0(self, theta):
        a, b, c, _ = cos_family_params(np.array([theta]))[:, 0].tolist()
        assert hakye_product_min(a, b, c, theta) < -rule_r_allowance(a, b, c)

    @pytest.mark.parametrize("theta", NOT_BLOCK_POSITIVE_THETAS)
    def test_seesaw_finds_an_exactly_negative_product_value(self, theta):
        # without R: cmax on sigma = gamma*(W + t I), t = -lambda0(W) + 0.5,
        # returns a product vector on which W's exact value is negative.  At
        # 0.725 the see-saw gets there without converging in its 500 sweeps,
        # so the exact value, not ``converged``, decides.
        params = HaKyeParams(*cos_family_params(np.array([theta]))[:, 0].tolist())
        w = hakye_witness(params).entries
        t = -float(hakye_spectra_closed_form(params.column())[0][0, 0]) + 0.5
        gamma = 1.0 / (3.0 * (params.a + params.b + params.c) + 9.0 * t)
        sigma = DensityOperator(HermitianOperator(Dims(3, 3), gamma * (w + t * np.eye(9))))
        argmin = c_sigma_max(sigma).argmin
        assert exact_product_value(w, argmin.mu_a, argmin.nu_b) < 0
