"""Local unitaries U (x) V, the party swap and complex conjugation leave the
spectra of W and W^Gamma unchanged, and so every quantity analyze reports:
lambda0(W), lambda0(W^Gamma), the gap and the conclusion must agree on the
transformed input within a stated rounding.  They keep the product-state
infimum too, so cmax on a transformed Ha-Kye density still meets the closed
form, and geometry's ground-projector row still reads lambda0(W).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIMS_SMALL, rotated, sigma_minus_c
from oracles import hakye_product_min
from spa_witness.geometry import geometry_rows
from spa_witness.hakye import (
    HaKyeParams,
    cos_family_params,
    hakye_spectra_closed_form,
    hakye_witness,
    reference_violation_params,
)
from spa_witness.operators import Dims, HermitianOperator, hs_norm, min_eigenpair
from spa_witness.spa import DEFAULT_COMPARE_TOL, spa_violation_from_gap
from spa_witness.states import DensityOperator
from spa_witness.witness import c_sigma_max

# The stated rounding, in units of max(1, ||W||_F): the rotation's products
# and the two eigensolves each move an eigenvalue by a few d*u*||W||, with
# u = 2^-53 and d <= 12: about 1e-15 each, and 7.4e-16 at most over 1,800
# transforms of this pool.
ROUNDING = 1e-13


def _pool() -> list[HermitianOperator]:
    """The acceptance inputs (the reference Ha-Kye witness and the 2x2 swap),
    cos-family Ha-Kye points and bench-style sigma - c*I inputs, 2x2 to 3x4."""
    pool = [
        hakye_witness(reference_violation_params()),
        HermitianOperator(Dims(2, 2), np.eye(4)[[0, 2, 1, 3]]),
    ]
    rng = np.random.default_rng(1414)
    for params in cos_family_params(rng.uniform(0.05, 1.2, 3)).T.tolist():
        pool.append(hakye_witness(HaKyeParams(*params)))
    for dims in DIMS_SMALL + (Dims(2, 4), Dims(3, 4)):
        pool.append(sigma_minus_c(dims, rng))
    return pool


POOL = _pool()


def party_swapped(op: HermitianOperator, rng: np.random.Generator) -> HermitianOperator:
    """S W S, with S the swap of the two parties; dims (dB, dA)."""
    dA, dB = op.dims.dA, op.dims.dB
    m = op.entries.reshape(dA, dB, dA, dB).transpose(1, 0, 3, 2).reshape(dA * dB, dA * dB)
    return HermitianOperator(Dims(dB, dA), m)


def conjugated(op: HermitianOperator, rng: np.random.Generator) -> HermitianOperator:
    return HermitianOperator(op.dims, op.entries.conj())


def near_threshold(verdict, op: HermitianOperator, tol: float, r: float) -> bool:
    """Whether the gap lies within 2r of tol, or a side's unnormalised PT
    floor within 4r of -tol times its SPA trace: there rounding may decide."""
    if abs(verdict.gap - tol) <= 2.0 * r:
        return True
    return any(
        abs(side.min_pt_eigenvalue_raw + tol * (op.trace + op.dims.dAB * side.shift)) <= 4.0 * r
        for side in verdict.spa_sides
    )


@settings(max_examples=60, deadline=None)
@given(
    case=st.integers(0, len(POOL) - 1),
    transform=st.sampled_from([rotated, party_swapped, conjugated]),
    seed=st.integers(0, 2**32 - 1),
    assert_onew=st.booleans(),
)
def test_analyze_is_invariant_under_local_unitaries_swap_and_conjugation(
    case, transform, seed, assert_onew
):
    op = POOL[case]
    moved = transform(op, np.random.default_rng(seed))
    before = spa_violation_from_gap(op, asserted_onew=assert_onew)
    after = spa_violation_from_gap(moved, asserted_onew=assert_onew)
    r = ROUNDING * max(1.0, hs_norm(op))
    assert math.isclose(before.lambda0, after.lambda0, rel_tol=0.0, abs_tol=r)
    assert math.isclose(before.lambda0_pt, after.lambda0_pt, rel_tol=0.0, abs_tol=r)
    assert math.isclose(before.gap, after.gap, rel_tol=0.0, abs_tol=2.0 * r)
    if not near_threshold(before, op, DEFAULT_COMPARE_TOL, r):
        assert (before.condition_holds, before.npt_side, before.conclusion) == (
            after.condition_holds, after.npt_side, after.conclusion
        )
        assert [s.status for s in before.spa_sides] == [s.status for s in after.spa_sides]


def identity(op: HermitianOperator, rng: np.random.Generator) -> HermitianOperator:
    return op


TRANSFORMS = [identity, rotated, party_swapped, conjugated]

# cmax's band around the exact infimum gamma*(m + t): building sigma in floats
# moves it by a few ulps below, and the see-saw may stop a few 1e-9 above it
CMAX_BELOW, CMAX_ABOVE = 1e-14, 1e-8


def _hakye_densities(n: int = 30) -> list[tuple[np.ndarray, float]]:
    """(sigma, exact c_max) for sigma = gamma*(W + t I) at seeded Ha-Kye points,
    a, b, c in [0, 2.2] and theta in [-pi, pi], with t above -lambda0(W) and
    gamma = 1/tr(W + t I); c_max(sigma) = gamma*(m + t), m the closed form."""
    rng = np.random.default_rng(3232)
    out = []
    for _ in range(n):
        a, b, c = rng.uniform(0.0, 2.2, 3).tolist()
        theta = float(rng.uniform(-math.pi, math.pi))
        params = HaKyeParams(a, b, c, theta)
        lam0 = float(hakye_spectra_closed_form(params.column())[0][0, 0])
        t = -lam0 + float(rng.uniform(0.05, 1.0))
        gamma = 1.0 / (3.0 * (a + b + c) + 9.0 * t)
        sigma = gamma * (hakye_witness(params).entries + t * np.eye(9))
        out.append((sigma, gamma * (hakye_product_min(a, b, c, theta) + t)))
    return out


HAKYE_DENSITIES = _hakye_densities()


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda f: f.__name__)
def test_cmax_meets_the_hakye_closed_form_in_every_frame(transform):
    rng = np.random.default_rng(4343)
    misses = []
    for k, (sigma, exact) in enumerate(HAKYE_DENSITIES):
        moved = transform(HermitianOperator(Dims(3, 3), sigma), rng)
        value = c_sigma_max(DensityOperator(moved)).value
        if not exact - CMAX_BELOW <= value <= exact + CMAX_ABOVE:
            misses.append((k, value - exact))
    assert not misses


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("witness", POOL[:2], ids=["reference", "swap"])
def test_geometry_ground_row_reads_lambda0_in_every_frame(witness, transform):
    moved = transform(witness, np.random.default_rng(5454))
    table = geometry_rows(moved, samples=2)
    lam0, _ = min_eigenpair(witness)
    assert math.isclose(
        table["witness_value"][0], lam0, rel_tol=0.0, abs_tol=ROUNDING * max(1.0, hs_norm(witness))
    )
    assert table["classification"][0] == "negative-side"
