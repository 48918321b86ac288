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
from hypothesis import assume, example, given, settings
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


def hakye_density(a: float, b: float, c: float, theta: float, offset: float) -> tuple[np.ndarray, float]:
    """(sigma, exact c_max) for sigma = gamma*(W + t I) at the Ha-Kye point
    (a, b, c, theta), with t = offset - lambda0(W) and gamma = 1/tr(W + t I);
    c_max(sigma) = gamma*(m + t), m the closed form."""
    params = HaKyeParams(a, b, c, theta)
    t = -float(hakye_spectra_closed_form(params.column())[0][0, 0]) + offset
    gamma = 1.0 / (3.0 * (a + b + c) + 9.0 * t)
    sigma = gamma * (hakye_witness(params).entries + t * np.eye(9))
    return sigma, gamma * (hakye_product_min(a, b, c, theta) + t)


def _hakye_densities(n: int = 30) -> list[tuple[np.ndarray, float]]:
    """hakye_density at seeded points, a, b, c in [0, 2.2], theta in [-pi, pi]
    and offset in [0.05, 1]."""
    rng = np.random.default_rng(3232)
    out = []
    for _ in range(n):
        a, b, c = rng.uniform(0.0, 2.2, 3).tolist()
        theta = float(rng.uniform(-math.pi, math.pi))
        out.append(hakye_density(a, b, c, theta, float(rng.uniform(0.05, 1.0))))
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


WEIGHT = st.floats(0.0, 2.2)


# Drawn points on the block-positivity boundary (a = 1 with bc = 0, say) stop
# the see-saw after its 500 sweeps, unconverged, about 1e-8 above the exact
# infimum; unseeded draws met one in about 1 run of 40 examples in 20.  The
# example below pins that open defect, and derandomize keeps the other draws
# the same from run to run.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    a=WEIGHT,
    b=WEIGHT,
    c=WEIGHT,
    theta=st.floats(-math.pi, math.pi),
    offset=st.floats(0.05, 1.0),
    transform=st.sampled_from([rotated, party_swapped, conjugated]),
    seed=st.integers(0, 2**32 - 1),
)
@example(
    a=1.0, b=1.25, c=0.0, theta=0.0, offset=0.25, transform=rotated, seed=0
).xfail(raises=AssertionError, reason="the see-saw stops 1.1e-8 above a boundary point's infimum")
def test_cmax_meets_the_hakye_closed_form_on_drawn_points(a, b, c, theta, offset, transform, seed):
    assume(a + b + c > 0.0)  # HaKyeParams refuses all-zero weights
    sigma, exact = hakye_density(a, b, c, theta, offset)
    moved = transform(HermitianOperator(Dims(3, 3), sigma), np.random.default_rng(seed))
    value = c_sigma_max(DensityOperator(moved)).value
    assert exact - CMAX_BELOW <= value <= exact + CMAX_ABOVE


def check_ground_row(witness: HermitianOperator, transform, seed: int) -> None:
    """geometry's ground-projector row on the transformed witness reads
    lambda0(W) within the stated rounding, on the negative side."""
    moved = transform(witness, np.random.default_rng(seed))
    table = geometry_rows(moved, samples=2)
    lam0, _ = min_eigenpair(witness)
    assert math.isclose(
        table["witness_value"][0], lam0, rel_tol=0.0, abs_tol=ROUNDING * max(1.0, hs_norm(witness))
    )
    assert table["classification"][0] == "negative-side"


@settings(max_examples=40, deadline=None)
@given(
    case=st.integers(0, len(POOL) - 1),
    transform=st.sampled_from(TRANSFORMS),
    seed=st.integers(0, 2**32 - 1),
)
def test_geometry_ground_row_reads_lambda0_on_drawn_pool_frames(case, transform, seed):
    check_ground_row(POOL[case], transform, seed)


@pytest.mark.parametrize("transform", TRANSFORMS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("witness", POOL[:2], ids=["reference", "swap"])
def test_geometry_ground_row_reads_lambda0_in_every_frame(witness, transform):
    check_ground_row(witness, transform, 5454)
