"""Local unitaries U (x) V, the party swap and complex conjugation leave the
spectra of W and W^Gamma unchanged, and so every quantity analyze reports:
lambda0(W), lambda0(W^Gamma), the gap and the conclusion must agree on the
transformed input within a stated rounding.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DIMS_SMALL, sigma_minus_c
from spa_witness.hakye import (
    HaKyeParams,
    cos_family_params,
    hakye_witness,
    reference_violation_params,
)
from spa_witness.operators import Dims, HermitianOperator, hs_norm
from spa_witness.spa import DEFAULT_COMPARE_TOL, spa_violation_from_gap

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


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def rotated(op: HermitianOperator, rng: np.random.Generator) -> HermitianOperator:
    """(U (x) V) W (U (x) V)^H for Haar-random U and V, Hermitian part."""
    k = np.kron(_haar_unitary(op.dims.dA, rng), _haar_unitary(op.dims.dB, rng))
    m = k @ op.entries @ k.conj().T
    return HermitianOperator(op.dims, (m + m.conj().T) / 2.0)


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
