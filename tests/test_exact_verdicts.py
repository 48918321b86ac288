"""Exact certificates for the SPA side verdicts and for cmax's value: every
float is a dyadic rational, so the oracles in ``oracles.py`` prove each PPT
or NPT claim about the very matrix it was computed from, the value of
cmax's printed product vector on the very density it read, and the negative
product value that refutes a recast input, in ``fractions.Fraction``
arithmetic.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import DIMS_SMALL, full_rank_separable, rank_deficient_separable, rotated, sigma_minus_c
from oracles import _expectation_raw, exact_lower_bound, exact_product_value, exact_rayleigh
from spa_witness.cli import EXIT_OK, main
from spa_witness.errors import NotAWitness
from spa_witness.fileio import load_operator_file, save_operator
from spa_witness.hakye import hakye_witness, reference_violation_params
from spa_witness.operators import (
    Dims,
    HermitianOperator,
    eigh_checked,
    hs_norm,
    min_eigenpair,
    partial_transpose,
    partial_transpose_stack,
)
from spa_witness.spa import (
    DEFAULT_COMPARE_TOL,
    PptStatus,
    spa_violation_from_gap,
    spa_violation_from_sigma,
)
from spa_witness.states import haar_product_factors
from spa_witness.witness import SPOT_CHECKS, build_witness, sigma_form_from_matrix

SWAP_22 = np.eye(4)[[0, 2, 1, 3]]
# the bench's analyze dimensions
POOL_DIMS = DIMS_SMALL + (Dims(2, 4), Dims(3, 4))


def uncertified_sides(base: np.ndarray, dims: Dims, verdict, tol: float, c: float = 0.0) -> list[str]:
    """The SPA sides of a gap verdict on W = base - c*I whose PPT status the
    exact oracles do not prove; every claim holds exactly when it is empty.

    Side k's SPA is A_k + s_k*I, with A_0 = W, A_1 = W^Gamma and s_k the
    shift the verdict reports.  Its partial transpose is A_(1-k) + s_k*I and
    its trace T = tr W + dAB*s_k, so its normalised floor is below -tol
    exactly when min eig(base_(1-k)) < -tol*T - s_k + c, for T > 0.  An NPT
    claim is proved by the exact Rayleigh quotient of the computed bottom
    eigenvector of base_(1-k), a PPT claim by an exact LDL^H factorisation.
    """
    stack = np.stack([base, partial_transpose_stack(base, dims)])
    _, vectors = eigh_checked(stack)
    c = Fraction(c)
    trace_w = sum(map(Fraction, np.diagonal(base).real.tolist())) - dims.dAB * c
    failed = []
    for k, (name, side) in enumerate(zip(("direct", "partial-transpose"), verdict.spa_sides)):
        s = Fraction(side.shift)
        trace = trace_w + dims.dAB * s
        limit = -Fraction(tol) * trace - s + c
        if side.status is PptStatus.NPT_ENTANGLED:
            proved = exact_rayleigh(stack[1 - k], vectors[1 - k][:, 0]) < limit
        else:
            proved = exact_lower_bound(stack[1 - k], limit)
        if not (trace > 0 and proved):
            failed.append(name)
    return failed


def analyze_cases():
    """(label, operator) for analyze's route: the reference Ha-Kye witness,
    the 2x2 swap, and a seeded pool of sigma - c*I inputs built as the
    bench builds them."""
    yield "reference", hakye_witness(reference_violation_params())
    yield "swap", HermitianOperator(Dims(2, 2), SWAP_22)
    rng = np.random.default_rng(1717)
    for dims, k in itertools.product(POOL_DIMS, range(3)):
        yield f"sigma-minus-c-{dims.dA}x{dims.dB}-{k}", sigma_minus_c(dims, rng)


def sigma_route_cases():
    """The sigma-route verdicts of the acceptance criteria: criterion 3's
    draws (tol 0), criterion 4's rank-deficient draws (default tol) and
    criterion 8's swap."""
    rng = np.random.default_rng(2026)
    dims_cycle = itertools.cycle(DIMS_SMALL)
    checked = 0
    while checked < 200:
        sigma = full_rank_separable(next(dims_cycle), rng)
        lam0, _ = min_eigenpair(sigma.op)
        lam0_pt, _ = min_eigenpair(partial_transpose(sigma.op))
        if abs(lam0_pt - lam0) < 1e-8:
            continue
        w = build_witness(sigma, lam0 + float(rng.uniform(0.01, 1.0)))
        yield f"criterion-3-{checked}", w, 0.0
        checked += 1
    for k, w in enumerate(criterion_4_witnesses()):
        yield f"criterion-4-{k}", w, DEFAULT_COMPARE_TOL
    yield "criterion-8", sigma_form_from_matrix(HermitianOperator(Dims(2, 2), SWAP_22)), DEFAULT_COMPARE_TOL


def criterion_4_witnesses():
    rng = np.random.default_rng(77)
    dims_cycle = itertools.cycle(DIMS_SMALL)
    for _ in range(100):
        yield build_witness(rank_deficient_separable(next(dims_cycle), rng), 0.05)


def test_analyze_side_verdicts_are_certified_exactly():
    failures = {}
    for label, op in analyze_cases():
        verdict = spa_violation_from_gap(op)
        if bad := uncertified_sides(op.entries, op.dims, verdict, DEFAULT_COMPARE_TOL):
            failures[label] = bad
    assert not failures


def test_flipped_side_verdicts_are_not_certified():
    # the oracles prove claims, not whatever they are handed: the reference's
    # direct side is NPT and its partner PPT, so the swapped claims both fail
    op = hakye_witness(reference_violation_params())
    verdict = spa_violation_from_gap(op)
    npt, ppt = verdict.spa_sides
    assert (npt.status, ppt.status) == (PptStatus.NPT_ENTANGLED, PptStatus.PPT)
    flipped = replace(
        verdict,
        spa_sides=(replace(npt, status=PptStatus.PPT), replace(ppt, status=PptStatus.NPT_ENTANGLED)),
    )
    assert uncertified_sides(op.entries, op.dims, flipped, DEFAULT_COMPARE_TOL) == [
        "direct", "partial-transpose"
    ]


def test_sigma_route_side_verdicts_are_certified_exactly():
    failures = {}
    for label, w, tol in sigma_route_cases():
        verdict = spa_violation_from_sigma(w, tol=tol)
        if bad := uncertified_sides(w.sigma.op.entries, w.dims, verdict, tol, w.c):
            failures[label] = bad
    assert not failures


@pytest.mark.xfail(
    strict=True,
    reason="gap_verdict accepts tol = 0.0 and then calls -1e-17 rounding NPT on "
    "criterion 4's rank-deficient draws; a certified gap condition would refuse it",
)
def test_tol_zero_side_verdicts_on_rank_deficient_draws_are_certified():
    for w in criterion_4_witnesses():
        verdict = spa_violation_from_sigma(w, tol=0.0)
        assert not uncertified_sides(w.sigma.op.entries, w.dims, verdict, 0.0, w.c)


def cmax_densities():
    """(label, density) for cmax: per dimension pair, 2x2 to 3x4, a
    Hilbert-Schmidt random density, a low-rank separable one and a locally
    rotated copy of the latter."""
    rng = np.random.default_rng(1818)
    for dims in POOL_DIMS:
        d = dims.dAB
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        hs = g @ g.conj().T
        hs = (hs + hs.conj().T) / 2.0
        yield f"hs-{dims.dA}x{dims.dB}", HermitianOperator(dims, hs / np.trace(hs).real)
        separable = rank_deficient_separable(dims, rng).op
        yield f"separable-{dims.dA}x{dims.dB}", separable
        yield f"rotated-{dims.dA}x{dims.dB}", rotated(separable, rng)


def test_cmax_value_is_an_exact_product_value(tmp_path, capsys):
    # The printed value is (v^H sigma v).real for v = mu (x) nu in floats, with
    # |mu|, |nu| 1 within a few ulps: each of the d = dAB terms of the two
    # matrix-vector products rounds by a few u, on entries of modulus <= 1
    # and |v|_1^2 <= d, so 8 d^2 u bounds its distance from the exact value of
    # the printed mu and nu on the file's entries.  That exact value is an
    # upper bound on c_max, so the printed one is too, to within the bound.
    misses = {}
    for label, sigma in cmax_densities():
        path = tmp_path / f"{label}.json"
        save_operator(sigma, path)
        assert main(["cmax", str(path), "--json", "--reproducible"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        mu, nu = ([complex(re, im) for re, im in report["argmin"][k]] for k in ("mu_a", "nu_b"))
        entries = load_operator_file(path)[0].entries
        exact = exact_product_value(entries, np.array(mu), np.array(nu))
        bound = 8 * sigma.dims.dAB**2 * Fraction(2) ** -53
        if not abs(exact - Fraction(report["value"])) <= bound:
            misses[label] = float(exact - Fraction(report["value"]))
    assert not misses


def refuted_inputs():
    """(label, operator) that sigma_form_from_matrix's spot checks refute:
    a diagonal input whose first refuting sample is not its first sample, and
    per dimension pair, 2x2 to 3x4, a seeded sigma - (2/dAB) I for a
    Hilbert-Schmidt random density sigma."""
    yield "diagonal", HermitianOperator(Dims(2, 3), np.diag([-1.0, 0.5, 0.5, 0.5, 0.5, 0.5]))
    rng = np.random.default_rng(1919)
    for dims in POOL_DIMS:
        d = dims.dAB
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        sigma = g @ g.conj().T
        sigma = (sigma + sigma.conj().T) / 2.0
        sigma /= np.trace(sigma).real
        yield f"sigma-minus-2/d-{dims.dA}x{dims.dB}", HermitianOperator(dims, sigma - 2.0 / d * np.eye(d))


def test_not_a_witness_value_is_an_exact_negative_product_value():
    # The printed value is (v^H W v).real for the first spot-check sample v
    # below -1e-8 max(1, ||W||_F); as for cmax's value, 8 dAB^2 u max|W_ij|
    # bounds its distance from W's exact value on that sample, which, being
    # negative, proves that W is no witness.
    misses = {}
    for label, op in refuted_inputs():
        with pytest.raises(NotAWitness) as refused:
            sigma_form_from_matrix(op)
        printed = Fraction(float(re.search(r"negative \((\S+)\)", str(refused.value)).group(1)))
        mu, nu = haar_product_factors(op.dims, SPOT_CHECKS, np.random.default_rng(0))
        tol = 1e-8 * max(1.0, hs_norm(op))
        k = next(
            k for k in range(SPOT_CHECKS)
            if _expectation_raw(op.entries, np.kron(mu[k], nu[k])) < -tol
        )
        exact = exact_product_value(op.entries, mu[k], nu[k])
        bound = 8 * op.dims.dAB**2 * Fraction(2) ** -53 * Fraction(float(np.abs(op.entries).max()))
        if not (exact < 0 and abs(exact - printed) <= bound):
            misses[label] = (k, float(exact), float(exact - printed))
    assert not misses
