"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each test also asserts, so a red criterion fails the suite.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    DIMS_SMALL,
    full_rank_separable,
    random_negative_hermitian,
    rank_deficient_separable,
    weakly_optimal_witness,
)
from oracles import grid_product_min_two_qubit, mc_product_min
from spa_witness.cli import main
from spa_witness.fileio import load_operator, save_operator
from spa_witness.hakye import (
    hakye_pt_spectrum_closed_form,
    hakye_spectrum_closed_form,
    hakye_witness,
    reference_violation_params,
)
from spa_witness.operators import (
    Dims,
    hs_norm,
    make_hermitian,
    min_eigenpair,
    partial_transpose,
    shifted,
)
from spa_witness.spa import (
    PptStatus,
    ppt_check,
    pt_min_eigenvalue,
    spa,
    spa_sigma_form,
    spa_violation_from_sigma,
)
from spa_witness.states import (
    DensityOperator,
    Provenance,
    ensemble_density,
    maximally_mixed,
    random_density,
    random_separable_ensemble,
)
from spa_witness.witness import (
    build_witness,
    c_sigma_max,
    sigma_form_from_matrix,
    witness_value,
)

D22 = Dims(2, 2)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{tag}] criterion {num:2d} {name}{suffix}")
    assert ok, f"criterion {num} {name} failed {suffix}"


def _swap_operator():
    v = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            v[i * 2 + j, j * 2 + i] = 1.0
    return make_hermitian(v, D22)


def test_criterion_01_reference_pair(capsys):
    params = reference_violation_params()
    t0 = time.perf_counter()
    op = hakye_witness(params)
    lam0, _ = min_eigenpair(op)
    lam0_pt, _ = min_eigenpair(partial_transpose(op))
    closed = hakye_spectrum_closed_form(params)[0]
    closed_pt = hakye_pt_spectrum_closed_form(params)[0]
    elapsed = time.perf_counter() - t0

    pair = sorted([lam0, lam0_pt])
    pair_ok = abs(pair[0] - (-0.7286)) <= 1e-3 and abs(pair[1] - (-0.6440)) <= 1e-3
    label_ok = abs(lam0 - closed) <= 1e-10 and abs(lam0_pt - closed_pt) <= 1e-10
    time_ok = elapsed < 1.0

    code = main(
        ["hakye", "--cos-family", "--theta", repr(params.theta),
         "--format", "json", "--reproducible"]
    )
    doc = json.loads(capsys.readouterr().out)
    surfaced = any("interchanged" in note for note in doc.get("notes", []))

    _report(
        1,
        "reference eigenvalue pair",
        pair_ok and label_ok and time_ok and surfaced and code == 3,
        f"pair=({pair[0]:.6f}, {pair[1]:.6f}), label diff <= 1e-10: {label_ok}, "
        f"{elapsed * 1e3:.1f} ms, label note surfaced: {surfaced}",
    )


def test_criterion_02_analyze_verdict(tmp_path, capsys):
    path = tmp_path / "reference.json"
    save_operator(hakye_witness(reference_violation_params()), path)
    code = main(["analyze", str(path), "--json", "--reproducible"])
    report = json.loads(capsys.readouterr().out)

    gap_ok = abs(report["gap"] - 0.0846) <= 2e-3
    side = report["npt_side"]
    side_ok = side == "direct"
    raw = report["spa"]["direct"]["min_pt_eigenvalue_raw"]
    raw_ok = abs(raw - (-0.0846)) <= 2e-3
    npt_ok = report["spa"]["direct"]["ppt_status"] == "NPT-entangled"

    _report(
        2,
        "analyze flags the NPT side",
        report["condition_holds"] and gap_ok and side_ok and raw_ok and npt_ok
        and code == 3,
        f"gap={report['gap']:.6f}, npt_side={side}, raw min PT eig={raw:.6f}",
    )


def test_criterion_03_sigma_route_identity():
    rng = np.random.default_rng(2026)
    dims_cycle = itertools.cycle(DIMS_SMALL)
    checked = 0
    max_resid = 0.0
    equiv_ok = True
    while checked < 200:
        dims = next(dims_cycle)
        sigma = full_rank_separable(dims, rng)
        lam0, _ = min_eigenpair(sigma.op)
        lam0_pt, _ = min_eigenpair(partial_transpose(sigma.op))
        predicted = lam0_pt - lam0
        if abs(predicted) < 1e-8:
            continue  # resample away from the tolerance knife edge
        c = lam0 + float(rng.uniform(0.01, 1.0))
        w = build_witness(sigma, c)
        verdict = spa_violation_from_sigma(w, tol=0.0)
        raw = pt_min_eigenvalue(spa_sigma_form(w).spa_operator)
        max_resid = max(max_resid, abs(raw - predicted))
        equiv_ok = equiv_ok and (verdict.condition_holds == (predicted < 0.0))
        checked += 1
    _report(
        3,
        "sigma-route eigenvalue identity over 200 ensembles",
        max_resid <= 1e-9 and equiv_ok,
        f"max |lam_min(SPA^PT) - (lam0_PT - lam0)| = {max_resid:.2e}, "
        f"condition <=> negativity: {equiv_ok}",
    )


def test_criterion_04_rank_deficient_shortcut():
    rng = np.random.default_rng(77)
    dims_cycle = itertools.cycle(DIMS_SMALL)
    max_diff = 0.0
    max_generic_diff = 0.0
    all_ppt = True
    for _ in range(100):
        dims = next(dims_cycle)
        sigma = rank_deficient_separable(dims, rng)
        w = build_witness(sigma, 0.05)
        result = spa_sigma_form(w)
        assert result.rank_deficient_shortcut
        diff = float(
            np.abs(result.normalized_state.op.entries - sigma.op.entries).max()
        )
        max_diff = max(max_diff, diff)
        # generic route must land on the same state up to eigensolver noise
        generic = spa(w.operator())
        generic_diff = float(
            np.abs(generic.normalized_state.op.entries - sigma.op.entries).max()
        )
        max_generic_diff = max(max_generic_diff, generic_diff)
        all_ppt = all_ppt and (
            ppt_check(result.normalized_state).status is PptStatus.PPT
        )
    _report(
        4,
        "rank-deficient sigma returns sigma, PPT",
        max_diff <= 1e-10 and max_generic_diff <= 1e-10 and all_ppt,
        f"max |SPA - sigma| = {max_diff:.2e} (shortcut), "
        f"{max_generic_diff:.2e} (generic route), all PPT: {all_ppt}",
    )


def test_criterion_05_product_infimum_optimizer():
    t0 = time.perf_counter()
    tau_ok = True
    tau_err = 0.0
    for dims in DIMS_SMALL:
        est = c_sigma_max(maximally_mixed(dims), restarts=4)
        err = abs(est.value - 1.0 / dims.dAB)
        tau_err = max(tau_err, err)
        tau_ok = tau_ok and err <= 1e-10

    mc_ok = True
    grid_ok = True
    worst_grid = 0.0
    for trial in range(50):
        rho = random_density(D22, 10_000 + trial)
        est = c_sigma_max(rho, restarts=32, seed=trial)
        mc = mc_product_min(rho.op.entries, 2, 2, 1_000_000, seed=50_000 + trial)
        mc_ok = mc_ok and est.value <= mc + 1e-9
        grid = grid_product_min_two_qubit(rho.op.entries)
        worst_grid = max(worst_grid, abs(est.value - grid))
        grid_ok = grid_ok and abs(est.value - grid) <= 1e-5
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "see-saw optimizer vs oracles",
        tau_ok and mc_ok and grid_ok and elapsed < 120.0,
        f"max |cmax(tau0) - 1/dAB| = {tau_err:.2e}, "
        f"below MC floor: {mc_ok}, max grid gap = {worst_grid:.2e}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_06_spa_minimality():
    rng = np.random.default_rng(606)
    dims_cycle = itertools.cycle(DIMS_SMALL)
    ok = True
    for _ in range(200):
        dims = next(dims_cycle)
        op = random_negative_hermitian(dims, rng)
        scale = hs_norm(op)
        result = spa(op)
        lam, _ = min_eigenpair(result.spa_operator)
        ok = ok and (-1e-10 <= lam <= 1e-8 * scale)
        lam_under, _ = min_eigenpair(shifted(op, result.s - 1e-6 * scale))
        ok = ok and lam_under < 0.0
    _report(6, "SPA shift is minimal over 200 witnesses", ok)


def test_criterion_07_spa_offset_independence():
    rng = np.random.default_rng(707)
    dims_cycle = itertools.cycle(DIMS_SMALL)
    worst = 0.0
    for _ in range(100):
        dims = next(dims_cycle)
        sigma = full_rank_separable(dims, rng)
        lam0, _ = min_eigenpair(sigma.op)
        w1 = build_witness(sigma, lam0 + 0.1)
        w2 = build_witness(sigma, lam0 + 0.7)
        s1 = spa_sigma_form(w1).normalized_state.op.entries
        s2 = spa_sigma_form(w2).normalized_state.op.entries
        worst = max(worst, float(np.abs(s1 - s2).max()))
    _report(
        7,
        "SPA independent of the offset, 100 trials",
        worst <= 1e-12,
        f"max entry difference = {worst:.2e}",
    )


def test_criterion_08_decomposable_swap_case():
    w = sigma_form_from_matrix(_swap_operator())
    lam0 = w.lambda0_sigma
    lam0_pt, _ = min_eigenpair(partial_transpose(w.sigma.op))
    order_ok = lam0 < lam0_pt
    verdict = spa_violation_from_sigma(w)
    ppt = ppt_check(spa_sigma_form(w).normalized_state)
    _report(
        8,
        "swap witness SPA is PPT, conclusively separable",
        order_ok
        and not verdict.condition_holds
        and ppt.status is PptStatus.PPT
        and ppt.conclusive_separability,
        f"lam0(sigma)={lam0:.3e} < lam0(sigma^PT)={lam0_pt:.3e}, "
        f"conclusive={ppt.conclusive_separability}",
    )


def test_criterion_09_witness_soundness():
    suite = [
        weakly_optimal_witness(dims, seed=900 + i)
        for i, dims in enumerate(DIMS_SMALL)
    ]
    suite.append(sigma_form_from_matrix(_swap_operator()))
    suite.append(sigma_form_from_matrix(hakye_witness(reference_violation_params())))

    rng = np.random.default_rng(909)
    per_witness = 2000
    min_value = np.inf
    ground_ok = True
    for w in suite:
        dims = w.dims
        for _ in range(per_witness):
            rho = ensemble_density(
                random_separable_ensemble(dims, dims.dAB + 1, rng)
            )
            min_value = min(min_value, witness_value(w, rho))
        lam0, ground = min_eigenpair(w.sigma.op)
        rho_ground = DensityOperator(
            make_hermitian(np.outer(ground, ground.conj()), dims),
            Provenance.UNKNOWN,
        )
        value = witness_value(w, rho_ground)
        ground_ok = ground_ok and abs(value - (lam0 - w.c)) <= 1e-10 and value < 0.0
    total = per_witness * len(suite)
    _report(
        9,
        f"suite never detects {total} separable states",
        min_value >= -1e-10 and ground_ok,
        f"min tr(W rho) = {min_value:.2e}, ground projector detected: {ground_ok}",
    )


def test_criterion_10_determinism(tmp_path):
    argv = [
        sys.executable, "-m", "spa_witness",
        "hakye", "--cos-family", "--scan", "theta=0.05:0.6:12",
        "--format", "csv", "--reproducible",
    ]
    outputs = []
    codes = []
    for _ in range(2):
        proc = subprocess.run(argv, capture_output=True)
        outputs.append(proc.stdout)
        codes.append(proc.returncode)
    bytes_ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    codes_ok = codes == [3, 3]

    op = hakye_witness(reference_violation_params())
    path = tmp_path / "roundtrip.json"
    save_operator(op, path)
    round_ok = load_operator(path).entries.tobytes() == op.entries.tobytes()
    _report(
        10,
        "byte-identical reports across runs; bit-exact files",
        bytes_ok and codes_ok and round_ok,
        f"{len(outputs[0])} bytes, exit codes {codes}, round trip: {round_ok}",
    )
