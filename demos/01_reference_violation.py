"""Walk through the reference 9x9 witness whose SPA fails the PPT test.

The witness family lives on C^3 (x) C^3 with three diagonal weights and a
phase-coupled corner block.  At theta = pi/12 on the cosine slice the
witness and its partial transpose have different bottom eigenvalues, and
that gap is exactly the negativity of the SPA's partial transpose.
"""

import numpy as np

from spa_witness import (
    hakye_pt_spectrum_closed_form,
    hakye_spectrum_closed_form,
    hakye_witness,
    min_eigenpair,
    partial_transpose,
    pt_min_eigenvalue,
    reference_violation_params,
    sigma_form_from_matrix,
    spa,
    spa_violation_from_gap,
    spa_violation_from_sigma,
)

params = reference_violation_params()
print("parameters:", params)

w = hakye_witness(params)
lam0, _ = min_eigenpair(w)
lam0_pt, _ = min_eigenpair(partial_transpose(w))
print(f"\nbottom eigenvalue of W        : {lam0:+.12f}")
print(f"bottom eigenvalue of W^PT     : {lam0_pt:+.12f}")
print(f"closed-form values            : {hakye_spectrum_closed_form(params)[0]:+.12f}"
      f"  {hakye_pt_spectrum_closed_form(params)[0]:+.12f}")

# Route 1: the eigenvalue-gap condition on the witness matrix itself.
verdict = spa_violation_from_gap(w, asserted_onew=True)
print(f"\ngap |lam0(W) - lam0(W^PT)|    : {verdict.gap:.12f}")
print(f"condition holds               : {verdict.condition_holds}")
print(f"NPT side                      : {verdict.npt_side}")
print(f"SPA PPT status (NPT side)     : {verdict.spa_ppt.status.value}")
print(f"conclusion                    : {verdict.conclusion.value}")

# The raw negativity of the SPA's partial transpose equals the gap.
result = spa(w)
raw = pt_min_eigenvalue(result.spa_operator)
print(f"\nSPA shift s                   : {result.s:.12f}")
print(f"min eig of SPA^PT (raw)       : {raw:+.12f}")
print(f"equals lam0(W^PT) - lam0(W)   : {lam0_pt - lam0:+.12f}")

# Route 2: recast as sigma - c*I, a positive rescaling of W.  The sigma-form
# check is W's side of the same gap verdict: one stacked eigensolve of sigma
# and sigma^PT, each bottom eigenvalue less c, gives the numbers of sigma - c*I.
witness = sigma_form_from_matrix(w)
verdict_sigma = spa_violation_from_sigma(witness, asserted_onew=True)
print(f"\nsigma-form offset c           : {witness.c:.12f}")
print(f"lam0(sigma) - c               : {verdict_sigma.lambda0:+.12f}")
print(f"lam0(sigma^PT) - c            : {verdict_sigma.lambda0_pt:+.12f}")
print(f"sigma-form conclusion         : {verdict_sigma.conclusion.value}")
assert verdict_sigma.conclusion is verdict.conclusion
print("\nboth forms agree: the SPA of this witness is an NPT state")
