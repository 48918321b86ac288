"""The structural physical approximation and two of its exact properties.

1. For sigma-form witnesses the SPA does not depend on the offset c.
2. When sigma is rank deficient the SPA is sigma itself, so a separable
   sigma hands its separability directly to the approximation.
"""

import numpy as np

from spa_witness import (
    Dims,
    SeparableEnsemble,
    build_witness,
    ensemble_density,
    min_eigenpair,
    ppt_check,
    spa_sigma_form,
    random_separable_ensemble,
)

dims = Dims(2, 2)
rng = np.random.default_rng(42)

# Full-rank separable sigma, two different offsets.
sigma = ensemble_density(random_separable_ensemble(dims, 12, rng))
lam0, _ = min_eigenpair(sigma.op)
w1 = build_witness(sigma, lam0 + 0.05)
w2 = build_witness(sigma, lam0 + 0.50)
spa1 = spa_sigma_form(w1)
spa2 = spa_sigma_form(w2)
diff = np.abs(spa1.normalized_state.op.entries - spa2.normalized_state.op.entries).max()
print(f"offsets c = {w1.c:.4f} and c = {w2.c:.4f}")
print(f"shifts   s = {spa1.s:.4f} and s = {spa2.s:.4f}")
print(f"max entry difference between the two SPA states: {float(diff):.3e}")
print("the offset only moves the shift, never the resulting state\n")

# Rank-deficient sigma: a single product projector.
mu = np.array([1.0, 0.0])
nu = np.array([0.0, 1.0])
pure = ensemble_density(SeparableEnsemble(dims, [1.0], [mu], [nu]))
w = build_witness(pure, 0.25)
result = spa_sigma_form(w)
print(f"rank-deficient sigma: shortcut taken = {result.rank_deficient_shortcut}")
print(f"SPA state is sigma object itself     = {result.normalized_state is pure}")
print(f"provenance carried through           = {result.normalized_state.provenance.value}")
print(f"PPT status of the SPA                = {ppt_check(result.normalized_state).status.value}")
