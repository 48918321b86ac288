"""Estimate the product-state infimum of a density by alternating descent.

For a fixed second factor the product expectation <mu nu|sigma|mu nu> is a
quadratic form in mu, minimized by a ground eigenvector; alternating the
two sides descends monotonically.  A crude Monte Carlo minimum over random
product states serves as a sanity floor here.
"""

import numpy as np

from spa_witness import (
    Dims,
    build_witness,
    c_sigma_max,
    is_weakly_optimal,
    maximally_mixed,
    product_expectation,
    random_separable_ensemble,
    ensemble_density,
)

dims = Dims(2, 2)

# Exact corner case first: the maximally mixed state gives 1/dAB on every
# product vector, so the infimum is known in closed form.
tau = maximally_mixed(dims)
est = c_sigma_max(tau, restarts=4)
print(f"maximally mixed: estimate {est.value:.15f}, exact {1 / dims.dAB:.15f}")

# A generic separable density.
rng = np.random.default_rng(7)
sigma = ensemble_density(random_separable_ensemble(dims, 12, rng))
est = c_sigma_max(sigma, restarts=32)
print(f"\nrandom separable sigma on {dims.dA}x{dims.dB}")
print(f"see-saw estimate   : {est.value:.12f}")
print(f"winning restart    : {est.iterations} sweeps, converged={est.converged}")
print(f"value at argmin    : {product_expectation(sigma, est.argmin):.12f}")

# Monte Carlo floor: the see-saw value should never sit above it.
mc_rng = np.random.default_rng(1234)
# per sample: real and imaginary parts of mu, then of nu
g = mc_rng.standard_normal((200_000, 4, 2))
mu = g[:, 0] + 1j * g[:, 1]
nu = g[:, 2] + 1j * g[:, 3]
mu /= np.linalg.norm(mu, axis=1, keepdims=True)
nu /= np.linalg.norm(nu, axis=1, keepdims=True)
joint = (mu[:, :, None] * nu[:, None, :]).reshape(-1, 4)
best = float(np.einsum("si,ij,sj->s", joint.conj(), sigma.op.entries, joint).real.min())
print(f"MC floor (2e5)     : {best:.12f}")
assert est.value <= best + 1e-9

# Setting c at the estimate makes the witness weakly optimal: its value
# vanishes on the certificate product state.
w = build_witness(sigma, est.value, est)
flag, certificate = is_weakly_optimal(w)
print(f"\nweakly optimal     : {flag}")
print(f"witness value there: {product_expectation(sigma, certificate) - w.c:+.3e}")
