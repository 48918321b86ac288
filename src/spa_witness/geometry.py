"""Scatter data relating witness values to entanglement indicators.

For one witness matrix, whose minimum eigenvalue lam0 must be negative
(NotNegative otherwise), emit rows for the witness's own ground projector,
whose witness value is lam0 (on the negative side, or on the plane when
-DEFAULT_DETECT_TOL <= lam0 < 0), then random densities, then
separable-by-construction mixtures.  Each row pairs the witness value with
the state's partial-transpose minimum, purity, and a hyperplane
classification, which is enough to scatter-plot how the detection
half-space cuts through state space.

The states are built as (n, dAB, dAB) stacks of at most scan.SCAN_CHUNK
rows, the rows the CSV report is written in, drawn in row order from one
generator.  Each chunk is validated as a whole (Hermitian, unit trace,
positive by one stacked Cholesky factorisation; unit factors and normalized
weights for the mixtures) and gets one stacked witness-value product and one
checked, stacked eigensolve of its partial transposes, the chunk's only
eigensolve.  The rows come out as one array per column, and the hyperplane
sides from one witness.hyperplane_side call.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .operators import (
    HermitianOperator,
    check_hermitian,
    check_seed,
    eigh_checked,
    hs_inner_stack,
    min_eigenpair,
    partial_transpose_stack,
)
from .scan import SCAN_CHUNK
from .states import (
    check_density,
    check_product_terms,
    draw_densities,
    draw_ensembles,
    mix_products,
    vector_norms,
)
from .witness import check_candidate, hyperplane_side

GEOMETRY_SCHEMA = "witness-geometry-v1"
GEOMETRY_COLUMNS = (
    "source",
    "witness_value",
    "min_pt_eigenvalue",
    "purity",
    "classification",
)
SOURCES = ("ground-projector", "random-density", "separable-ensemble")
GEOMETRY_SEED = 0  # geometry_rows' default seed, which the geometry command shares


def geometry_rows(
    witness_op: HermitianOperator, samples: int, seed: int = GEOMETRY_SEED
) -> dict[str, np.ndarray]:
    """The rows as one column array per GEOMETRY_COLUMNS entry: the ground
    projector row, then `samples` random and `samples` separable rows."""
    if samples < 1:
        raise InvalidParams(f"samples must be >= 1, got {samples!r}")
    check_seed(seed)
    lam0, ground = min_eigenpair(witness_op)
    check_candidate(lam0)
    dims = witness_op.dims
    rng = np.random.default_rng(seed)
    n_rows = 1 + 2 * samples
    values, pt_mins, norms = [], [], []
    for start in range(0, n_rows, SCAN_CHUNK):
        stop = min(start + SCAN_CHUNK, n_rows)
        # row 0 is the ground projector, rows 1..samples the random densities
        n_random = max(0, min(stop, 1 + samples) - max(start, 1))
        n_mixed = stop - start - n_random - (start == 0)
        ground_part = [np.outer(ground, ground.conj())[None]] if start == 0 else []
        random_part = draw_densities(dims, n_random, rng)
        weights, mu, nu = draw_ensembles(dims, n_mixed, 2 * dims.dAB, rng)
        check_product_terms(weights, mu, nu)
        m = np.concatenate([*ground_part, random_part, mix_products(weights, mu, nu)])
        check_hermitian(m)
        check_density(m)
        values.append(hs_inner_stack(m, witness_op.entries))
        pt_spectra, _ = eigh_checked(partial_transpose_stack(m, dims))
        pt_mins.append(pt_spectra[:, 0])
        norms.append(vector_norms(m.reshape(len(m), -1)))
    value = np.concatenate(values)
    return {
        "source": np.repeat(SOURCES, [1, samples, samples]),
        "witness_value": value,
        "min_pt_eigenvalue": np.concatenate(pt_mins),
        # Python's float power, whose last bit numpy's square does not always give
        "purity": np.array([norm**2 for norm in np.concatenate(norms).tolist()]),
        "classification": hyperplane_side(value),
    }
