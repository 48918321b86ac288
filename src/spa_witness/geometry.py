"""Scatter data relating witness values to entanglement indicators.

For one witness matrix, emit rows for a mix of random densities and
separable-by-construction ensembles, plus the witness's own ground
projector (guaranteed to sit on the negative side).  Each row pairs the
witness value with the state's partial-transpose minimum, purity, and a
hyperplane classification, which is enough to scatter-plot how the
detection half-space cuts through state space.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParams
from .operators import HermitianOperator, hs_inner, hs_norm, min_eigenpair
from .spa import hyperplane_classify, pt_min_eigenvalue
from .states import (
    DensityOperator,
    ensemble_density,
    random_density,
    random_separable_ensemble,
)

GEOMETRY_SCHEMA = "witness-geometry-v1"
GEOMETRY_COLUMNS = (
    "source",
    "witness_value",
    "min_pt_eigenvalue",
    "purity",
    "classification",
)


def _row(witness_op: HermitianOperator, rho: DensityOperator, source: str, tol: float) -> dict:
    return {
        "source": source,
        "witness_value": float(hs_inner(rho.op, witness_op)),
        "min_pt_eigenvalue": float(pt_min_eigenvalue(rho.op)),
        "purity": float(hs_norm(rho.op) ** 2),
        "classification": hyperplane_classify(witness_op, rho, tol).value,
    }


def geometry_rows(
    witness_op: HermitianOperator,
    samples: int,
    seed: int = 0,
    tol: float = 1e-8,
) -> list[dict]:
    """Ground projector row, then `samples` random and `samples` separable rows."""
    if samples < 1:
        raise InvalidParams(f"samples must be >= 1, got {samples!r}")
    dims = witness_op.dims
    rng = np.random.default_rng(seed)
    _, ground = min_eigenpair(witness_op)
    ground_state = DensityOperator(
        HermitianOperator(dims, np.outer(ground, ground.conj()))
    )
    rows = [_row(witness_op, ground_state, "ground-projector", tol)]
    for _ in range(samples):
        rows.append(_row(witness_op, random_density(dims, rng), "random-density", tol))
    for _ in range(samples):
        ensemble = random_separable_ensemble(dims, 2 * dims.dAB, rng)
        rows.append(
            _row(witness_op, ensemble_density(ensemble), "separable-ensemble", tol)
        )
    return rows
