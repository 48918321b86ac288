"""Witness algebra in the separable-state form W = sigma - c*I.

Any block-positive operator with a negative eigenvalue can be written as a
separable-looking density sigma minus a multiple of the identity.  The offset
c must sit strictly above the smallest eigenvalue of sigma (otherwise the
operator is positive and detects nothing) and at most at the product-state
infimum c_max = inf <mu nu|sigma|mu nu> (otherwise some product state is
"detected", which no witness may do).  This module builds such witnesses,
estimates c_max by alternating eigenvector descent, and provides the small
algebra around them: the side of the witness hyperplane a value tr(W rho)
falls on (detection is the negative side), and decomposability certificates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidParams,
    NotAWitness,
    NotNegative,
)
from .operators import (
    HermitianOperator,
    _read_only,
    check_seed,
    check_tol,
    check_trace,
    eig_hermitian,
    eigh_checked,
    hs_norm,
    lapack_eig,
    partial_transpose,
    scaled,
    shifted,
    spectra_with_pt,
)
from .states import (
    DensityOperator,
    ProductVector,
    Provenance,
    _unit_factors,
    haar_product_factors,
    joint_vectors,
)

CMAX_SLACK = 1e-10
DEFAULT_DETECT_TOL = 1e-8
DEFAULT_WOPT_TOL = 1e-8
SPOT_CHECKS = 64
SIGMA_MARGIN = 1e-6
_MONOTONE_SLACK = 1e-12
# c_sigma_max's defaults, which the cmax command's options share
SEESAW_RESTARTS = 32
SEESAW_MAX_ITER = 500
SEESAW_TOL = 1e-12
SEESAW_SEED = 0


@dataclass(frozen=True, eq=False)
class CmaxEstimate:
    """Achieved upper bound on the product-state infimum of sigma.

    ``value`` equals the expectation of sigma on ``argmin``; ``iterations``
    and ``converged`` describe the restart that produced the bound.
    """

    value: float
    argmin: ProductVector
    restarts: int
    iterations: int
    converged: bool


@dataclass(frozen=True, eq=False)
class SigmaFormWitness:
    """A witness sigma - c*I with ``spectra``, the read-only (2, dAB)
    ascending spectra of sigma and of sigma^PT from the one stacked
    eigensolve (spectra_with_pt) that build_witness makes."""

    sigma: DensityOperator
    c: float
    spectra: np.ndarray
    cmax_estimate: CmaxEstimate | None = None

    def __post_init__(self) -> None:
        check_candidate(self.lambda0_sigma - self.c)
        est = self.cmax_estimate
        if est is not None and self.c > est.value + CMAX_SLACK:
            raise NotAWitness(
                f"c = {self.c!r} exceeds the c_max estimate {est.value!r}; "
                "the operator would be negative on the estimate's product state"
            )

    @property
    def lambda0_sigma(self) -> float:
        return float(self.spectra[0, 0])

    @property
    def dims(self):
        return self.sigma.dims

    def operator(self) -> HermitianOperator:
        """The witness matrix sigma - c*I."""
        return shifted(self.sigma.op, -self.c)


def product_expectation(sigma: DensityOperator, pv: ProductVector) -> float:
    """<mu nu|sigma|mu nu>, real and inside [0, 1] for a density."""
    if sigma.dims != pv.dims:
        raise DimensionMismatch(f"state dims {sigma.dims} vs vector dims {pv.dims}")
    return float(_expectations(sigma.op.entries, pv.vector()[None])[0])


def _expectations(entries: np.ndarray, joint: np.ndarray) -> np.ndarray:
    """(v.conj() @ entries @ v).real for each row v of an (n, d) stack, with its bits."""
    return (joint.conj()[:, None, :] @ entries @ joint[:, :, None]).real[:, 0, 0]


def c_sigma_max(
    sigma: DensityOperator,
    restarts: int = SEESAW_RESTARTS,
    max_iter: int = SEESAW_MAX_ITER,
    tol: float = SEESAW_TOL,
    seed: int = SEESAW_SEED,
) -> CmaxEstimate:
    """Estimate c_max = inf over unit product vectors of <mu nu|sigma|mu nu>.

    Alternates ground-eigenvector updates: with nu fixed the objective is the
    bottom eigenvalue of the B-conditioned operator on A, and symmetrically
    with mu fixed.  Each half step can only lower the expectation, so every
    run descends monotonically; the best run over all restarts wins.  The
    restarts run as one stacked descent: each sweep makes one stacked
    eigensolve per side over the restarts still running, and each restart
    stops at its own sweep, so every run ends where it would alone.  Those
    eigensolves go through lapack_eig without eigh_checked's residual test;
    the monotonicity test, which fails any half step that raises a run's
    objective, is their guard.

    Parameters
    ----------
    sigma : DensityOperator
        State whose product-state infimum is sought.
    restarts : int
        Independent runs, at least one; restart r draws its start from seed + r.
    max_iter : int
        Full sweeps allowed per run; 0 only evaluates the starting vectors.
    tol : float
        A run stops once a full sweep lowers the objective by less than this.
    seed : int
        Base seed, at least 0, for the deterministic restart schedule.

    Returns
    -------
    CmaxEstimate
        Best value found, its product vector, and convergence metadata for
        the winning run.  ``converged`` is False when that run hit max_iter.

    Raises
    ------
    InvalidParams
        When restarts, max_iter, tol or seed is out of range.
    ConvergenceFailure
        When a half step raises some run's objective, naming the restart, or
        an eigensolve fails.
    """
    if restarts < 1 or max_iter < 0:
        raise InvalidParams(
            f"need restarts >= 1 and max_iter >= 0, got {restarts!r} and {max_iter!r}"
        )
    check_seed(seed)
    check_tol(tol)
    dims = sigma.dims
    entries = sigma.op.entries
    t4 = entries.reshape(dims.dA, dims.dB, dims.dA, dims.dB)
    # restart r's start: a Haar mu then a Haar nu, from its own seed + r stream
    width = 2 * dims.dA + 2 * dims.dB
    mu, nu = _unit_factors(
        np.array([np.random.default_rng(seed + r).standard_normal(width) for r in range(restarts)]),
        dims,
    )
    # objective at the end of each run's latest sweep (its start value first)
    last = _expectations(entries, joint_vectors(mu, nu))
    iterations = np.zeros(restarts, dtype=int)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for sweep in range(1, max_iter + 1):
        if active.size == 0:
            break
        # M[r,i,k] = sum_{j,l} conj(nu_rj) sigma[(i,j),(k,l)] nu_rl
        nu_run = nu[active]
        w_a, v_a = lapack_eig(np.einsum("ijkl,rj,rl->rik", t4, nu_run.conj(), nu_run))
        mu_run = v_a[:, :, 0]
        # M[r,j,l] = sum_{i,k} conj(mu_ri) sigma[(i,j),(k,l)] mu_rk
        w_b, v_b = lapack_eig(np.einsum("ijkl,ri,rk->rjl", t4, mu_run.conj(), mu_run))
        obj_a, obj_b = w_a[:, 0], w_b[:, 0]
        sweep_start = last[active]
        a_rose = obj_a > sweep_start + _MONOTONE_SLACK
        rose = a_rose | (obj_b > obj_a + _MONOTONE_SLACK)
        if rose.any():
            k = int(np.argmax(rose))
            prev, new = (sweep_start[k], obj_a[k]) if a_rose[k] else (obj_a[k], obj_b[k])
            raise ConvergenceFailure(
                f"see-saw restart {int(active[k])}: objective rose from "
                f"{float(prev)!r} to {float(new)!r} in sweep {sweep}"
            )
        mu[active] = mu_run
        nu[active] = v_b[:, :, 0]
        last[active] = obj_b
        iterations[active] = sweep
        done = sweep_start - obj_b < tol
        converged[active[done]] = True
        active = active[~done]
    values = _expectations(entries, joint_vectors(mu, nu)).tolist()
    best = min(range(restarts), key=values.__getitem__)
    return CmaxEstimate(
        value=values[best],
        argmin=ProductVector(mu[best], nu[best]),
        restarts=restarts,
        iterations=int(iterations[best]),
        converged=bool(converged[best]),
    )


def build_witness(
    sigma: DensityOperator, c: float, cmax_estimate: CmaxEstimate | None = None
) -> SigmaFormWitness:
    """Construct sigma - c*I, with the spectra of sigma and sigma^PT from one
    checked, stacked eigensolve, validating that it can be a witness.

    Raises NotNegative when c does not exceed the smallest eigenvalue of
    sigma, and NotAWitness when a supplied estimate certifies that some
    product state would be detected.  Without an estimate the witness is
    accepted but not certified against product states.
    """
    spectra = _read_only(spectra_with_pt(sigma.op.entries, sigma.dims))
    return SigmaFormWitness(sigma, float(c), spectra, cmax_estimate)


def check_candidate(lam0: float) -> None:
    """Raise NotNegative unless lam0, a witness matrix's minimum eigenvalue, is negative."""
    if not lam0 < 0.0:
        what = f"minimum eigenvalue {lam0!r} of the witness matrix"
        raise NotNegative(f"{what} is not negative: not a witness candidate")


def sigma_form_from_matrix(raw: HermitianOperator) -> SigmaFormWitness:
    """Recast an arbitrary witness matrix into the form sigma - c*I.

    With lam = min eigenvalue of the input (required negative) and the
    margin eps = SIGMA_MARGIN*||W||, gamma = 1 / (tr(W) + dAB*(|lam| + eps))
    rescales the matrix so that sigma = gamma*W + c*I is a strictly positive
    unit-trace density and the witness operator round-trips to gamma*W; a
    divisor that check_trace rejects (one past the float range) is ZeroTrace.
    Product expectations of the input are spot-checked on SPOT_CHECKS random
    product vectors from default_rng(0): a clearly negative sample proves
    the input is no witness.
    """
    spectrum, _ = eig_hermitian(raw)
    lam0 = float(spectrum[0])
    check_candidate(lam0)
    scale = hs_norm(raw)
    neg_tol = 1e-8 * max(1.0, scale)
    dims = raw.dims
    mu, nu = haar_product_factors(dims, SPOT_CHECKS, np.random.default_rng(0))
    joint = joint_vectors(mu, nu)
    vals = _expectations(raw.entries, joint)
    negative = np.flatnonzero(vals < -neg_tol)
    if negative.size:
        val = float(vals[negative[0]])
        raise NotAWitness(
            f"input is negative ({val!r}) on a sampled product state; "
            "it cannot be an entanglement witness"
        )
    eps = SIGMA_MARGIN * scale
    gamma = 1.0 / check_trace(raw.trace + dims.dAB * (abs(lam0) + eps), "shifted operator")
    c = gamma * (abs(lam0) + eps)
    sigma_op = shifted(scaled(raw, gamma), c)
    sigma = DensityOperator(sigma_op, Provenance.UNKNOWN)  # a recast sigma may be entangled
    return build_witness(sigma, c)


def is_weakly_optimal(witness: SigmaFormWitness) -> tuple[bool, ProductVector | None]:
    """Whether c sits within DEFAULT_WOPT_TOL of the estimated c_max, with
    the certificate vector.

    The witness hyperplane touches the separable set when c equals the
    product-state infimum; the estimate's argmin is then a product state on
    which the witness value vanishes.  Raises InvalidParams when the
    witness carries no estimate.
    """
    est = witness.cmax_estimate
    if est is None:
        raise InvalidParams(
            "no c_max estimate attached; run c_sigma_max and rebuild the witness"
        )
    if abs(witness.c - est.value) <= DEFAULT_WOPT_TOL:
        return True, est.argmin
    return False, None


class HyperplaneSide(enum.Enum):
    NEGATIVE = "negative-side"
    ON_PLANE = "on-plane"
    POSITIVE = "positive-side"


def hyperplane_side(value: float | np.ndarray) -> HyperplaneSide | np.ndarray:
    """Side of the witness hyperplane for a witness value tr(W rho), with
    values within DEFAULT_DETECT_TOL of zero, and nan, on the plane; for
    an array of values, the array of the sides' values."""
    tol = DEFAULT_DETECT_TOL
    side = np.where(value > tol, HyperplaneSide.POSITIVE.value, HyperplaneSide.ON_PLANE.value)
    side = np.where(value < -tol, HyperplaneSide.NEGATIVE.value, side)
    return side if np.ndim(value) else HyperplaneSide(side.item())


def verify_decomposition(
    witness_op: HermitianOperator,
    p: HermitianOperator,
    q: HermitianOperator,
    tol: float = 1e-8,
) -> bool:
    """Check W = P + Q^PT with P, Q positive semidefinite within tol.

    A witness admitting such a decomposition is decomposable and can only
    detect states that already fail the partial-transpose test.
    """
    check_tol(tol)
    if witness_op.dims != p.dims or witness_op.dims != q.dims:
        raise DimensionMismatch("decomposition pieces must share the witness dims")
    w, _ = eigh_checked(np.stack([p.entries, q.entries]))
    if (w[:, 0] < -tol).any():
        return False
    recomposed = p.entries + partial_transpose(q).entries
    residual = float(np.linalg.norm(witness_op.entries - recomposed))
    return residual <= tol
