"""Witness algebra in the separable-state form W = sigma - c*I.

Any block-positive operator with a negative eigenvalue can be written as a
separable-looking density sigma minus a multiple of the identity.  The offset
c must sit strictly above the smallest eigenvalue of sigma (otherwise the
operator is positive and detects nothing) and at most at the product-state
infimum c_max = inf <mu nu|sigma|mu nu> (otherwise some product state is
"detected", which no witness may do).  This module builds such witnesses,
estimates c_max by alternating eigenvector descent, and provides the small
algebra around them: values on states, detection, fineness comparison, and
decomposability certificates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    DifferentSigma,
    DimensionMismatch,
    EstimateMissing,
    ExceedsCmax,
    InvalidParams,
    NotAWitness,
    NotNegative,
)
from .operators import (
    HermitianOperator,
    hs_inner,
    hs_norm,
    min_eigenpair,
    partial_transpose,
    scaled,
    shifted,
)
from .states import DensityOperator, ProductVector, Provenance, haar_unit_vector

CMAX_SLACK = 1e-10
DEFAULT_DETECT_TOL = 1e-10
DEFAULT_WOPT_TOL = 1e-8
_MONOTONE_SLACK = 1e-12


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
    """A witness sigma - c*I with its cached spectral data."""

    sigma: DensityOperator
    c: float
    lambda0_sigma: float
    cmax_estimate: CmaxEstimate | None = None

    def __post_init__(self) -> None:
        if not self.lambda0_sigma < self.c:
            raise NotAWitness(
                f"c = {self.c!r} does not exceed the minimum eigenvalue "
                f"{self.lambda0_sigma!r} of sigma; sigma - c*I is positive "
                "semidefinite and detects nothing"
            )
        est = self.cmax_estimate
        if est is not None and self.c > est.value + CMAX_SLACK:
            raise ExceedsCmax(
                f"c = {self.c!r} exceeds the c_max estimate {est.value!r}; "
                "the operator would be negative on the estimate's product state"
            )

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
    return _expectation_raw(sigma.op.entries, pv.vector())


def _expectation_raw(entries: np.ndarray, joint: np.ndarray) -> float:
    return float((joint.conj() @ entries @ joint).real)


def _conditioned_on_b(t4: np.ndarray, nu: np.ndarray) -> np.ndarray:
    # M[i,k] = sum_{j,l} conj(nu_j) sigma[(i,j),(k,l)] nu_l
    return np.einsum("ijkl,j,l->ik", t4, nu.conj(), nu)


def _conditioned_on_a(t4: np.ndarray, mu: np.ndarray) -> np.ndarray:
    # M[j,l] = sum_{i,k} conj(mu_i) sigma[(i,j),(k,l)] mu_k
    return np.einsum("ijkl,i,k->jl", t4, mu.conj(), mu)


def _seesaw_run(
    t4: np.ndarray,
    mu: np.ndarray,
    nu: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[float, np.ndarray, np.ndarray, int, bool, list[float]]:
    """One descent run from a fixed start; objective is non-increasing."""
    dA, dB = t4.shape[0], t4.shape[1]
    joint = np.kron(mu, nu)
    entries = t4.reshape(dA * dB, dA * dB)
    history = [_expectation_raw(entries, joint)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w_a, v_a = np.linalg.eigh(_conditioned_on_b(t4, nu))
        mu = v_a[:, 0]
        obj_a = float(w_a[0])
        w_b, v_b = np.linalg.eigh(_conditioned_on_a(t4, mu))
        nu = v_b[:, 0]
        obj_b = float(w_b[0])
        for prev, new in ((history[-1], obj_a), (obj_a, obj_b)):
            if new > prev + _MONOTONE_SLACK:
                raise ConvergenceFailure(
                    f"see-saw objective rose from {prev!r} to {new!r}"
                )
        sweep_start = history[-1]
        history.extend((obj_a, obj_b))
        if sweep_start - obj_b < tol:
            converged = True
            break
    value = _expectation_raw(entries, np.kron(mu, nu))
    return value, mu, nu, iterations, converged, history


def c_sigma_max(
    sigma: DensityOperator,
    restarts: int = 32,
    max_iter: int = 500,
    tol: float = 1e-12,
    seed: int = 0,
) -> CmaxEstimate:
    """Estimate c_max = inf over unit product vectors of <mu nu|sigma|mu nu>.

    Alternates ground-eigenvector updates: with nu fixed the objective is the
    bottom eigenvalue of the B-conditioned operator on A, and symmetrically
    with mu fixed.  Each half step can only lower the expectation, so every
    run descends monotonically; the best run over all restarts wins.

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
        Base seed for the deterministic restart schedule.

    Returns
    -------
    CmaxEstimate
        Best value found, its product vector, and convergence metadata for
        the winning run.  ``converged`` is False when that run hit max_iter.
    """
    if restarts < 1 or max_iter < 0:
        raise InvalidParams(
            f"need restarts >= 1 and max_iter >= 0, got {restarts!r} and {max_iter!r}"
        )
    dims = sigma.dims
    t4 = sigma.op.entries.reshape(dims.dA, dims.dB, dims.dA, dims.dB)
    best: tuple[float, np.ndarray, np.ndarray, int, bool] | None = None
    for r in range(restarts):
        rng = np.random.default_rng(seed + r)
        mu0 = haar_unit_vector(dims.dA, rng)
        nu0 = haar_unit_vector(dims.dB, rng)
        value, mu, nu, iterations, converged, _ = _seesaw_run(
            t4, mu0, nu0, max_iter, tol
        )
        if best is None or value < best[0]:
            best = (value, mu, nu, iterations, converged)
    value, mu, nu, iterations, converged = best
    return CmaxEstimate(
        value=value,
        argmin=ProductVector(mu, nu),
        restarts=restarts,
        iterations=iterations,
        converged=converged,
    )


def build_witness(
    sigma: DensityOperator, c: float, cmax_estimate: CmaxEstimate | None = None
) -> SigmaFormWitness:
    """Construct sigma - c*I, validating that it can be a witness.

    Raises NotAWitness when c does not exceed the smallest eigenvalue of
    sigma, and ExceedsCmax when a supplied estimate certifies that some
    product state would be detected.  Without an estimate the witness is
    accepted but not certified against product states.
    """
    lam0, _ = min_eigenpair(sigma.op)
    return SigmaFormWitness(sigma, float(c), lam0, cmax_estimate)


def sigma_form_from_matrix(
    raw: HermitianOperator,
    margin: float | None = None,
    spot_checks: int = 64,
    seed: int = 0,
) -> SigmaFormWitness:
    """Recast an arbitrary witness matrix into the form sigma - c*I.

    With lam = min eigenvalue of the input (required negative) and a small
    margin eps, gamma = 1 / (tr(W) + dAB*(|lam| + eps)) rescales the matrix
    so that sigma = gamma*W + c*I is a strictly positive unit-trace density
    and the witness operator round-trips to gamma*W.  Product expectations
    of the input are spot-checked on random product vectors: a clearly
    negative sample proves the input is no witness.
    """
    lam0, _ = min_eigenpair(raw)
    if not lam0 < 0.0:
        raise NotNegative(
            f"minimum eigenvalue {lam0!r} is non-negative: not a witness candidate"
        )
    scale = hs_norm(raw)
    neg_tol = 1e-8 * max(1.0, scale)
    rng = np.random.default_rng(seed)
    dims = raw.dims
    for _ in range(spot_checks):
        joint = np.kron(
            haar_unit_vector(dims.dA, rng), haar_unit_vector(dims.dB, rng)
        )
        val = _expectation_raw(raw.entries, joint)
        if val < -neg_tol:
            raise NotAWitness(
                f"input is negative ({val!r}) on a sampled product state; "
                "it cannot be an entanglement witness"
            )
    eps = float(margin) if margin is not None else 1e-6 * scale
    gamma = 1.0 / (raw.trace + dims.dAB * (abs(lam0) + eps))
    c = gamma * (abs(lam0) + eps)
    sigma_op = shifted(scaled(raw, gamma), c)
    sigma = DensityOperator(sigma_op, Provenance.ASSERTED)
    lam0_sigma, _ = min_eigenpair(sigma_op)
    return SigmaFormWitness(sigma, c, lam0_sigma)


def to_tau_form(witness: SigmaFormWitness) -> tuple[DensityOperator, float]:
    """Rescale the offset against the maximally mixed state: c' = c*dAB.

    The witness operator is recovered as sigma - (c'/dAB)*I, so both forms
    describe the same hyperplane; c' is the offset measured in units of the
    maximally mixed state's product expectation.
    """
    return witness.sigma, witness.c * witness.dims.dAB


def is_weakly_optimal(
    witness: SigmaFormWitness, tol: float = DEFAULT_WOPT_TOL
) -> tuple[bool, ProductVector | None]:
    """Whether c sits at the estimated c_max, with the certificate vector.

    The witness hyperplane touches the separable set when c equals the
    product-state infimum; the estimate's argmin is then a product state on
    which the witness value vanishes.  Raises EstimateMissing when the
    witness carries no estimate.
    """
    est = witness.cmax_estimate
    if est is None:
        raise EstimateMissing(
            "no c_max estimate attached; run c_sigma_max and rebuild the witness"
        )
    if abs(witness.c - est.value) <= tol:
        return True, est.argmin
    return False, None


def witness_value(witness: SigmaFormWitness, rho: DensityOperator) -> float:
    """tr(W rho) for W = sigma - c*I."""
    return hs_inner(rho.op, witness.operator())


def detects(
    witness: SigmaFormWitness, rho: DensityOperator, tol: float = DEFAULT_DETECT_TOL
) -> bool:
    """True when tr(W rho) < -tol, i.e. rho is flagged as entangled."""
    return witness_value(witness, rho) < -tol


class FinerVerdict(enum.Enum):
    """Outcome of the shared-sigma fineness comparison."""

    FINER = "finer"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable-by-this-test"


def finer_than(w2: SigmaFormWitness, w1: SigmaFormWitness) -> FinerVerdict:
    """Compare witnesses sharing one sigma: a larger offset detects more.

    At fixed sigma the value on any state drops by exactly c2 - c1, so
    c2 > c1 makes w2 detect everything w1 detects.  Witnesses with different
    sigmas are rejected, and c2 < c1 yields INCOMPARABLE because this test
    only ever certifies the forward direction.
    """
    diff = float(np.abs(w2.sigma.op.entries - w1.sigma.op.entries).max())
    if diff > 1e-12:
        raise DifferentSigma(
            f"sigmas differ by {diff:.3e} in max entry; fineness needs one sigma"
        )
    if w2.c > w1.c:
        return FinerVerdict.FINER
    if w2.c == w1.c:
        return FinerVerdict.EQUAL
    return FinerVerdict.INCOMPARABLE


def verify_decomposition(
    witness_op: HermitianOperator,
    p: HermitianOperator,
    q: HermitianOperator,
    tol: float = 1e-8,
    subsystem: str = "B",
) -> bool:
    """Check W = P + Q^PT with P, Q positive semidefinite within tol.

    A witness admitting such a decomposition is decomposable and can only
    detect states that already fail the partial-transpose test.
    """
    if witness_op.dims != p.dims or witness_op.dims != q.dims:
        raise DimensionMismatch("decomposition pieces must share the witness dims")
    lam_p, _ = min_eigenpair(p)
    lam_q, _ = min_eigenpair(q)
    if lam_p < -tol or lam_q < -tol:
        return False
    recomposed = p.entries + partial_transpose(q, subsystem).entries
    residual = float(np.linalg.norm(witness_op.entries - recomposed))
    return residual <= tol
