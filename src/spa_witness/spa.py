"""Structural physical approximation and the checks built on top of it.

The SPA of a witness W mixes in just enough identity to reach the positive
cone: W + s*I with s = max(0, -min eig W).  After normalization the result
is a state.  A long-standing conjecture holds that the SPA of an optimal
witness is always separable; this module mechanizes the spectral condition
under which the SPA instead fails the partial-transpose test, which (for an
optimal nondecomposable witness) refutes separability outright.

For a sigma-form witness the SPA collapses to sigma - (min eig sigma)*I
independently of the offset c, and when sigma is rank deficient the SPA is
sigma itself, so separability of the approximation is inherited from sigma.

The violation checks need no SPA operator at all.  Partial transposition is
linear and fixes the identity, so (W + s*I)^PT = W^PT + s*I and

    min eig (W + s*I)^PT = min eig(W^PT) + s

holds exactly; normalizing by the trace tr(W) + dAB*s is a positive rescale.
Both SPA verdicts therefore follow from min eig(W), min eig(W^PT) and tr(W),
which is what :func:`gap_verdict` computes from, after one stacked eigensolve.
The sigma-form check feeds it the same three numbers for W = sigma - c*I.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .operators import (
    HermitianOperator,
    check_tol,
    check_trace,
    hs_inner,
    min_eigenpair,
    partial_transpose,
    scaled,
    shifted,
    spectra_with_pt,
)
from .states import DensityOperator, Provenance
from .witness import HyperplaneSide, SigmaFormWitness, check_candidate, hyperplane_side

DEFAULT_COMPARE_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-9


class PptStatus(enum.Enum):
    NPT_ENTANGLED = "NPT-entangled"
    PPT = "PPT"


@dataclass(frozen=True, eq=False)
class PptVerdict:
    """Partial-transpose test outcome on the trace-normalized input.

    ``min_pt_eigenvalue`` refers to the normalized operator, so the -tol
    threshold is invariant under positive rescaling of the input.  A PPT
    verdict is conclusive for separability only when dAB <= 6.
    """

    min_pt_eigenvalue: float
    status: PptStatus
    conclusive_separability: bool


@dataclass(frozen=True, eq=False)
class SpaPptVerdict(PptVerdict):
    """PPT verdict of an SPA X + s*I, with its shift and unnormalized PT floor."""

    shift: float
    min_pt_eigenvalue_raw: float


@dataclass(frozen=True, eq=False)
class SpaResult:
    """Shift s, the shifted operator, and its normalized state."""

    s: float
    spa_operator: HermitianOperator
    normalized_state: DensityOperator
    rank_deficient_shortcut: bool = False


class Conclusion(enum.Enum):
    VIOLATES = "VIOLATES"
    CONSISTENT = "CONSISTENT"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class ConjectureVerdict:
    """Outcome of a sufficient-condition check for an entangled SPA.

    ``lambda0`` and ``lambda0_pt`` are the minimum eigenvalues of the
    witness matrix W and of W^PT, on both routes.  ``spa_sides`` holds the
    PPT verdicts of the SPA of W and of the SPA of W^PT, in that order;
    ``npt_side`` names the side the condition fired on, if any, and
    ``spa_ppt`` is that side's verdict (W's when nothing fired).
    """

    condition_holds: bool
    lambda0: float
    lambda0_pt: float
    spa_sides: tuple[SpaPptVerdict, SpaPptVerdict]
    conclusion: Conclusion
    assertion_note: str
    npt_side: str | None = None

    @property
    def gap(self) -> float:
        return abs(self.lambda0 - self.lambda0_pt)

    @property
    def spa_ppt(self) -> SpaPptVerdict:
        return self.spa_sides[self.npt_side == "partial-transpose"]


def _normalized(op: HermitianOperator) -> HermitianOperator:
    """op over its trace, which check_trace vets."""
    return scaled(op, 1.0 / check_trace(op.trace, "operator"))


def _ppt_fields(x: float, tol: float, dAB: int) -> dict:
    """PptVerdict fields for a normalized PT floor x: NPT iff x < -tol, and a
    PPT verdict conclusive for separability only when dAB <= 6."""
    npt = x < -tol
    return {
        "min_pt_eigenvalue": x,
        "status": PptStatus.NPT_ENTANGLED if npt else PptStatus.PPT,
        "conclusive_separability": not npt and dAB <= 6,
    }


def spa(witness_op: HermitianOperator) -> SpaResult:
    """Smallest identity admixture s = max(0, -min eig) that renders the
    operator positive, and the trace-normalized result; ZeroTrace when
    check_trace rejects that trace."""
    lam0, _ = min_eigenpair(witness_op)
    s = max(0.0, -lam0)
    op = shifted(witness_op, s) if s > 0.0 else witness_op
    state = DensityOperator(_normalized(op), Provenance.UNKNOWN)
    return SpaResult(s=s, spa_operator=op, normalized_state=state)


def spa_sigma_form(witness: SigmaFormWitness) -> SpaResult:
    """SPA of sigma - c*I, which is sigma - (min eig sigma)*I for every c.

    When sigma is rank deficient its minimum eigenvalue vanishes, the SPA
    is sigma itself, and the returned state keeps sigma's provenance; the
    approximation of such a witness is then separable whenever sigma is.
    Sigma's rank counts the eigenvalues of the witness's checked sigma
    spectrum whose magnitude exceeds DEFAULT_RANK_TOL times the largest.
    """
    sigma = witness.sigma
    magnitudes = np.abs(witness.spectra[0])
    if not (magnitudes > DEFAULT_RANK_TOL * magnitudes.max()).all():
        return SpaResult(
            s=witness.c,
            spa_operator=sigma.op,
            normalized_state=sigma,
            rank_deficient_shortcut=True,
        )
    lam0 = witness.lambda0_sigma
    op = shifted(sigma.op, -lam0)
    state = DensityOperator(_normalized(op), Provenance.UNKNOWN)
    return SpaResult(s=witness.c - lam0, spa_operator=op, normalized_state=state)


def pt_min_eigenvalue(op: HermitianOperator) -> float:
    """Minimum eigenvalue of the partial transpose, without normalization."""
    lam, _ = min_eigenpair(partial_transpose(op))
    return lam


def ppt_check(candidate: HermitianOperator | DensityOperator) -> PptVerdict:
    """Partial-transpose test on the trace-normalized input, NPT below
    -DEFAULT_COMPARE_TOL; NPT implies entanglement for a valid state.
    ZeroTrace when check_trace rejects the input's trace."""
    op = candidate.op if isinstance(candidate, DensityOperator) else candidate
    x = pt_min_eigenvalue(_normalized(op))
    return PptVerdict(**_ppt_fields(x, DEFAULT_COMPARE_TOL, op.dims.dAB))


def _assertion_note(asserted_onew: bool) -> str:
    if asserted_onew:
        return (
            "caller asserts the witness is an optimal nondecomposable one; "
            "the NPT evidence is unconditional, the violation verdict rests "
            "on that assertion"
        )
    return (
        "no optimality assertion supplied; NPT evidence is reported as is, "
        "a violation verdict additionally needs the witness to be an "
        "optimal nondecomposable one"
    )


def spa_violation_from_sigma(
    witness: SigmaFormWitness,
    tol: float = DEFAULT_COMPARE_TOL,
    asserted_onew: bool = False,
) -> ConjectureVerdict:
    """The gap verdict of W = sigma - c*I, on W's side only.

    The checked spectra of sigma and sigma^PT come with the witness, so
    nothing is solved here.  :func:`gap_verdict` takes min eig(W) = min
    eig(sigma) - c, min eig(W^PT) = min eig(sigma^PT) - c and tr W = tr
    sigma - dAB*c.  The SPA of W is sigma - (min eig sigma)*I for every c,
    with PT floor min eig(sigma^PT) - min eig(sigma).  A gap on the
    partial-transpose side makes the SPA of W^PT NPT, not the SPA of W, so
    it reads CONSISTENT here.
    """
    sigma, c = witness.sigma.op, witness.c
    lam0, lam0_pt = witness.spectra[:, 0].tolist()
    dAB = sigma.dims.dAB
    verdict = gap_verdict(lam0 - c, lam0_pt - c, sigma.trace - dAB * c, dAB, tol, asserted_onew)
    if verdict.npt_side != "partial-transpose":
        return verdict
    return replace(
        verdict, condition_holds=False, npt_side=None, conclusion=Conclusion.CONSISTENT
    )


def gap_rule(lam0: np.ndarray, lam0_pt: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """The gap |lam0 - lam0_pt|, the condition gap > tol and, for the SPA of
    W and of W^PT stacked in that order, its shift s = max(0, -min eig) and
    unnormalized PT floor min eig(other) + s, elementwise."""
    check_tol(tol)
    lams = np.array([lam0, lam0_pt], dtype=np.float64)
    # +0.0 wherever max(0.0, -lam) gives it: for -lam <= 0 and for nan
    s = np.where(-lams > 0.0, -lams, 0.0)
    # overflow and inf - inf give inf and nan silently, as float arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        gap = np.abs(lams[0] - lams[1])
        return gap, gap > tol, s, lams[::-1] + s


def gap_verdict(
    lam0: float,
    lam0_pt: float,
    trace: float,
    dAB: int,
    tol: float = DEFAULT_COMPARE_TOL,
    asserted_onew: bool = False,
) -> ConjectureVerdict:
    """Gap condition and both SPA PPT verdicts from min eig(W), min eig(W^PT), tr W.

    When the bottom eigenvalues differ by more than tol, the side with the
    larger one gets a shift too small to lift the other's negativity, so its
    SPA is NPT; npt_side names it.  A gap whose normalized SPA stays above
    -tol (the tie window) is INCONCLUSIVE whatever the assertion.  Each
    side's floor is divided by its SPA trace tr W + dAB*s, which
    check_trace vets, W's side first.
    """
    _, holds, shift, raw = gap_rule(lam0, lam0_pt, tol)
    sides = []
    for s, r in zip(shift.tolist(), raw.tolist()):
        x = r / check_trace(trace + dAB * s, "shifted operator")
        sides.append(SpaPptVerdict(**_ppt_fields(x, tol, dAB), shift=s, min_pt_eigenvalue_raw=r))
    condition = bool(holds)
    npt_side = ("direct" if lam0 > lam0_pt else "partial-transpose") if condition else None
    if not condition:
        conclusion = Conclusion.CONSISTENT
    elif sides[npt_side == "partial-transpose"].status is PptStatus.NPT_ENTANGLED and asserted_onew:
        conclusion = Conclusion.VIOLATES
    else:
        conclusion = Conclusion.INCONCLUSIVE
    return ConjectureVerdict(
        condition_holds=condition,
        lambda0=lam0,
        lambda0_pt=lam0_pt,
        spa_sides=tuple(sides),
        conclusion=conclusion,
        assertion_note=_assertion_note(asserted_onew),
        npt_side=npt_side,
    )


def spa_violation_from_gap(
    witness_op: HermitianOperator,
    tol: float = DEFAULT_COMPARE_TOL,
    asserted_onew: bool = False,
) -> ConjectureVerdict:
    """Eigenvalue-gap condition from one checked, stacked eigensolve of W and W^PT."""
    lam0, lam0_pt = spectra_with_pt(witness_op.entries, witness_op.dims)[:, 0].tolist()
    check_candidate(lam0)
    return gap_verdict(lam0, lam0_pt, witness_op.trace, witness_op.dims.dAB, tol, asserted_onew)


def hyperplane_classify(witness_op: HermitianOperator, rho: DensityOperator) -> HyperplaneSide:
    """witness.hyperplane_side of the state's witness value tr(W rho)."""
    return hyperplane_side(hs_inner(rho.op, witness_op))
