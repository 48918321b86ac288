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

The gap check needs no SPA operator at all.  Partial transposition is linear
and fixes the identity, so (W + s*I)^PT = W^PT + s*I and

    min eig (W + s*I)^PT = min eig(W^PT) + s

holds exactly; normalizing by the trace tr(W) + dAB*s is a positive rescale.
Both SPA verdicts therefore follow from min eig(W), min eig(W^PT) and tr(W),
which is what :func:`gap_verdict` computes from, after one stacked eigensolve.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidParams, NotNegative, ZeroTrace
from .operators import (
    HermitianOperator,
    eig_hermitian,
    eigh_checked,
    hs_inner,
    min_eigenpair,
    numeric_rank,
    partial_transpose,
    partial_transpose_stack,
    scaled,
    shifted,
)
from .states import DensityOperator, Provenance
from .witness import SigmaFormWitness

DEFAULT_COMPARE_TOL = 1e-8
DEFAULT_DEGENERACY_TOL = 1e-8
_MIN_TRACE = 1e-12


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

    ``lambda0`` and ``lambda0_pt`` hold the minimum eigenvalues of the
    compared operator and of its partial transpose: sigma for the
    sigma-form check, the witness matrix itself for the gap check.
    ``spa_ppt`` is the partial-transpose verdict of the (NPT-side) SPA;
    the gap check also records the partner side.
    """

    condition_holds: bool
    lambda0: float
    lambda0_pt: float
    spa_ppt: PptVerdict
    conclusion: Conclusion
    assertion_note: str
    npt_side: str | None = None
    partner_spa_ppt: SpaPptVerdict | None = None

    @property
    def gap(self) -> float:
        return abs(self.lambda0 - self.lambda0_pt)

    @property
    def spa_sides(self) -> tuple[SpaPptVerdict, SpaPptVerdict]:
        """The SPA verdicts of W and of W^PT, in that order; gap verdicts only."""
        primary, partner = self.spa_ppt, self.partner_spa_ppt
        if not (isinstance(primary, SpaPptVerdict) and isinstance(partner, SpaPptVerdict)):
            raise TypeError("only a gap verdict records the SPA verdicts of both sides")
        if self.npt_side == "partial-transpose":
            return partner, primary
        return primary, partner


def spa(witness_op: HermitianOperator) -> SpaResult:
    """Smallest identity admixture that renders the operator positive."""
    lam0, _ = min_eigenpair(witness_op)
    s = max(0.0, -lam0)
    op = shifted(witness_op, s) if s > 0.0 else witness_op
    tr = op.trace
    if not tr > _MIN_TRACE:
        raise ZeroTrace(f"shifted operator has trace {tr!r}; cannot normalize")
    state = DensityOperator(scaled(op, 1.0 / tr), Provenance.UNKNOWN)
    return SpaResult(s=s, spa_operator=op, normalized_state=state)


def spa_sigma_form(witness: SigmaFormWitness) -> SpaResult:
    """SPA of sigma - c*I, which is sigma - (min eig sigma)*I for every c.

    When sigma is rank deficient its minimum eigenvalue vanishes, the SPA
    is sigma itself, and the returned state keeps sigma's provenance; the
    approximation of such a witness is then separable whenever sigma is.
    """
    sigma = witness.sigma
    if numeric_rank(sigma.op) < witness.dims.dAB:
        return SpaResult(
            s=witness.c,
            spa_operator=sigma.op,
            normalized_state=sigma,
            rank_deficient_shortcut=True,
        )
    lam0 = witness.lambda0_sigma
    op = shifted(sigma.op, -lam0)
    tr = op.trace
    if not tr > _MIN_TRACE:
        raise ZeroTrace(f"SPA operator has trace {tr!r}; cannot normalize")
    state = DensityOperator(scaled(op, 1.0 / tr), Provenance.UNKNOWN)
    return SpaResult(s=witness.c - lam0, spa_operator=op, normalized_state=state)


def pt_min_eigenvalue(op: HermitianOperator, subsystem: str = "B") -> float:
    """Minimum eigenvalue of the partial transpose, without normalization."""
    lam, _ = min_eigenpair(partial_transpose(op, subsystem))
    return lam


def ppt_check(
    candidate: HermitianOperator | DensityOperator,
    tol: float = DEFAULT_COMPARE_TOL,
    subsystem: str = "B",
) -> PptVerdict:
    """Partial-transpose test; NPT implies entanglement for a valid state."""
    op = candidate.op if isinstance(candidate, DensityOperator) else candidate
    tr = op.trace
    normalized = scaled(op, 1.0 / tr) if tr > _MIN_TRACE else op
    lam = pt_min_eigenvalue(normalized, subsystem)
    status = PptStatus.NPT_ENTANGLED if lam < -tol else PptStatus.PPT
    return PptVerdict(
        min_pt_eigenvalue=lam,
        status=status,
        conclusive_separability=(status is PptStatus.PPT and op.dims.dAB <= 6),
    )


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
    """Sufficient condition on sigma for the witness's SPA to be NPT.

    The partial transpose of the SPA is sigma^PT - (min eig sigma)*I, so its
    bottom eigenvalue equals min eig(sigma^PT) - min eig(sigma) exactly; the
    SPA fails the PPT test precisely when that difference is negative.  The
    PPT verdict of the actual SPA operator is recomputed as a cross-check
    and must agree whenever the condition fires.
    """
    lam0 = witness.lambda0_sigma
    lam0_pt, _ = min_eigenpair(partial_transpose(witness.sigma.op))
    condition = lam0_pt < lam0 - tol
    result = spa_sigma_form(witness)
    verdict_ppt = ppt_check(result.spa_operator, tol)
    if condition and verdict_ppt.status is not PptStatus.NPT_ENTANGLED:
        raise ConvergenceFailure(
            "eigenvalue condition fired but the SPA passed the PPT test; "
            "the two eigensolver paths disagree"
        )
    if condition:
        conclusion = Conclusion.VIOLATES if asserted_onew else Conclusion.INCONCLUSIVE
    else:
        conclusion = Conclusion.CONSISTENT
    return ConjectureVerdict(
        condition_holds=condition,
        lambda0=lam0,
        lambda0_pt=lam0_pt,
        spa_ppt=verdict_ppt,
        conclusion=conclusion,
        assertion_note=_assertion_note(asserted_onew),
    )


def gap_rule(
    lam0: np.ndarray, lam0_pt: np.ndarray, trace: np.ndarray, dAB: int, tol: float
) -> tuple[np.ndarray, ...]:
    """The gap |lam0 - lam0_pt|, the condition gap > tol and, for the SPA of
    W and of W^PT stacked in that order, its shift s = max(0, -min eig), PT
    floor min eig(other) + s and that floor over its trace tr W + dAB*s,
    elementwise; ZeroTrace names the first point, W's side first, whose SPA
    trace is not above _MIN_TRACE.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParams(f"tolerance must be finite and >= 0, got {tol!r}")
    lams = np.array([lam0, lam0_pt], dtype=np.float64)
    # +0.0 wherever max(0.0, -lam) gives it: for -lam <= 0 and for nan
    s = np.where(-lams > 0.0, -lams, 0.0)
    # overflow and inf - inf give inf and nan silently, as float arithmetic does
    with np.errstate(over="ignore", invalid="ignore"):
        tr = trace + dAB * s
        ok = tr > _MIN_TRACE
        if not ok.all():
            first = float(tr.T.flat[np.argmin(ok.T)])  # point by point, W's side first
            raise ZeroTrace(f"shifted operator has trace {first!r}; cannot normalize")
        raw = lams[::-1] + s
        gap = np.abs(lams[0] - lams[1])
        return gap, gap > tol, s, raw, raw / tr


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
    -tol (the tie window) is INCONCLUSIVE whatever the assertion.
    """
    _, holds, shift, raw, lam = gap_rule(lam0, lam0_pt, trace, dAB, tol)
    sides = tuple(
        SpaPptVerdict(
            min_pt_eigenvalue=x,
            status=PptStatus.NPT_ENTANGLED if x < -tol else PptStatus.PPT,
            conclusive_separability=not x < -tol and dAB <= 6,
            shift=s,
            min_pt_eigenvalue_raw=r,
        )
        for s, r, x in zip(shift.tolist(), raw.tolist(), lam.tolist())
    )
    condition = bool(holds)
    npt_side = ("direct" if lam0 > lam0_pt else "partial-transpose") if condition else None
    primary, partner = sides[::-1] if npt_side == "partial-transpose" else sides
    if not condition:
        conclusion = Conclusion.CONSISTENT
    elif primary.status is PptStatus.NPT_ENTANGLED and asserted_onew:
        conclusion = Conclusion.VIOLATES
    else:
        conclusion = Conclusion.INCONCLUSIVE
    return ConjectureVerdict(
        condition_holds=condition,
        lambda0=lam0,
        lambda0_pt=lam0_pt,
        spa_ppt=primary,
        conclusion=conclusion,
        assertion_note=_assertion_note(asserted_onew),
        npt_side=npt_side,
        partner_spa_ppt=partner,
    )


def spa_violation_from_gap(
    witness_op: HermitianOperator,
    tol: float = DEFAULT_COMPARE_TOL,
    asserted_onew: bool = False,
) -> ConjectureVerdict:
    """Eigenvalue-gap condition from one checked, stacked eigensolve of W and W^PT."""
    m = witness_op.entries
    w, _ = eigh_checked(np.stack([m, partial_transpose_stack(m, witness_op.dims)]))
    lam0, lam0_pt = w[:, 0].tolist()
    if not lam0 < 0.0:
        raise NotNegative(
            f"minimum eigenvalue {lam0!r} is non-negative: not a witness candidate"
        )
    return gap_verdict(
        lam0, lam0_pt, witness_op.trace, witness_op.dims.dAB, tol, asserted_onew
    )


@dataclass(frozen=True, eq=False)
class ExtremalProjectors:
    """Ground-eigenspace projectors of sigma and of its partial transpose."""

    sigma_ground: HermitianOperator
    sigma_pt_ground: HermitianOperator
    sigma_ground_degenerate: bool
    sigma_pt_ground_degenerate: bool


def _ground_projector(
    op: HermitianOperator, tol: float
) -> tuple[HermitianOperator, bool]:
    spectrum = eig_hermitian(op)
    mask = spectrum.eigenvalues <= spectrum.eigenvalues[0] + tol
    vecs = spectrum.eigenvectors[:, mask]
    proj = HermitianOperator(op.dims, vecs @ vecs.conj().T)
    return proj, int(mask.sum()) > 1


def extremal_projectors(
    sigma: DensityOperator, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
) -> ExtremalProjectors:
    """Projectors onto the bottom eigenspaces of sigma and sigma^PT.

    Non-degenerate ground spaces give rank-one projectors (the states a
    sigma-form witness detects most strongly); degenerate ones return the
    full eigenspace projector and set the corresponding flag.
    """
    ground, ground_degenerate = _ground_projector(sigma.op, degeneracy_tol)
    pt_ground, pt_degenerate = _ground_projector(
        partial_transpose(sigma.op), degeneracy_tol
    )
    return ExtremalProjectors(
        sigma_ground=ground,
        sigma_pt_ground=pt_ground,
        sigma_ground_degenerate=ground_degenerate,
        sigma_pt_ground_degenerate=pt_degenerate,
    )


class HyperplaneSide(enum.Enum):
    NEGATIVE = "negative-side"
    ON_PLANE = "on-plane"
    POSITIVE = "positive-side"


def hyperplane_classify(
    witness_op: HermitianOperator,
    rho: DensityOperator,
    tol: float = DEFAULT_COMPARE_TOL,
) -> HyperplaneSide:
    """Which side of the witness hyperplane tr(W rho) = 0 a state falls on."""
    return hyperplane_side(hs_inner(rho.op, witness_op), tol)


def hyperplane_side(value: float, tol: float = DEFAULT_COMPARE_TOL) -> HyperplaneSide:
    """Side of the witness hyperplane for a witness value tr(W rho)."""
    if value < -tol:
        return HyperplaneSide.NEGATIVE
    if value > tol:
        return HyperplaneSide.POSITIVE
    return HyperplaneSide.ON_PLANE
