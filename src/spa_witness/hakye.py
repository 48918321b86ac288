"""The Ha-Kye family of 9x9 phase-coupled witnesses on C^3 (x) C^3.

W[a, b, c; theta] has diagonal (a, c, b, b, a, c, c, b, a) and six unit
couplings among the "corner" rows {0, 4, 8}: entries (0,4), (4,8), (8,0)
hold -e^{i theta} and entries (0,8), (4,0), (8,4) hold -e^{-i theta}.  The
coupled rows form a 3x3 circulant block, so the full spectrum has the
closed form

    {a - 2 cos(theta + 2 pi k / 3) : k = 0, 1, 2}  union  {b, b, b, c, c, c}.

Under partial transposition of the second factor the couplings migrate to
three decoupled 2x2 blocks at index pairs (1,3), (2,6), (5,7), each with
diagonal {b, c} and unit off-diagonal magnitude, giving

    three copies each of (b+c)/2 +- sqrt(((b-c)/2)^2 + 1),  plus {a, a, a}.

Both closed forms are exposed as oracles so eigensolver output can be
checked against algebra that never touches the dense matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .operators import Dims, HermitianOperator

HAKYE_DIMS = Dims(3, 3)

_DIAGONAL_PATTERN = ("a", "c", "b", "b", "a", "c", "c", "b", "a")
_FORWARD_COUPLINGS = ((0, 4), (4, 8), (8, 0))


@dataclass(frozen=True)
class HaKyeParams:
    """Diagonal weights a, b, c >= 0 (not all zero) and coupling phase theta."""

    a: float
    b: float
    c: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "theta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite, got {value!r}")
        if self.a < 0.0 or self.b < 0.0 or self.c < 0.0:
            raise InvalidParams(
                f"diagonal weights must be non-negative, got "
                f"a={self.a!r}, b={self.b!r}, c={self.c!r}"
            )
        if self.a == 0.0 and self.b == 0.0 and self.c == 0.0:
            raise InvalidParams("at least one of a, b, c must be positive")

    def column(self) -> np.ndarray:
        """The (4, 1) array a, b, c, theta: what the stacked forms take."""
        return np.array([[self.a], [self.b], [self.c], [self.theta]], dtype=np.float64)


def check_params(params: np.ndarray) -> None:
    """HaKyeParams's rules over every column of a (4, n) array a, b, c, theta.

    The first failing column is re-raised through HaKyeParams, so the error
    and its message are those of the per-point build.
    """
    weights = params[:3]
    bad = (
        ~np.isfinite(params).all(axis=0)
        | (weights < 0.0).any(axis=0)
        | (weights == 0.0).all(axis=0)
    )
    if bad.any():
        HaKyeParams(*params[:, int(np.argmax(bad))].tolist())


def hakye_witness(params: HaKyeParams) -> HermitianOperator:
    """Assemble the dense 9x9 Ha-Kye matrix for the given parameters."""
    return HermitianOperator(HAKYE_DIMS, hakye_matrices(params.column())[0])


def hakye_matrices(params: np.ndarray) -> np.ndarray:
    """The (n, 9, 9) stack of Ha-Kye matrices, one per column of params, unvalidated."""
    m = np.zeros((params.shape[1], 9, 9), dtype=np.complex128)
    m[:, range(9), range(9)] = params[["abc".index(k) for k in _DIAGONAL_PATTERN]].T
    coupling = -np.exp(1j * params[3][:, None])
    rows, cols = zip(*_FORWARD_COUPLINGS)
    m[:, rows, cols], m[:, cols, rows] = coupling, np.conj(coupling)
    return m


def hakye_spectra_closed_form(params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 9) sorted eigenvalue multisets of the witnesses, from the circulant
    block, and of their partial transposes, from the 2x2 blocks."""
    a, b, c, theta = params
    # math.cos and math.hypot, not numpy's: those may differ in the last bit
    phases = (theta[:, None] + [2.0 * math.pi * k / 3.0 for k in range(3)]).ravel().tolist()
    circulant = a[:, None] - 2.0 * np.array(list(map(math.cos, phases))).reshape(-1, 3)
    radius = np.array(list(map(math.hypot, ((b - c) / 2.0).tolist(), [1.0] * len(b))))
    with np.errstate(over="ignore"):  # overflow gives inf silently, as float arithmetic does
        mid = b / 2.0 + c / 2.0  # (b + c) / 2.0 overflows for b + c beyond ~1.8e308
        lower, upper = mid - radius, mid + radius
    return (
        np.sort(np.column_stack([circulant] + [b] * 3 + [c] * 3), axis=1),
        np.sort(np.column_stack([lower, upper] * 3 + [a] * 3), axis=1),
    )


def hakye_spectrum_closed_form(params: HaKyeParams) -> np.ndarray:
    """Sorted eigenvalue multiset of the witness; see hakye_spectra_closed_form."""
    return hakye_spectra_closed_form(params.column())[0][0]


def hakye_pt_spectrum_closed_form(params: HaKyeParams) -> np.ndarray:
    """Sorted eigenvalue multiset of the partial transpose; see hakye_spectra_closed_form."""
    return hakye_spectra_closed_form(params.column())[1][0]


def cos_family_params(theta: np.ndarray) -> np.ndarray:
    """The (4, n) array a = (4/3) cos(theta), b = (2/3) cos(theta), c = 0, theta
    over a 1-D theta array; InvalidParams names the first non-finite theta."""
    bad = ~np.isfinite(theta)
    if bad.any():
        raise InvalidParams(f"theta must be finite, got {theta[np.argmax(bad)].item()!r}")
    # math.cos, not numpy's: that may differ in the last bit
    ct = np.array(list(map(math.cos, theta.tolist())), dtype=np.float64)
    return np.array([4.0 * ct / 3.0, 2.0 * ct / 3.0, np.zeros_like(ct), theta])


def reference_violation_params(theta: float = math.pi / 12.0) -> HaKyeParams:
    """The cos_family_params point at theta.

    At the default theta = pi/12 this is the standard instance whose SPA
    fails the partial-transpose test: the witness and its partial transpose
    have bottom eigenvalues near -0.6440 and -0.7286 respectively.
    """
    return HaKyeParams(*cos_family_params(np.array([theta], dtype=np.float64))[:, 0].tolist())
