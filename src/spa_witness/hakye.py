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

Both closed forms are exposed, and certify_spectra proves them against the
dense matrices hakye_matrices builds, with no eigensolve: a Weyl bound on
how far each closed-form eigenvalue can lie from the true one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .operators import DEFAULT_EIG_TOL, Dims, HermitianOperator, entry_scale

HAKYE_DIMS = Dims(3, 3)

_DIAGONAL_PATTERN = ("a", "c", "b", "b", "a", "c", "c", "b", "a")
_FORWARD_COUPLINGS = ((0, 4), (4, 8), (8, 0))

# certify_spectra's index sets.  The corner block {0, 4, 8}, row-major; the
# first row of a circulant C[j, l] = c[(l - j) % 3] at each of its places.
_CORNERS, _OTHERS = [0, 4, 8], [1, 2, 3, 5, 6, 7]
_CORNER_ROWS, _CORNER_COLS = np.repeat(_CORNERS, 3), np.tile(_CORNERS, 3)
_CIRCULANT = [0, 1, 2, 2, 0, 1, 1, 2, 0]
# W^Gamma's 2x2 blocks (i, j) read from W: diagonals W[i, i], W[j, j] and
# corner W^Gamma[i, j] = W[r, s], with W^Gamma[j, i] = W[s, r]
_BLOCK_I, _BLOCK_J, _BLOCK_R, _BLOCK_S = [1, 2, 5], [3, 6, 7], [0, 0, 4], [4, 8, 8]
# the diagonal and the six couplings; every other entry is "outside"
_INSIDE_ROWS = [*range(9), *_BLOCK_R, *_BLOCK_S]
_INSIDE_COLS = [*range(9), *_BLOCK_S, *_BLOCK_R]
# real and imaginary parts of w^k for k = 0, 1, 2, w = e^(2 pi i / 3):
# sqrt(3)/2 rounded once, the rest exact
_OMEGA_RE = np.array([1.0, -0.5, -0.5])
_OMEGA_IM = np.array([0.0, math.sqrt(3.0) / 2.0, -math.sqrt(3.0) / 2.0])
# the rounding term of each side, in units of max(1, ||W||_F); see certify_spectra
_ROUNDING = 16 * 2.0**-53


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


def certify_spectra(
    m: np.ndarray, spectra: np.ndarray, spectra_pt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A bound e per matrix of an (n, 9, 9) stack m, proved without an
    eigensolve, such that the k-th smallest eigenvalue of m lies within e of
    spectra[:, k] and that of m^Gamma within e of spectra_pt[:, k], for
    every k; and whether e <= DEFAULT_EIG_TOL * max(1, ||m||_F), the relative
    tolerance eigh_checked holds residuals to.  m means its Hermitian part
    (m + m^H)/2 here, which is m itself for the stacks hakye_matrices builds.

    Weyl's inequality: for Hermitian A and E, |lambda_k(A + E) - lambda_k(A)|
    <= ||E||_2 <= ||E||_F (Parlett, The Symmetric Eigenvalue Problem).  Each
    side splits its matrix into a part whose eigenvalues have an exact
    formula and a rest E, then compares those eigenvalues, sorted, with the
    claimed ones; e is the W side plus the W^Gamma side:

    - W: its corner block on rows {0, 4, 8} is the circulant with first row
      (w00, w04, w08) plus a remainder N.  F, the 3-point Fourier basis on
      the corner rows and the identity elsewhere, is unitary and
      diagonalises the circulant, with eigenvalues w00 + 2 Re(w04 w^k),
      w = e^(2 pi i / 3), after taking Hermitian parts.  So F^H W F minus
      the diagonal of those and W's other diagonal entries is F^H E F, with
      E = N and the entries outside the diagonal and the six couplings, and
      its Frobenius norm is ||E||_F.  The W side is ||E||_F plus the largest
      gap between the nine diagonal values, sorted, and spectra.  F is
      applied in closed form, never as a rounded product, so it has no
      unitarity defect to add: its only rounded entry, Im w, is part of the
      rounding term.
    - W^Gamma: its 2x2 blocks (1,3), (2,6), (5,7) have the exact eigenvalues
      (p+q)/2 +- sqrt(((p-q)/2)^2 + |x|^2), and its corner diagonal entries
      are eigenvalues of their own.  Its entries outside the blocks and the
      corner diagonal are W's outside entries, permuted by the partial
      transpose.  The W^Gamma side is their Frobenius norm plus the largest
      gap between those nine values, sorted, and spectra_pt.

    Rounding.  Each side adds 16u max(1, ||W||_F), u = 2^-53 the unit
    roundoff.  The circulant's eigenvalues carry at most 9u ||W||_F (Im w,
    two products, three sums), the 2x2 formula at most 11u ||W||_F, and
    the scaling below, the division of the claims and the gap's
    subtraction u each (2u for the gap, on the W side).  Errors of
    relative size u in the norms and the comparisons are below
    u * DEFAULT_EIG_TOL of the scale wherever the tolerance holds.

    Overflow.  Each matrix is divided by s = entry_scale(m), the scale
    eigh_checked divides by, so no square overflows; e is worked out for
    m/s and multiplied back by s, and stays finite for finite input.  Only
    +, -, *, / and sqrt run elementwise, and the sums run along each
    matrix's own row, so a matrix's bound has the same bits in a stack of
    any size.
    """
    n = len(m)
    parts = np.ascontiguousarray(m).view(np.float64).reshape(n, 162)
    s = entry_scale(m)
    sc = s[:, None]
    scaled = parts / sc
    x = scaled.view(np.complex128).reshape(n, 9, 9)  # m / s
    # the W side's nine values: the corner circulant's eigenvalues, and the
    # diagonal outside the corners; and the circulant's remainder
    corner = x[:, _CORNER_ROWS, _CORNER_COLS]
    rest = corner - corner[:, _CIRCULANT]
    h = (corner[:, 1] + np.conj(corner[:, 2])) / 2.0
    h_omega = h.real[:, None] * _OMEGA_RE - h.imag[:, None] * _OMEGA_IM  # Re(h w^k)
    circulant = corner[:, :1].real + 2.0 * h_omega
    diagonal = np.hstack([circulant, x[:, _OTHERS, _OTHERS].real])
    # the W^Gamma side's nine values: the eigenvalues of the 2x2 blocks, and
    # the corner diagonal
    p, q = x[:, _BLOCK_I, _BLOCK_I].real, x[:, _BLOCK_J, _BLOCK_J].real
    y = (x[:, _BLOCK_R, _BLOCK_S] + np.conj(x[:, _BLOCK_S, _BLOCK_R])) / 2.0
    mid = p / 2.0 + q / 2.0
    radius = np.sqrt(np.square((p - q) / 2.0) + np.square(y.real) + np.square(y.imag))
    values = np.hstack([mid - radius, mid + radius, x[:, _CORNERS, _CORNERS].real])
    # the squares overwrite the parts: the norm, then, with the inside
    # entries zeroed through the complex view x, the outside entries' norm
    squares = np.square(scaled, out=scaled)
    scale = np.maximum(1.0 / s, np.sqrt(squares.sum(axis=1)))  # max(1, ||m||_F) / s
    x[:, _INSIDE_ROWS, _INSIDE_COLS] = 0.0
    outside2 = squares.sum(axis=1)
    rest2 = np.square(rest.real).sum(axis=1) + np.square(rest.imag).sum(axis=1)
    side = np.sqrt(rest2 + outside2)
    side += np.abs(np.sort(diagonal, axis=1) - spectra / sc).max(axis=1)
    side_pt = np.sqrt(outside2) + np.abs(np.sort(values, axis=1) - spectra_pt / sc).max(axis=1)
    total = side + side_pt + 2.0 * _ROUNDING * scale
    return total * s, total <= DEFAULT_EIG_TOL * scale


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
