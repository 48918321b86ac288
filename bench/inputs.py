"""Seeded inputs for the four benchmark workloads.

Everything here uses numpy and the standard library only and never imports
the package under test, so the inputs stay the same when the package
changes.  ``build(workload, seed, directory)`` writes the operator files a
workload needs into ``directory`` and returns its manifest: the inputs with
the expectations the output checks need, and one *pass* of ops.  A pass is
the fixed sequence of CLI calls a run repeats; runs stop only at pass
boundaries, so every run sees the same mix of inputs.

Operator files follow the package's schema version 1 (row-major
``[real, imag]`` cells).  Floats are written as shortest round-trip
decimals, so the program reads back exactly the matrix generated here.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("scan", "analyze", "cmax", "geometry")

SCAN_POINTS = 4096
SCAN_GRID_SIDE = 8
GEOMETRY_SAMPLES = 100
PRODUCT_SAMPLES = 256
REFERENCE_THETA = math.pi / 12.0
HALF_PI = math.pi / 2.0

# Random sigma - c*I operators for `analyze`, and densities for `cmax`.
ANALYZE_DIMS = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))
CMAX_DIMS = ((2, 2), (2, 3), (3, 3), (3, 4))
CMAX_BASE_SEED = 20120101
# Random cos-family Ha-Kye points besides the theta = pi/12 reference.
HAKYE_RANDOM_POINTS = 3

_HAKYE_DIAGONAL = ("a", "c", "b", "b", "a", "c", "c", "b", "a")
_HAKYE_COUPLINGS = ((0, 4), (4, 8), (8, 0))


def hakye_matrix(a: float, b: float, c: float, theta: float) -> np.ndarray:
    """Dense 9x9 Ha-Kye witness W[a, b, c; theta] in A-major product order."""
    values = {"a": a, "b": b, "c": c}
    m = np.zeros((9, 9), dtype=np.complex128)
    for idx, key in enumerate(_HAKYE_DIAGONAL):
        m[idx, idx] = values[key]
    coupling = -np.exp(1j * theta)
    for r, s in _HAKYE_COUPLINGS:
        m[r, s] = coupling
        m[s, r] = np.conj(coupling)
    return m


def cos_family(theta: float) -> tuple[float, float, float, float]:
    """The slice a = (4/3) cos(theta), b = (2/3) cos(theta), c = 0."""
    ct = math.cos(theta)
    return 4.0 * ct / 3.0, 2.0 * ct / 3.0, 0.0, theta


def swap_matrix(d: int) -> np.ndarray:
    """The swap operator on C^d (x) C^d, a decomposable witness."""
    m = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            m[i * d + j, j * d + i] = 1.0
    return m


def partial_transpose(m: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """Transpose the second tensor factor by reshaping."""
    return m.reshape(dA, dB, dA, dB).transpose(0, 3, 2, 1).reshape(dA * dB, dA * dB)


def haar_vectors(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unit vectors in C^d, one per row."""
    z = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def hs_density(dA: int, dB: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random density G G^dag / tr, G complex Gaussian."""
    d = dA * dB
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def separable_density(dA: int, dB: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet mixture of `rank` product projectors: rank-deficient for rank < dAB."""
    weights = rng.dirichlet(2.0 * np.ones(rank))
    joint = np.einsum(
        "ni,nj->nij", haar_vectors(rank, dA, rng), haar_vectors(rank, dB, rng)
    ).reshape(rank, dA * dB)
    m = np.einsum("n,ni,nj->ij", weights, joint, joint.conj())
    m = (m + m.conj().T) / 2.0
    return m / np.trace(m).real


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary (QR of a complex Gaussian, phases fixed)."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def local_rotation(m: np.ndarray, dA: int, dB: int, rng: np.random.Generator) -> np.ndarray:
    """(U_A (x) U_B) m (U_A (x) U_B)^dag for Haar-random local unitaries.

    Local unitaries keep the spectrum and the product-state infimum, so a
    rotated density poses the same c_max problem in another frame.
    """
    u = np.kron(haar_unitary(dA, rng), haar_unitary(dB, rng))
    out = u @ m @ u.conj().T
    return (out + out.conj().T) / 2.0


def cmax_base_densities() -> list[tuple[str, np.ndarray, int, int]]:
    """The seed-independent density pool that `cmax` rotates per seed.

    Per dimension pair: Hilbert-Schmidt densities, and separable mixtures
    of rank 1, dAB/2 and dAB - 1.  The see-saw's cost depends strongly on the
    density, so every seed gets the same pool in a new local frame, and runs
    with different seeds do comparable work.
    """
    rng = np.random.default_rng(CMAX_BASE_SEED)
    pool = []
    for dA, dB in CMAX_DIMS:
        for k, rank in enumerate((1, dA * dB // 2, dA * dB - 1)):
            pool.append((f"hs-{dA}x{dB}-{k}", hs_density(dA, dB, rng), dA, dB))
            pool.append((f"sep-rank{rank}-{dA}x{dB}", separable_density(dA, dB, rank, rng), dA, dB))
    return pool


def sigma_form(w: np.ndarray) -> np.ndarray:
    """The density sigma = gamma*W + c*I of a witness matrix W.

    gamma = 1 / (tr W + dAB*(|lam| + eps)) and c = gamma*(|lam| + eps), with
    lam the bottom eigenvalue of W and eps = 1e-6 * ||W||_HS: the unit-trace,
    strictly positive separable-state form of W.
    """
    d = w.shape[0]
    lam = float(np.linalg.eigvalsh(w)[0])
    eps = 1e-6 * float(np.linalg.norm(w))
    gamma = 1.0 / (float(np.trace(w).real) + d * (abs(lam) + eps))
    return gamma * w + gamma * (abs(lam) + eps) * np.eye(d)


def product_sample_min(
    m: np.ndarray, dA: int, dB: int, n: int, rng: np.random.Generator
) -> float:
    """Minimum of <mu nu|m|mu nu> over n Haar-random product vectors."""
    joint = np.einsum(
        "ni,nj->nij", haar_vectors(n, dA, rng), haar_vectors(n, dB, rng)
    ).reshape(n, dA * dB)
    values = np.einsum("ni,ij,nj->n", joint.conj(), m, joint).real
    return float(values.min())


def write_operator(path: Path, m: np.ndarray, dA: int, dB: int, label: str) -> None:
    """Write an operator file (schema version 1)."""
    doc = {
        "schema_version": 1,
        "dims": {"dA": dA, "dB": dB},
        "entries": [[[z.real, z.imag] for z in row] for row in m.tolist()],
        "metadata": {"label": label},
    }
    path.write_text(json.dumps(doc, allow_nan=False) + "\n", encoding="utf-8")


def read_operator(path: Path) -> np.ndarray:
    """Read the matrix of an operator file written by write_operator."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    cells = np.array(doc["entries"], dtype=np.float64)
    return cells[..., 0] + 1j * cells[..., 1]


def _witness_expect(m: np.ndarray, dA: int, dB: int) -> dict:
    return {
        "lambda0": float(np.linalg.eigvalsh(m)[0]),
        "lambda0_pt": float(np.linalg.eigvalsh(partial_transpose(m, dA, dB))[0]),
        "scale": max(1.0, float(np.linalg.norm(m))),
    }


def _add_input(inputs: list, directory: Path, name: str, m, dA, dB, expect) -> int:
    path = directory / f"{name}.json"
    write_operator(path, m, dA, dB, name)
    inputs.append(
        {"name": name, "file": path.as_posix(), "dims": [dA, dB], "expect": expect}
    )
    return len(inputs) - 1


def witness_pool(rng: np.random.Generator, directory: Path, inputs: list) -> list[int]:
    """Genuine witnesses: cos-family Ha-Kye points (pi/12 first) and the 2x2 swap."""
    thetas = [REFERENCE_THETA] + sorted(
        float(t) for t in rng.uniform(0.05, 1.2, HAKYE_RANDOM_POINTS)
    )
    indices = []
    for k, theta in enumerate(thetas):
        m = hakye_matrix(*cos_family(theta))
        name = "hakye-ref" if k == 0 else f"hakye-{k}"
        indices.append(_add_input(inputs, directory, name, m, 3, 3, _witness_expect(m, 3, 3)))
    swap = swap_matrix(2)
    indices.append(_add_input(inputs, directory, "swap-2x2", swap, 2, 2, _witness_expect(swap, 2, 2)))
    return indices


def _axis_spec(key: str, axis: list) -> str:
    return f"{key}={axis[0]!r}:{axis[1]!r}:{axis[2]}"


def _scan_ops(rng: np.random.Generator, directory: Path, inputs: list) -> list[dict]:
    # The cos-family slice stops at pi/2: beyond it a < 0 and the CLI rejects
    # the grid.  The four-axis grid mixes VIOLATES and CONSISTENT rows.
    cos_axis = [float(rng.uniform(0.0, 0.01)), HALF_PI, SCAN_POINTS]
    n = SCAN_GRID_SIDE
    grid_axes = {
        "a": [0.0, float(rng.uniform(1.9, 2.1)), n],
        "b": [0.0, float(rng.uniform(1.9, 2.1)), n],
        "c": [float(rng.uniform(0.1, 0.2)), float(rng.uniform(1.9, 2.1)), n],
        "theta": [0.0, float(rng.uniform(3.0, 3.14)), n],
    }
    grid_argv = ["hakye"]
    for key, axis in grid_axes.items():
        grid_argv += ["--scan", _axis_spec(key, axis)]
    families = {
        "cos": (
            ["hakye", "--cos-family", "--scan", _axis_spec("theta", cos_axis)],
            {"cos_family": cos_axis},
        ),
        "grid": (grid_argv, {"axes": grid_axes}),
    }
    order = (("cos", "csv"), ("grid", "json"), ("cos", "json"), ("grid", "csv"))
    return [
        {
            "argv": families[family][0] + ["--format", fmt, "--reproducible"],
            "items": SCAN_POINTS,
            "label": f"{family}-{fmt}",
            "check": {"kind": "scan", "format": fmt, "grid": families[family][1]},
        }
        for family, fmt in order
    ]


def _analyze_ops(rng: np.random.Generator, directory: Path, inputs: list) -> list[dict]:
    pool = witness_pool(rng, directory, inputs)
    for dA, dB in ANALYZE_DIMS:
        sigma = hs_density(dA, dB, rng)
        c = float(np.linalg.eigvalsh(sigma)[0]) + float(rng.uniform(0.2, 1.0)) / (dA * dB)
        m = sigma - c * np.eye(dA * dB)
        expect = _witness_expect(m, dA, dB)
        pool.append(_add_input(inputs, directory, f"sigma-minus-c-{dA}x{dB}", m, dA, dB, expect))
    # Every input under each of the four output variants, one block per variant.
    ops = []
    for as_json, assert_onew in ((False, False), (True, True), (False, True), (True, False)):
        for idx in pool:
            argv = ["analyze", inputs[idx]["file"], "--reproducible"]
            argv += ["--json"] if as_json else []
            argv += ["--assert-onew"] if assert_onew else []
            check = {"kind": "analyze", "input": idx, "json": as_json, "assert_onew": assert_onew}
            ops.append({"argv": argv, "items": 1, "label": inputs[idx]["name"], "check": check})
    return ops


def _cmax_ops(rng: np.random.Generator, directory: Path, inputs: list) -> list[dict]:
    # The reference sigma is not rotated, so its kernel count is comparable
    # across seeds.
    pool = [("sigma-hakye-ref", sigma_form(hakye_matrix(*cos_family(REFERENCE_THETA))), 3, 3)]
    for name, m, dA, dB in cmax_base_densities():
        pool.append((name, local_rotation(m, dA, dB, rng), dA, dB))
    ops = []
    for name, m, dA, dB in pool:
        expect = {
            "lambda_min": float(np.linalg.eigvalsh(m)[0]),
            "sample_min": product_sample_min(m, dA, dB, PRODUCT_SAMPLES, rng),
        }
        idx = _add_input(inputs, directory, name, m, dA, dB, expect)
        argv = ["cmax", inputs[idx]["file"], "--json", "--reproducible"]
        ops.append({"argv": argv, "items": 1, "label": name, "check": {"kind": "cmax", "input": idx}})
    return ops


def _geometry_ops(rng: np.random.Generator, directory: Path, inputs: list) -> list[dict]:
    ops = []
    for idx in witness_pool(rng, directory, inputs):
        argv = ["geometry", inputs[idx]["file"], "--samples", str(GEOMETRY_SAMPLES),
                "--seed", str(int(rng.integers(0, 2**31))), "--reproducible"]
        check = {"kind": "geometry", "input": idx, "samples": GEOMETRY_SAMPLES}
        ops.append({"argv": argv, "items": 1 + 2 * GEOMETRY_SAMPLES, "label": inputs[idx]["name"], "check": check})
    return ops


def build(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's input files for `seed` and return its manifest."""
    builders = {"scan": _scan_ops, "analyze": _analyze_ops, "cmax": _cmax_ops, "geometry": _geometry_ops}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    inputs: list[dict] = []
    ops = builders[workload](rng, directory, inputs)
    return {"workload": workload, "seed": seed, "inputs": inputs, "ops": ops}
