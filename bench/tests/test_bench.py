"""Tests of the benchmark itself: inputs, output checks, tracer, metric names.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, per_layer_units  # noqa: E402

from spa_witness import cli  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return out.getvalue(), rc


def _snapshot(manifest: dict, directory: Path) -> tuple[str, dict]:
    """Manifest with the directory name removed, and every file's bytes."""
    text = json.dumps(manifest).replace(directory.as_posix(), "DIR")
    return text, {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload, tmp_path):
    builds = {
        name: _snapshot(inputs.build(workload, seed, tmp_path / name), tmp_path / name)
        for name, seed in (("a", 7), ("b", 7), ("c", 8))
    }
    assert builds["a"] == builds["b"]
    assert builds["a"] != builds["c"]


def _scan_op(fmt: str) -> dict:
    return {
        "argv": ["hakye", "--scan", "a=0.0:2.0:2", "--scan", "b=0.0:2.0:2", "--scan", "c=0.1:2.0:2",
                 "--scan", "theta=0.0:3.0:3", "--format", fmt, "--reproducible"],
        "check": {"kind": "scan", "format": fmt,
                  "grid": {"axes": {"a": [0.0, 2.0, 2], "b": [0.0, 2.0, 2], "c": [0.1, 2.0, 2], "theta": [0.0, 3.0, 3]}}},
    }


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_check_accepts_real_output_and_rejects_corruption(fmt):
    op = _scan_op(fmt)
    stdout, rc = _cli(op["argv"])
    spec = op["check"]
    assert checks.check_scan(spec, stdout, rc) is None
    assert rc == 3  # the grid holds VIOLATES rows

    assert "exit code" in checks.check_scan(spec, stdout, 0)
    if fmt == "json":
        doc = json.loads(stdout)
        doc["rows"][5]["lambda0_W"] += 1e-7
        assert "lambda0_W" in checks.check_scan(spec, json.dumps(doc), rc)
        doc = json.loads(stdout)
        doc["rows"][2]["verdict"] = "oracle-mismatch"
        assert "oracle-mismatch" in checks.check_scan(spec, json.dumps(doc), rc)
        doc = json.loads(stdout)
        doc["rows"].pop()
        assert "rows" in checks.check_scan(spec, json.dumps(doc), rc)
    else:
        lines = stdout.splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        cells = lines[header + 3].split(",")
        cells[5] = repr(float(cells[5]) - 1e-7)  # lambda0_WGamma column
        lines[header + 3] = ",".join(cells)
        assert "lambda0_WGamma" in checks.check_scan(spec, "\n".join(lines), rc)


def test_scan_check_recomputes_the_cos_family():
    spec = {"kind": "scan", "format": "csv", "grid": {"cos_family": [0.0, inputs.HALF_PI, 17]}}
    stdout, rc = _cli(["hakye", "--cos-family", "--scan", f"theta=0.0:{inputs.HALF_PI!r}:17", "--reproducible"])
    assert checks.check_scan(spec, stdout, rc) is None
    wrong = {"kind": "scan", "format": "csv", "grid": {"cos_family": [0.0, 1.5, 17]}}
    assert checks.check_scan(wrong, stdout, rc) is not None


def _witness_input(directory: Path, m: np.ndarray, dA: int, dB: int) -> tuple[str, dict]:
    path = directory / "w.json"
    inputs.write_operator(path, m, dA, dB, "w")
    return str(path), inputs._witness_expect(m, dA, dB)


@pytest.mark.parametrize("as_json", [False, True])
def test_analyze_check_accepts_real_output_and_rejects_corruption(as_json, tmp_path):
    path, expect = _witness_input(tmp_path, inputs.hakye_matrix(*inputs.cos_family(inputs.REFERENCE_THETA)), 3, 3)
    argv = ["analyze", path, "--reproducible"] + (["--json"] if as_json else [])
    stdout, rc = _cli(argv)
    spec = {"kind": "analyze", "json": as_json, "assert_onew": False}
    assert rc == 3
    assert checks.check_analyze(spec, expect, stdout, rc) is None

    assert "exit code" in checks.check_analyze(spec, expect, stdout, 0)
    off = dict(expect, lambda0=expect["lambda0"] + 1e-6)
    assert "lambda0_W" in checks.check_analyze(spec, off, stdout, rc)
    if as_json:
        doc = json.loads(stdout)
        doc["conclusion"] = "VIOLATES"  # not allowed without --assert-onew
        assert "conclusion" in checks.check_analyze(spec, expect, json.dumps(doc), rc)
    else:
        corrupted = re.sub(r"^(condition_holds\s+)true", r"\1false", stdout, flags=re.M)
        assert corrupted != stdout
        assert checks.check_analyze(spec, expect, corrupted, rc) is not None


def test_cmax_check_accepts_real_output_and_rejects_corruption(tmp_path):
    rng = np.random.default_rng(3)
    sigma = inputs.hs_density(2, 2, rng)
    path = tmp_path / "s.json"
    inputs.write_operator(path, sigma, 2, 2, "s")
    expect = {
        "lambda_min": float(np.linalg.eigvalsh(sigma)[0]),
        "sample_min": inputs.product_sample_min(sigma, 2, 2, inputs.PRODUCT_SAMPLES, rng),
    }
    stdout, rc = _cli(["cmax", str(path), "--json", "--reproducible", "--restarts", "4"])
    spec = {"kind": "cmax", "input": 0}
    assert checks.check_cmax(spec, expect, sigma, stdout, rc) is None

    doc = json.loads(stdout)
    below = dict(expect, sample_min=doc["value"] - 1e-6)
    assert "sampled product minimum" in checks.check_cmax(spec, below, sigma, stdout, rc)
    assert "exit code" in checks.check_cmax(spec, expect, sigma, stdout, 2)
    raised = dict(doc, value=doc["value"] + 1e-9)
    assert "argmin" in checks.check_cmax(spec, expect, sigma, json.dumps(raised), rc)
    unconverged = dict(doc, converged=False)
    assert "converge" in checks.check_cmax(spec, expect, sigma, json.dumps(unconverged), rc)


def test_geometry_check_accepts_real_output_and_rejects_corruption(tmp_path):
    path, expect = _witness_input(tmp_path, inputs.swap_matrix(2), 2, 2)
    stdout, rc = _cli(["geometry", path, "--samples", "5", "--seed", "4", "--reproducible"])
    spec = {"kind": "geometry", "input": 0, "samples": 5}
    assert checks.check_geometry(spec, expect, 4, stdout, rc) is None

    assert "rows" in checks.check_geometry(dict(spec, samples=6), expect, 4, stdout, rc)
    assert "ground projector" in checks.check_geometry(spec, dict(expect, lambda0=-0.9), 4, stdout, rc)
    lines = stdout.splitlines()
    last = lines[-1].split(",")
    last[2] = "-0.01"  # a separable row cannot be NPT
    assert "separable" in checks.check_geometry(spec, expect, 4, "\n".join(lines[:-1] + [",".join(last)]), rc)
    last = lines[-1].split(",")
    last[3] = "1.5"
    assert "purity" in checks.check_geometry(spec, expect, 4, "\n".join(lines[:-1] + [",".join(last)]), rc)


def test_tracer_counts_kernels_per_op_and_restores_names(tmp_path):
    path, _ = _witness_input(tmp_path, inputs.hakye_matrix(*inputs.cos_family(inputs.REFERENCE_THETA)), 3, 3)
    original = (cli.main, np.linalg.eigh, cli.spa_violation_from_gap)
    tracer = Tracer()
    tracer.install()
    try:
        for op_id in range(2):
            tracer.begin_op(op_id)
            stdout, _ = _cli(["analyze", path, "--reproducible"])
            tracer.end_op(len(stdout))
    finally:
        tracer.uninstall()
    assert (cli.main, np.linalg.eigh, cli.spa_violation_from_gap) == original
    metrics = tracer.metrics(2)
    assert metrics["linalg.eigh_per_op"] == 6
    assert metrics["linalg.eigvalsh_per_op"] == 2
    assert metrics["spa.spa.calls_per_op"] == 2
    assert metrics["cli.self_ms_per_op"] > 0
    assert tracer.kernel_counts(["ref"]) == {"ref": {"eigh": 6, "eigvalsh": 2}}
    _, self_time = tracer.self_times()
    assert (self_time >= 0).all()


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
