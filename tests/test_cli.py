"""Command line behavior: reports, formats, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import spa_witness
from conftest import full_rank_separable
from spa_witness.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_VIOLATION, main
from spa_witness.fileio import save_operator
from spa_witness.hakye import hakye_witness, reference_violation_params
from spa_witness.operators import Dims, HermitianOperator, partial_transpose
from spa_witness.scan import DEFAULT_CONDITION_TOL
from spa_witness.states import maximally_mixed


@pytest.fixture()
def reference_file(tmp_path):
    path = tmp_path / "reference.json"
    save_operator(hakye_witness(reference_violation_params()), path)
    return path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_reference_json_report(self, capsys, reference_file):
        code, out, _ = run_cli(
            capsys,
            "analyze", str(reference_file), "--json", "--reproducible",
            "--assert-onew",
        )
        assert code == EXIT_VIOLATION
        report = json.loads(out)
        assert report["kind"] == "witness-analysis"
        assert "generated" not in report
        assert report["dims"] == {"dA": 3, "dB": 3}
        assert report["lambda0_W"] == pytest.approx(-0.6439505508593788, abs=1e-10)
        assert report["lambda0_WGamma"] == pytest.approx(-0.7285808049334792, abs=1e-10)
        assert report["gap"] == pytest.approx(0.08463025407410041, abs=1e-10)
        assert report["condition_holds"] is True
        assert report["npt_side"] == "direct"
        assert report["conclusion"] == "VIOLATES"
        direct = report["spa"]["direct"]
        assert direct["min_pt_eigenvalue_raw"] == pytest.approx(-0.0846302540741, abs=1e-9)
        assert direct["ppt_status"] == "NPT-entangled"
        partner = report["spa"]["partial_transpose"]
        assert partner["min_pt_eigenvalue_raw"] == pytest.approx(0.0846302540741, abs=1e-9)
        assert partner["ppt_status"] == "PPT"

    def test_without_assertion_is_inconclusive(self, capsys, reference_file):
        code, out, _ = run_cli(
            capsys, "analyze", str(reference_file), "--json", "--reproducible"
        )
        assert code == EXIT_VIOLATION
        report = json.loads(out)
        assert report["conclusion"] == "INCONCLUSIVE"
        assert "assertion" in report["assertion_note"]

    def test_human_format(self, capsys, reference_file):
        code, out, _ = run_cli(capsys, "analyze", str(reference_file), "--reproducible")
        assert code == EXIT_VIOLATION
        assert "conclusion" in out
        assert "npt_side" in out
        assert "generated" not in out

    def test_timestamp_present_by_default(self, capsys, reference_file):
        _, out, _ = run_cli(capsys, "analyze", str(reference_file))
        assert "generated" in out

    def test_positive_matrix_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "pos.json"
        save_operator(HermitianOperator(Dims(2, 2), np.eye(4)), path)
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert "not a witness candidate" in err

    def test_huge_swap_keeps_its_verdict(self, capsys, tmp_path):
        # squared entries overflow, so the stacked solve's check must scale
        path = tmp_path / "swap.json"
        save_operator(HermitianOperator(Dims(2, 2), 1e200 * np.eye(4)[[0, 2, 1, 3]]), path)
        code, out, err = run_cli(
            capsys, "analyze", str(path), "--json", "--reproducible", "--assert-onew"
        )
        assert (code, err) == (EXIT_VIOLATION, "")
        report = json.loads(out)
        assert (report["lambda0_W"], report["lambda0_WGamma"]) == (-1e200, 0.0)
        assert report["npt_side"] == "partial-transpose"
        assert report["conclusion"] == "VIOLATES"

    def test_overflowing_eigenvalue_names_its_matrix(self, capsys, tmp_path):
        # W^Gamma = 2|Phi+><Phi+| * 1.7e308 has the eigenvalue 3.4e308, which
        # overflows: its residual is nan and fails, without a numpy warning
        path = tmp_path / "swap.json"
        save_operator(HermitianOperator(Dims(2, 2), 1.7e308 * np.eye(4)[[0, 2, 1, 3]]), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "analyze", str(path))
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == "numerical failure: matrix (1,): eigenpair residual nan exceeds 3.400e+298\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_pt_invariant_witness_exits_clean(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        sym = h + partial_transpose(HermitianOperator(Dims(2, 2), h)).entries
        lam = np.linalg.eigvalsh(sym)[0]
        sym -= (lam + 0.5) * np.eye(4)
        path = tmp_path / "sym.json"
        save_operator(HermitianOperator(Dims(2, 2), sym), path)
        code, out, _ = run_cli(capsys, "analyze", str(path), "--json", "--reproducible")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["condition_holds"] is False
        assert report["conclusion"] == "CONSISTENT"
        assert report["npt_side"] is None

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope.json"))
        assert code == EXIT_INPUT
        assert "error" in err

    def test_corrupt_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_INPUT


class TestHakye:
    def test_single_point_flags(self, capsys):
        params = reference_violation_params()
        code, out, _ = run_cli(
            capsys,
            "hakye",
            "--a", repr(params.a), "--b", repr(params.b),
            "--c", "0.0", "--theta", repr(params.theta),
            "--reproducible",
        )
        assert code == EXIT_VIOLATION
        assert "VIOLATES" in out
        assert out.startswith("# schema=hakye-scan-v2\r\n")

    def test_cos_family_equals_explicit_flags(self, capsys):
        params = reference_violation_params()
        _, out_flags, _ = run_cli(
            capsys,
            "hakye",
            "--a", repr(params.a), "--b", repr(params.b),
            "--c", "0.0", "--theta", repr(params.theta),
            "--reproducible",
        )
        _, out_family, _ = run_cli(
            capsys,
            "hakye", "--cos-family", "--theta", repr(params.theta), "--reproducible",
        )
        assert out_flags == out_family

    def test_single_point_equals_degenerate_scan(self, capsys):
        theta = repr(math.pi / 12)
        _, out_point, _ = run_cli(
            capsys, "hakye", "--cos-family", "--theta", theta, "--reproducible"
        )
        _, out_scan, _ = run_cli(
            capsys,
            "hakye", "--cos-family", "--scan", f"theta={theta}:{theta}:1",
            "--reproducible",
        )
        assert out_point == out_scan

    def test_missing_parameters_listed(self, capsys):
        code, _, err = run_cli(capsys, "hakye", "--a", "1.0")
        assert code == EXIT_INPUT
        assert "--b" in err and "--c" in err and "--theta" in err

    def test_scan_json_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "scan.json"
        code, out, _ = run_cli(
            capsys,
            "hakye", "--cos-family", "--scan", "theta=0.1:0.5:4",
            "--format", "json", "--out", str(out_path), "--reproducible",
        )
        assert code == EXIT_VIOLATION
        assert out == ""
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["kind"] == "hakye-scan-v2"
        assert len(doc["rows"]) == 4
        assert len(doc["notes"]) == 2
        assert "generated" not in doc

    def test_consistent_scan_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hakye", "--a", "5.0", "--b", "4.0", "--c", "4.0", "--theta", "0.0",
            "--reproducible",
        )
        assert code == EXIT_OK
        assert "CONSISTENT" in out

    @pytest.mark.parametrize("weights", [("1e308",) * 3, ("1.7e308", "1", "1"), ("1e20",) * 3])
    def test_huge_weights_exit_alike_in_both_formats(self, capsys, weights):
        # (b + c) / 2 overflows to inf at 1e308; the closed form must not.
        # At 1e20 the closed-form gap is 0, inside a bound of about 1e6: the
        # row must not read CONSISTENT
        argv = ["hakye", *(f"--{k}={v}" for k, v in zip("abc", weights)), "--theta", "0.3"]
        code, out, err = run_cli(capsys, *argv, "--format", "json", "--reproducible")
        assert code == EXIT_NUMERIC
        assert err == "numerical failure: closed-form spectra not certified at 1 of 1 points\n"
        [row] = json.loads(out)["rows"]
        assert row["verdict"] == "certificate-failed"
        assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))
        assert abs(row["gap"] - DEFAULT_CONDITION_TOL) <= row["spectral_bound"]
        code_csv, _, err_csv = run_cli(capsys, *argv, "--format", "csv", "--reproducible")
        assert (code_csv, err_csv) == (code, err)

    def test_large_weight_is_certified(self, capsys):
        # an ulp of 1e8 is 1.5e-8; the bound is relative to ||W||_F, so this
        # correct point keeps its verdict
        code, out, err = run_cli(
            capsys, "hakye", "--a", "1e8", "--b", "1", "--c", "0", "--theta", "0.2",
            "--format", "json", "--reproducible",
        )
        assert (code, err) == (EXIT_VIOLATION, "")
        [row] = json.loads(out)["rows"]
        assert row["verdict"] == "VIOLATES"
        assert 0.0 < row["spectral_bound"] < 1e-5
        assert row["gap"] == pytest.approx((math.sqrt(5.0) - 1.0) / 2.0, abs=1e-15)

    def test_save_operator_single_point(self, capsys, tmp_path):
        op_path = tmp_path / "witness.json"
        code, _, _ = run_cli(
            capsys,
            "hakye", "--cos-family", "--theta", repr(math.pi / 12),
            "--save-operator", str(op_path), "--reproducible",
        )
        assert code == EXIT_VIOLATION
        code2, out2, _ = run_cli(
            capsys, "analyze", str(op_path), "--json", "--reproducible"
        )
        assert code2 == EXIT_VIOLATION
        report = json.loads(out2)
        assert report["label"].startswith("hakye a=")
        assert report["gap"] == pytest.approx(0.08463025407410041, abs=1e-10)

    def test_save_operator_rejects_scans(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "hakye", "--cos-family", "--scan", "theta=0.1:0.2:2",
            "--save-operator", str(tmp_path / "w.json"),
        )
        assert code == EXIT_INPUT
        assert "single grid point" in err

    def test_save_operator_not_written_when_the_command_fails(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        code, out, err = run_cli(
            capsys,
            "hakye", "--cos-family", "--theta", "0.3",
            "--save-operator", str(path), "--tol", "nan",
        )
        assert (code, out) == (EXIT_INPUT, "")
        assert "tolerance must be finite" in err
        assert not path.exists()

    def test_bad_scan_spec(self, capsys):
        code, _, err = run_cli(capsys, "hakye", "--scan", "theta=0:1")
        assert code == EXIT_INPUT

    @pytest.mark.parametrize("theta", ["nan", "inf"])
    def test_non_finite_cos_family_theta_rejected(self, capsys, theta):
        code, out, err = run_cli(capsys, "hakye", "--cos-family", "--theta", theta)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: theta must be finite, got {float(theta)!r}\n"

    def test_fixed_and_scanned_flag_rejected(self, capsys):
        code, out, err = run_cli(
            capsys,
            "hakye", "--a", "1", "--b", "1", "--c", "1", "--theta", "0.3",
            "--scan", "a=2:3:2",
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "both fixed and scanned" in err

    @pytest.mark.parametrize("spec, builder, message", [
        (["--cos-family", "--scan", "theta=0:1:100000000000"], "linspace",
         "Unable to allocate 745. GiB for an array with shape (100000000000,) "
         "and data type float64"),
        ([f"--scan={key}=1:2:2000" for key in "abc"] + ["--scan=theta=0:1:2000"], "meshgrid",
         ""),
    ], ids=["cos-family", "four-axis"])
    def test_grid_too_large_to_allocate_is_input_error(
        self, capsys, monkeypatch, spec, builder, message
    ):
        def fail(*args, **kwargs):  # stands in for the allocation; none is made
            raise MemoryError(message)

        monkeypatch.setattr(np, builder, fail)
        code, out, err = run_cli(capsys, "hakye", *spec, "--reproducible")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == f"error: {message or 'out of memory'}\n"


def test_hakye_and_analyze_import_no_random_numbers(tmp_path):
    """Neither hakye nor analyze draws a random number, so neither loads
    numpy.random, nor the secrets and _hashlib modules it imports; cmax
    loads it on its first draw."""
    witness, sigma = tmp_path / "w.json", tmp_path / "tau.json"
    save_operator(hakye_witness(reference_violation_params()), witness)
    save_operator(maximally_mixed(Dims(2, 2)).op, sigma)
    script = f"""
import contextlib, io, sys
from spa_witness.cli import main
RANDOM = ("numpy.random", "secrets", "_hashlib")
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["hakye", "--cos-family", "--scan", "theta=0.1:1.5:3", "--reproducible"]) == 3
    assert main(["analyze", {str(witness)!r}, "--reproducible"]) == 3
    assert not [m for m in RANDOM if m in sys.modules], [m for m in RANDOM if m in sys.modules]
    assert main(["cmax", {str(sigma)!r}, "--restarts", "2", "--reproducible"]) == 0
assert "numpy.random" in sys.modules
"""
    src = str(Path(spa_witness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


class TestCmax:
    def test_maximally_mixed_exact(self, capsys, tmp_path):
        path = tmp_path / "tau.json"
        save_operator(maximally_mixed(Dims(2, 3)).op, path)
        code, out, _ = run_cli(
            capsys, "cmax", str(path), "--json", "--reproducible", "--restarts", "4"
        )
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["kind"] == "cmax-estimate"
        assert abs(report["value"] - 1.0 / 6.0) < 1e-10
        assert report["converged"] is True
        assert len(report["argmin"]["mu_a"]) == 2
        assert len(report["argmin"]["nu_b"]) == 3

    def test_human_format(self, capsys, tmp_path):
        path = tmp_path / "tau.json"
        save_operator(maximally_mixed(Dims(2, 2)).op, path)
        code, out, _ = run_cli(
            capsys, "cmax", str(path), "--reproducible", "--restarts", "2"
        )
        assert code == EXIT_OK
        assert "value" in out and "argmin.mu_a" in out

    def test_non_density_rejected(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        save_operator(HermitianOperator(Dims(2, 2), np.eye(4)), path)
        code, _, err = run_cli(capsys, "cmax", str(path))
        assert code == EXIT_INPUT

    def test_lapack_failure_is_a_numerical_failure(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "tau.json"
        save_operator(maximally_mixed(Dims(2, 2)).op, path)

        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run_cli(capsys, "cmax", str(path), "--restarts", "2")
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numerical failure: eigensolver did not converge")

    def test_overflowing_refused_spectrum_is_a_numerical_failure(self, capsys, tmp_path):
        # unit trace, but the block [[x, x], [x, -x]] has eigenvalues
        # +-sqrt(2) x, past the float range: the factorisation refuses it,
        # and the checked eigh's residual test fails on the inf it returns
        x = 1.7e308
        m = np.diag([x, -x, 1.0, 0.0])
        m[0, 1] = m[1, 0] = x
        path = _save_matrix(tmp_path / "overflow.json", m, Dims(2, 2))
        code, out, err = run_cli(capsys, "cmax", str(path), "--reproducible")
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == "numerical failure: eigenpair residual nan exceeds 3.400e+298\n"

    def test_unconverged_estimate_flagged(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        rho = full_rank_separable(Dims(2, 2), rng)
        path = tmp_path / "rho.json"
        save_operator(rho.op, path)
        code, out, err = run_cli(
            capsys,
            "cmax", str(path), "--json", "--reproducible",
            "--restarts", "2", "--max-iter", "0",
        )
        assert code == EXIT_NUMERIC
        assert json.loads(out)["converged"] is False
        assert err == "numerical failure: see-saw did not converge in --max-iter 0 sweeps\n"


class TestGeometry:
    def test_csv_report(self, capsys, reference_file):
        code, out, _ = run_cli(
            capsys,
            "geometry", str(reference_file), "--samples", "5", "--reproducible",
        )
        assert code == EXIT_OK
        lines = out.split("\r\n")
        assert lines[0] == "# schema=witness-geometry-v1"
        assert lines[1].startswith("source,witness_value")
        body = [ln for ln in lines[2:] if ln]
        assert len(body) == 1 + 5 + 5
        assert body[0].startswith("ground-projector,")
        assert body[0].split(",")[-1] == "negative-side"

    def test_out_file_and_seed_determinism(self, capsys, reference_file, tmp_path):
        p1, p2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        for p in (p1, p2):
            code, _, _ = run_cli(
                capsys,
                "geometry", str(reference_file), "--samples", "4",
                "--seed", "7", "--reproducible", "--out", str(p),
            )
            assert code == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{witness}", "--assert-onew"],
        ["hakye", "--cos-family", "--scan", "theta=0.05:1.5:9"],
        ["cmax", "{density}", "--restarts", "2"],
        ["geometry", "{witness}", "--samples", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_run_no_eigvalsh(capsys, monkeypatch, tmp_path, reference_file, argv):
    density = tmp_path / "tau.json"
    save_operator(maximally_mixed(Dims(2, 3)).op, density)
    argv = [a.format(witness=reference_file, density=density) for a in argv]

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    expected = run_cli(capsys, *argv, "--reproducible")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert run_cli(capsys, *argv, "--reproducible") == expected
    assert expected[0] in (EXIT_OK, EXIT_VIOLATION)


def _write_non_finite(path):
    # 1e400 is a valid JSON number that parses to inf
    rows = [
        ["[1e400, 0.0]" if r == s == 0 else f"[{float(r == s)}, 0.0]" for s in range(4)]
        for r in range(4)
    ]
    body = ", ".join("[" + ", ".join(row) + "]" for row in rows)
    path.write_text(
        '{"schema_version": 1, "dims": {"dA": 2, "dB": 2}, "entries": [' + body + "]}",
        encoding="utf-8",
    )
    return path


class TestInvalidInput:
    @pytest.mark.parametrize("argv, message", [
        (["hakye", "--a", "notanumber", "--b", "1", "--c", "1", "--theta", "0"],
         "argument --a: invalid float value: 'notanumber'"),
        (["hakye", "--cos-family", "--theta", "-inf"], "argument --theta: expected one argument"),
        (["geometry"], "the following arguments are required: witness"),
    ], ids=["not-a-number", "option-like-value", "no-witness"])
    def test_usage_error_is_input_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"usage: spa-witness {argv[0]} [-h]")
        assert err.endswith(f"\nspa-witness {argv[0]}: error: {message}\n")

    @pytest.mark.parametrize("command", [[], ["geometry"]], ids=["top", "geometry"])
    def test_help_exits_clean(self, capsys, command):
        with pytest.raises(SystemExit) as exited:
            main([*command, "--help"])
        assert exited.value.code == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith(" ".join(["usage: spa-witness", *command, "[-h]"]))
        assert "options:" in out and err == ""

    @pytest.mark.parametrize("command", ["analyze", "geometry"])
    def test_non_finite_entry_rejected(self, capsys, tmp_path, command):
        path = _write_non_finite(tmp_path / "inf.json")
        code, out, err = run_cli(capsys, command, str(path), "--reproducible")
        assert code == EXIT_INPUT
        assert "NaN" not in out and "Traceback" not in err
        assert "row 0, column 0" in err

    @pytest.mark.parametrize(
        "content", [b"[" * 100000 + b"]" * 100000, b"\xff{}"], ids=["nested", "not-utf-8"]
    )
    @pytest.mark.parametrize("command", ["analyze", "cmax", "geometry"])
    def test_undecodable_file_is_one_parse_error(self, capsys, tmp_path, command, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, command, str(path))
        assert code == EXIT_INPUT
        assert out == ""
        assert err.startswith(f"error: {path}: invalid JSON: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("literal", ["NaN", "7", '["x"]'], ids=["nan", "number", "list"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_non_string_metadata_rejected(self, capsys, tmp_path, literal, flags):
        path = tmp_path / "labelled.json"
        save_operator(hakye_witness(reference_violation_params()), path, {"label": "<value>"})
        text = path.read_text(encoding="utf-8").replace('"<value>"', literal)
        path.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "analyze", str(path), "--reproducible", *flags)
        assert code == EXIT_INPUT
        assert out == ""
        kind = type(json.loads(literal)).__name__
        assert err == f"error: {path}: metadata 'label' must be a string, not {kind}\n"

    @pytest.mark.parametrize(
        "flags", [["--restarts", "0"], ["--max-iter", "-1"]], ids=["restarts", "max-iter"]
    )
    def test_cmax_counts_validated(self, capsys, tmp_path, flags):
        path = tmp_path / "tau.json"
        save_operator(maximally_mixed(Dims(2, 2)).op, path)
        code, out, err = run_cli(capsys, "cmax", str(path), *flags)
        assert code == EXIT_INPUT
        assert out == ""
        assert "restarts" in err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_cmax_tolerance_validated(self, capsys, tmp_path, tol):
        path = tmp_path / "tau.json"
        save_operator(maximally_mixed(Dims(2, 2)).op, path)
        code, out, err = run_cli(capsys, "cmax", str(path), "--tol", tol, "--reproducible")
        assert code == EXIT_INPUT
        assert out == ""
        assert "tolerance must be finite and >= 0" in err

    def test_geometry_density_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "tau.json"
        save_operator(maximally_mixed(Dims(2, 2)).op, path)
        code, out, err = run_cli(capsys, "geometry", str(path), "--samples", "3")
        assert code == EXIT_INPUT
        assert out == ""
        assert "minimum eigenvalue 0.25" in err
        assert "of the witness matrix is not negative: not a witness candidate" in err

    def test_geometry_samples_validated(self, capsys, reference_file):
        code, out, err = run_cli(
            capsys, "geometry", str(reference_file), "--samples", "0"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "samples" in err

    @pytest.mark.parametrize("command", ["cmax", "geometry"])
    def test_negative_seed_rejected(self, capsys, tmp_path, command):
        path = tmp_path / "tau.json"
        save_operator(maximally_mixed(Dims(2, 2)).op, path)
        code, out, err = run_cli(capsys, command, str(path), "--seed", "-1")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_hakye_tolerance_validated(self, capsys, tol):
        code, out, err = run_cli(
            capsys,
            "hakye", "--a", "5", "--b", "4", "--c", "4", "--theta", "0",
            "--tol", tol, "--reproducible",
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "tolerance" in err

    def test_analyze_tolerance_validated(self, capsys, reference_file):
        code, out, err = run_cli(capsys, "analyze", str(reference_file), "--tol", "nan")
        assert code == EXIT_INPUT
        assert out == ""
        assert "tolerance" in err


def _save_matrix(path, m, dims):
    save_operator(HermitianOperator(dims, np.asarray(m, dtype=complex)), path)
    return path


class TestOverflowingTrace:
    """A finite file whose trace, or its SPA's trace, sums past the float
    range: no normalized SPA floor can be formed from it, so analyze fails
    numerically instead of ruling on a floor divided by inf, and numpy's
    overflow warning never reaches stderr or escapes main."""

    OVERFLOW = "numerical failure: shifted operator has trace inf; cannot normalize\n"

    @pytest.fixture()
    def huge_file(self, tmp_path):
        diagonal = np.diag([9e307, 9e307, -1.0, 9e307])
        return _save_matrix(tmp_path / "huge.json", diagonal, Dims(2, 2))

    @staticmethod
    def swap_file(tmp_path, diagonal):
        """1e306 times the 2x2 swap plus diag(diagonal, 0, 0, diagonal)."""
        m = 1e306 * np.eye(4)[[0, 2, 1, 3]] + np.diag([diagonal, 0.0, 0.0, diagonal])
        return _save_matrix(tmp_path / f"swap-{diagonal!r}.json", m, Dims(2, 2))

    def run_strict(self, capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli(capsys, *argv)

    def test_analyze(self, capsys, huge_file):
        code, out, err = self.run_strict(capsys, "analyze", str(huge_file), "--reproducible")
        assert (code, out, err) == (EXIT_NUMERIC, "", self.OVERFLOW)

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_analyze_overflowing_spa_trace(self, capsys, tmp_path, fmt):
        # tr W = 2e306 + 2e308 overflows; at half that diagonal it does not
        path = self.swap_file(tmp_path, 1e308)
        code, out, err = self.run_strict(
            capsys, "analyze", str(path), "--assert-onew", "--reproducible", *fmt
        )
        assert (code, out, err) == (EXIT_NUMERIC, "", self.OVERFLOW)

    def test_analyze_finite_spa_trace_control(self, capsys, tmp_path):
        path = self.swap_file(tmp_path, 5e307)
        code, out, err = self.run_strict(
            capsys, "analyze", str(path), "--assert-onew", "--reproducible", "--json"
        )
        assert (code, err) == (EXIT_VIOLATION, "")
        report = json.loads(out)
        assert report["spa"]["partial_transpose"]["ppt_status"] == "NPT-entangled"
        assert (report["npt_side"], report["conclusion"]) == ("partial-transpose", "VIOLATES")

    def test_cmax(self, capsys, huge_file):
        code, out, err = self.run_strict(capsys, "cmax", str(huge_file), "--reproducible")
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: trace is inf, expected 1\n"

    def test_seeded_sweep_returns_documented_codes(self, tmp_path):
        """Random finite files, every other one with a same-sign diagonal
        near the float maximum; each command returns an exit code, and no
        warning escapes main as an exception."""
        rng = np.random.default_rng(23)
        commands = (["analyze"], ["cmax", "--restarts", "2"], ["geometry", "--samples", "3"])
        for k in range(24):
            dims = Dims(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            z = rng.standard_normal((2, dims.dAB, dims.dAB))
            g = z[0] + 1j * z[1]
            m = g + g.conj().T
            if k % 2:
                scale = rng.choice([-1.0, 1.0]) * sys.float_info.max
                np.fill_diagonal(m, scale * rng.uniform(0.5, 1.0, dims.dAB))
            path = _save_matrix(tmp_path / f"m{k}.json", m, dims)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for argv in commands:
                    code = main([*argv, str(path), "--reproducible"])
                    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERIC, EXIT_VIOLATION), (k, argv)
