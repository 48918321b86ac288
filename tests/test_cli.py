"""Command line behavior: reports, formats, exit codes."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from conftest import full_rank_separable
from spa_witness.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_VIOLATION, main
from spa_witness.fileio import save_operator
from spa_witness.hakye import hakye_witness, reference_violation_params
from spa_witness.operators import Dims, make_hermitian, partial_transpose
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
        save_operator(make_hermitian(np.eye(4), Dims(2, 2)), path)
        code, _, err = run_cli(capsys, "analyze", str(path))
        assert code == EXIT_INPUT
        assert "not a witness candidate" in err

    def test_pt_invariant_witness_exits_clean(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        sym = h + partial_transpose(make_hermitian(h, Dims(2, 2))).entries
        lam = np.linalg.eigvalsh(sym)[0]
        sym -= (lam + 0.5) * np.eye(4)
        path = tmp_path / "sym.json"
        save_operator(make_hermitian(sym, Dims(2, 2)), path)
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
        assert out.startswith("# schema=hakye-scan-v1\r\n")

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
        assert doc["kind"] == "hakye-scan-v1"
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

    def test_bad_scan_spec(self, capsys):
        code, _, err = run_cli(capsys, "hakye", "--scan", "theta=0:1")
        assert code == EXIT_INPUT


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
        save_operator(make_hermitian(np.eye(4), Dims(2, 2)), path)
        code, _, err = run_cli(capsys, "cmax", str(path))
        assert code == EXIT_INPUT

    def test_unconverged_estimate_flagged(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        rho = full_rank_separable(Dims(2, 2), rng)
        path = tmp_path / "rho.json"
        save_operator(rho.op, path)
        code, out, _ = run_cli(
            capsys,
            "cmax", str(path), "--json", "--reproducible",
            "--restarts", "2", "--max-iter", "0",
        )
        assert code == EXIT_NUMERIC
        assert json.loads(out)["converged"] is False


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
    @pytest.mark.parametrize("command", ["analyze", "geometry"])
    def test_non_finite_entry_rejected(self, capsys, tmp_path, command):
        path = _write_non_finite(tmp_path / "inf.json")
        code, out, err = run_cli(capsys, command, str(path), "--reproducible")
        assert code == EXIT_INPUT
        assert "NaN" not in out and "Traceback" not in err
        assert "row 0, column 0" in err

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

    def test_geometry_samples_validated(self, capsys, reference_file):
        code, out, err = run_cli(
            capsys, "geometry", str(reference_file), "--samples", "0"
        )
        assert code == EXIT_INPUT
        assert out == ""
        assert "samples" in err

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
