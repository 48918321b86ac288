"""Grid scans: parsing, ordering, the oracle tripwire, deterministic emission."""

from __future__ import annotations

import importlib
import io
import math

import numpy as np
import pytest

from spa_witness.cli import EXIT_NUMERIC, main
from spa_witness.errors import ConvergenceFailure, InvalidGrid
from spa_witness.hakye import HaKyeParams, hakye_witness, reference_violation_params
from spa_witness.operators import eig_hermitian, partial_transpose
from spa_witness.scan import (
    DEFAULT_CONDITION_TOL,
    SCAN_COLUMNS,
    SCAN_SCHEMA,
    GridAxis,
    analyze_point,
    build_grid,
    SCAN_CHUNK,
    parse_grid_axis,
    run_scan,
    scan_report_json,
    write_rows_csv,
)

scan_module = importlib.import_module("spa_witness.scan")


class TestParseGridAxis:
    def test_round_trip(self):
        axis = parse_grid_axis("theta=0.1:0.9:5")
        assert axis == GridAxis("theta", 0.1, 0.9, 5)
        vals = axis.values()
        assert len(vals) == 5
        assert vals[0] == pytest.approx(0.1)
        assert vals[-1] == pytest.approx(0.9)

    def test_single_point_axis(self):
        axis = parse_grid_axis("a=2.0:3.0:1")
        assert list(axis.values()) == [2.0]

    @pytest.mark.parametrize(
        "text",
        [
            "theta",
            "theta=0:1",
            "theta=0:1:2:3",
            "d=0:1:2",
            "theta=x:1:2",
            "theta=0:1:x",
            "theta=0:1:0",
            "theta=inf:1:2",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(InvalidGrid):
            parse_grid_axis(text)


class TestBuildGrid:
    def test_axes_sorted_by_key(self):
        axes = [parse_grid_axis("theta=0:1:2"), parse_grid_axis("a=1:2:2")]
        points = build_grid(axes, {"b": 0.5, "c": 0.0})
        assert [(p.a, p.theta) for p in points] == [
            (1.0, 0.0),
            (1.0, 1.0),
            (2.0, 0.0),
            (2.0, 1.0),
        ]

    def test_duplicate_keys_rejected(self):
        axes = [parse_grid_axis("a=1:2:2"), parse_grid_axis("a=0:1:2")]
        with pytest.raises(InvalidGrid, match="duplicate"):
            build_grid(axes, {"b": 0.5, "c": 0.0, "theta": 0.0})

    def test_missing_parameter_rejected(self):
        with pytest.raises(InvalidGrid, match="no value for"):
            build_grid([parse_grid_axis("a=1:2:2")], {"b": 0.5})

    def test_fixed_only_single_point(self):
        points = build_grid([], {"a": 1.0, "b": 2.0, "c": 3.0, "theta": 0.1})
        assert points == [HaKyeParams(1.0, 2.0, 3.0, 0.1)]

    def test_cos_family_from_scanned_theta(self):
        points = build_grid(
            [parse_grid_axis("theta=0.0:0.5:3")], {}, cos_family=True
        )
        assert len(points) == 3
        for p in points:
            ct = math.cos(p.theta)
            assert p.a == pytest.approx(4 * ct / 3)
            assert p.b == pytest.approx(2 * ct / 3)
            assert p.c == 0.0

    def test_cos_family_fixed_theta(self):
        points = build_grid([], {"theta": math.pi / 12}, cos_family=True)
        assert points == [reference_violation_params()]

    def test_cos_family_rejects_other_axes(self):
        with pytest.raises(InvalidGrid, match="cos-family"):
            build_grid([parse_grid_axis("a=1:2:2")], {}, cos_family=True)

    def test_cos_family_rejects_fixed_diagonal(self):
        with pytest.raises(InvalidGrid, match="cos-family"):
            build_grid([], {"a": 5.0, "theta": 0.2}, cos_family=True)

    @pytest.mark.parametrize(
        "scan, fixed, cos_family",
        [
            (["a=2:3:2"], {"a": 1.0, "b": 1.0, "c": 1.0, "theta": 0.3}, False),
            (["theta=0.1:0.2:2"], {"theta": 0.9}, True),
        ],
    )
    def test_fixed_and_scanned_key_rejected(self, scan, fixed, cos_family):
        with pytest.raises(InvalidGrid, match="both fixed and scanned"):
            build_grid([parse_grid_axis(t) for t in scan], fixed, cos_family)

    def test_cos_family_needs_theta(self):
        with pytest.raises(InvalidGrid, match="theta"):
            build_grid([], {}, cos_family=True)


class TestAnalyzePoint:
    def test_reference_row(self):
        row = analyze_point(reference_violation_params())
        assert row["lambda0_W"] == pytest.approx(-0.6439505508593788, abs=1e-12)
        assert row["lambda0_WGamma"] == pytest.approx(-0.7285808049334792, abs=1e-12)
        assert row["gap"] == pytest.approx(0.08463025407410041, abs=1e-12)
        assert row["condition_holds"] is True
        assert row["spa_min_pt_eig"] == pytest.approx(-0.0846302540741, abs=1e-10)
        assert row["verdict"] == "VIOLATES"
        assert row["oracle_discrepancy"] < 1e-10
        assert all(isinstance(row[k], float) for k in ("a", "b", "theta", "gap"))

    def test_unasserted_condition_is_inconclusive(self):
        row = analyze_point(reference_violation_params(), asserted_onew=False)
        assert row["condition_holds"] is True
        assert row["verdict"] == "INCONCLUSIVE"

    def test_gap_free_point_is_consistent(self):
        # both bottom eigenvalues equal 3 here: direct min(b, a-2) = 3,
        # partial-transpose min(a, b-1) = 3
        row = analyze_point(HaKyeParams(a=5.0, b=4.0, c=4.0, theta=0.0))
        assert row["condition_holds"] is False
        assert row["verdict"] == "CONSISTENT"

    def test_condition_tol_is_respected(self):
        params = reference_violation_params()
        row = analyze_point(params, condition_tol=0.1)
        assert row["gap"] < 0.1
        assert row["condition_holds"] is False
        assert row["verdict"] == "CONSISTENT"

    def test_oracle_tripwire(self, monkeypatch):
        params = reference_violation_params()
        good = scan_module.hakye_spectrum_closed_form(params)
        monkeypatch.setattr(
            scan_module, "hakye_spectrum_closed_form", lambda p: good + 1e-6
        )
        row = analyze_point(params)
        assert row["verdict"] == "oracle-mismatch"
        assert row["oracle_discrepancy"] > 1e-8


class TestBatchedScan:
    def test_rows_across_a_chunk_boundary_match_single_points(self):
        points = build_grid(
            [parse_grid_axis(f"theta=0.01:1.5:{SCAN_CHUNK + 1}")], {}, cos_family=True
        )
        rows = run_scan(points)
        assert len(rows) == SCAN_CHUNK + 1
        for k in (0, SCAN_CHUNK - 1, SCAN_CHUNK):
            assert rows[k] == analyze_point(points[k])
            # the stacked solve returns the bits of a one-matrix solve
            w = hakye_witness(points[k])
            assert rows[k]["lambda0_W"] == eig_hermitian(w).min_eigenvalue
            assert rows[k]["lambda0_WGamma"] == eig_hermitian(partial_transpose(w)).min_eigenvalue

    def test_one_corrupted_solve_in_a_stack_fails(self, monkeypatch, capsys):
        real_eigh = np.linalg.eigh

        def corrupt_one(a):
            w, v = real_eigh(a)
            if w.ndim == 2 and len(w) > 3:
                w = w.copy()
                w[3, 0] += 1e-3
            return w, v

        monkeypatch.setattr(np.linalg, "eigh", corrupt_one)
        points = build_grid(
            [parse_grid_axis("theta=0.05:0.6:8")], {}, cos_family=True
        )
        with pytest.raises(ConvergenceFailure, match="residual"):
            run_scan(points)
        code = main(["hakye", "--cos-family", "--scan", "theta=0.05:0.6:8"])
        assert code == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err


class TestEmission:
    def _rows(self):
        return run_scan(
            build_grid([parse_grid_axis("theta=0.2:0.3:2")], {}, cos_family=True)
        )

    def test_csv_layout(self):
        rows = self._rows()
        buf = io.StringIO()
        write_rows_csv(
            rows, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible=True, notes=("n1",)
        )
        text = buf.getvalue()
        lines = text.split("\r\n")
        assert lines[0] == f"# schema={SCAN_SCHEMA}"
        assert lines[1] == "# note=n1"
        assert lines[2] == ",".join(SCAN_COLUMNS)
        assert len(lines) == 3 + len(rows) + 1
        assert text.endswith("\r\n")
        assert "generated" not in text

    def test_csv_cell_formats(self):
        rows = self._rows()
        buf = io.StringIO()
        write_rows_csv(rows, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible=True)
        body = buf.getvalue().split("\r\n")[2:]
        first = body[0].split(",")
        assert first[SCAN_COLUMNS.index("condition_holds")] in ("true", "false")
        lam_cell = first[SCAN_COLUMNS.index("lambda0_W")]
        assert float(lam_cell) == rows[0]["lambda0_W"]
        assert "np.float64" not in buf.getvalue()

    def test_timestamp_emitted_unless_reproducible(self):
        rows = self._rows()
        buf = io.StringIO()
        write_rows_csv(rows, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible=False)
        assert "# generated=" in buf.getvalue()

    def test_json_report_shape(self):
        rows = self._rows()
        doc = scan_report_json(rows, reproducible=True, notes=("x",))
        assert doc["schema_version"] == 1
        assert doc["kind"] == SCAN_SCHEMA
        assert doc["notes"] == ["x"]
        assert "generated" not in doc
        assert len(doc["rows"]) == len(rows)
        assert doc["rows"][0]["verdict"] in ("VIOLATES", "CONSISTENT", "INCONCLUSIVE")

    def test_reports_are_deterministic(self):
        rows1 = self._rows()
        rows2 = self._rows()
        b1, b2 = io.StringIO(), io.StringIO()
        write_rows_csv(rows1, SCAN_COLUMNS, SCAN_SCHEMA, b1, reproducible=True)
        write_rows_csv(rows2, SCAN_COLUMNS, SCAN_SCHEMA, b2, reproducible=True)
        assert b1.getvalue() == b2.getvalue()
