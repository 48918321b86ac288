"""Grid scans: parsing, ordering, the oracle tripwire, deterministic emission."""

from __future__ import annotations

import importlib
import io
import json
import math

import numpy as np
import pytest

from oracles import rows_csv_row_by_row, scan_report_reference
from spa_witness.cli import EXIT_NUMERIC, main
from spa_witness.errors import ConvergenceFailure, InvalidGrid
from spa_witness.geometry import GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, geometry_rows
from spa_witness.hakye import HaKyeParams, hakye_witness, param_columns, reference_violation_params
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
    write_scan_json,
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
        good, good_pt = scan_module.hakye_spectra_closed_form(param_columns([params]))
        monkeypatch.setattr(
            scan_module, "hakye_spectra_closed_form", lambda p: (good + 1e-6, good_pt)
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
        buf = io.StringIO()
        write_scan_json(rows, buf, reproducible=True, notes=("x",))
        doc = json.loads(buf.getvalue())
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


class TestReportBytes:
    """The column-wise writers reproduce the whole-document JSON encoder and
    the row-by-row CSV writer byte for byte."""

    NOTES = ("n1", "a note, with a comma and \"quotes\"")
    STAMP = "2026-01-01T00:00:00+00:00"
    GRIDS = {
        # (axes, cos_family, verdicts); both grids cross the chunk boundary
        "cos-family": (
            [f"theta=0.003:1.5707963267948966:{SCAN_CHUNK + 1}"], True, {"VIOLATES"}
        ),
        # gap-free (CONSISTENT) where b = c = a - 1 and theta = 0
        "four-axis": (
            ["a=1:6:6", "b=0:4:5", "c=0:4:5", "theta=0:3:5"], False, {"VIOLATES", "CONSISTENT"}
        ),
    }

    @staticmethod
    def _scan(specs, cos_family):
        return run_scan(build_grid([parse_grid_axis(s) for s in specs], {}, cos_family))

    @pytest.fixture(scope="class", params=sorted(GRIDS))
    def rows(self, request):
        return self._scan(*self.GRIDS[request.param][:2])

    def _json(self, rows, reproducible=True, notes=NOTES):
        buf = io.StringIO()
        write_scan_json(rows, buf, reproducible=reproducible, notes=notes)
        return buf.getvalue()

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_grids_cross_a_chunk_with_their_verdicts(self, grid):
        specs, cos_family, verdicts = self.GRIDS[grid]
        rows = self._scan(specs, cos_family)
        assert len(rows) > SCAN_CHUNK
        assert {row["verdict"] for row in rows} == verdicts

    @pytest.mark.parametrize("reproducible", [True, False])
    @pytest.mark.parametrize("notes", [NOTES, ()])
    def test_json(self, rows, reproducible, notes, monkeypatch):
        monkeypatch.setattr(scan_module, "timestamp", lambda: self.STAMP)
        stamp = None if reproducible else self.STAMP
        text = self._json(rows, reproducible, notes)
        assert text == scan_report_reference(rows, notes, stamp)
        doc = scan_report_json(rows, reproducible, notes)
        assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("reproducible", [True, False])
    def test_csv(self, rows, reproducible, monkeypatch):
        monkeypatch.setattr(scan_module, "timestamp", lambda: self.STAMP)
        buf = io.StringIO()
        write_rows_csv(rows, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible, self.NOTES)
        stamp = None if reproducible else self.STAMP
        assert buf.getvalue() == rows_csv_row_by_row(
            rows, SCAN_COLUMNS, SCAN_SCHEMA, self.NOTES, stamp
        )

    def test_empty_report(self):
        assert self._json([]) == scan_report_reference([], self.NOTES)

    def test_mixed_columns_fall_back_cell_by_cell(self):
        rows = [
            {"x": 1.0, "y": True, "z": "a,b", "w": None, "v": "plain"},
            {"x": 2, "y": None, "z": 'say "hi"', "w": 1.5, "v": "é\n"},
            {"x": -0.0, "y": False, "z": "", "w": float("inf"), "v": "plain"},
        ]
        columns = ("x", "y", "z", "w", "v")
        buf = io.StringIO()
        write_rows_csv(rows, columns, "s", buf, reproducible=True)
        assert buf.getvalue() == rows_csv_row_by_row(rows, columns, "s")
        rows[2]["w"] = -2.5
        assert self._json(rows) == scan_report_reference(rows, self.NOTES)

    @pytest.mark.parametrize(
        "bad",
        [
            {1: {"gap": math.nan}},
            {0: {"oracle_discrepancy": math.nan}, 1: {"a": math.inf}},
            {2: {"spa_min_pt_eig": -math.inf}},
        ],
    )
    def test_non_finite_float_raises_like_the_encoder(self, rows, bad):
        rows = [dict(row) for row in rows[:3]]
        for k, fields in bad.items():
            rows[k].update(fields)
        with pytest.raises(ValueError) as reference:
            scan_report_reference(rows)
        buf = io.StringIO()
        with pytest.raises(ValueError) as raised:
            write_scan_json(rows, buf, reproducible=True)
        assert str(raised.value) == str(reference.value)
        assert buf.getvalue() == ""

    def test_geometry_csv(self, hakye_reference):
        _, op = hakye_reference
        rows = geometry_rows(op, samples=40, seed=3)
        buf = io.StringIO()
        write_rows_csv(rows, GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, buf, reproducible=True)
        assert buf.getvalue() == rows_csv_row_by_row(rows, GEOMETRY_COLUMNS, GEOMETRY_SCHEMA)
