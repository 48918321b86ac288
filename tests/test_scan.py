"""Grid scans: parsing, ordering, the spectral certificate, deterministic emission."""

from __future__ import annotations

import importlib
import io
import itertools
import json
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import table_rows
from oracles import (
    grid_one_at_a_time,
    rows_csv_row_by_row,
    scan_report_reference,
    scan_row_one_at_a_time,
)
from spa_witness.cli import EXIT_NUMERIC, main
from spa_witness.errors import InvalidParams
from spa_witness.geometry import GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, geometry_rows
from spa_witness.hakye import (
    HAKYE_DIMS,
    HaKyeParams,
    certify_spectra,
    hakye_matrices,
    hakye_spectra_closed_form,
    reference_violation_params,
)
from spa_witness.operators import partial_transpose_stack
from spa_witness.scan import (
    DEFAULT_CONDITION_TOL,
    GRID_KEYS,
    ROW_KEYS,
    SCAN_COLUMNS,
    SCAN_SCHEMA,
    GridAxis,
    analyze_point,
    build_grid,
    cell_text,
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
            "a=-1e308:1e308:3",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(InvalidParams, match=r"^grid spec "):
            parse_grid_axis(text)


class TestBuildGrid:
    def test_axes_sorted_by_key(self):
        axes = [parse_grid_axis("theta=0:1:2"), parse_grid_axis("a=1:2:2")]
        grid = build_grid(axes, {"b": 0.5, "c": 0.0})
        assert list(zip(grid[0].tolist(), grid[3].tolist())) == [
            (1.0, 0.0),
            (1.0, 1.0),
            (2.0, 0.0),
            (2.0, 1.0),
        ]

    def test_duplicate_keys_rejected(self):
        axes = [parse_grid_axis("a=1:2:2"), parse_grid_axis("a=0:1:2")]
        with pytest.raises(InvalidParams, match="duplicate"):
            build_grid(axes, {"b": 0.5, "c": 0.0, "theta": 0.0})

    def test_missing_parameter_rejected(self):
        with pytest.raises(InvalidParams, match="no value for"):
            build_grid([parse_grid_axis("a=1:2:2")], {"b": 0.5})

    def test_fixed_only_single_point(self):
        grid = build_grid([], {"a": 1.0, "b": 2.0, "c": 3.0, "theta": 0.1})
        assert grid.dtype == np.float64
        assert grid.tolist() == [[1.0], [2.0], [3.0], [0.1]]

    def test_cos_family_from_scanned_theta(self):
        grid = build_grid(
            [parse_grid_axis("theta=0.0:0.5:3")], {}, cos_family=True
        )
        assert grid.shape == (4, 3)
        for a, b, c, theta in grid.T:
            ct = math.cos(theta)
            assert a == pytest.approx(4 * ct / 3)
            assert b == pytest.approx(2 * ct / 3)
            assert c == 0.0

    def test_cos_family_fixed_theta(self):
        grid = build_grid([], {"theta": math.pi / 12}, cos_family=True)
        assert grid.shape == (4, 1)
        assert HaKyeParams(*grid[:, 0].tolist()) == reference_violation_params()

    def test_cos_family_rejects_other_axes(self):
        with pytest.raises(InvalidParams, match="cos-family"):
            build_grid([parse_grid_axis("a=1:2:2")], {}, cos_family=True)

    def test_cos_family_rejects_fixed_diagonal(self):
        with pytest.raises(InvalidParams, match="cos-family"):
            build_grid([], {"a": 5.0, "theta": 0.2}, cos_family=True)

    @pytest.mark.parametrize(
        "scan, fixed, cos_family",
        [
            (["a=2:3:2"], {"a": 1.0, "b": 1.0, "c": 1.0, "theta": 0.3}, False),
            (["theta=0.1:0.2:2"], {"theta": 0.9}, True),
        ],
    )
    def test_fixed_and_scanned_key_rejected(self, scan, fixed, cos_family):
        with pytest.raises(InvalidParams, match="both fixed and scanned"):
            build_grid([parse_grid_axis(t) for t in scan], fixed, cos_family)

    def test_cos_family_needs_theta(self):
        with pytest.raises(InvalidParams, match="theta"):
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
        assert row["spectral_bound"] < 1e-13
        assert all(isinstance(row[k], float) for k in ("a", "b", "theta", "gap"))

    def test_gap_free_point_is_consistent(self):
        # both bottom eigenvalues equal 3 here: direct min(b, a-2) = 3,
        # partial-transpose min(a, b-1) = 3
        row = analyze_point(HaKyeParams(a=5.0, b=4.0, c=4.0, theta=0.0))
        assert row["condition_holds"] is False
        assert row["verdict"] == "CONSISTENT"

    def test_condition_tol_is_respected(self):
        params = reference_violation_params()
        [row] = table_rows(run_scan(params.column(), 0.1))
        assert row["gap"] < 0.1
        assert row["condition_holds"] is False
        assert row["verdict"] == "CONSISTENT"

    def test_certificate_tripwire(self, monkeypatch):
        params = reference_violation_params()
        good, good_pt = scan_module.hakye_spectra_closed_form(params.column())
        monkeypatch.setattr(
            scan_module, "hakye_spectra_closed_form", lambda p: (good + 1e-6, good_pt)
        )
        row = analyze_point(params)
        assert row["verdict"] == "certificate-failed"
        assert row["spectral_bound"] >= 1e-6


def solved_distance(m, closed, closed_pt):
    """Per matrix of a (n, 9, 9) stack, the largest distance of an eigh
    eigenvalue of m or of m^PT from the closed-form spectrum.  eigh, not
    eigvalsh: with weights and theta near 1e-160, eigvalsh puts the -2 and
    1 of the exact spectrum 1e-4 off, and eigh does not."""
    dense, dense_pt = np.linalg.eigh(np.stack([m, partial_transpose_stack(m, HAKYE_DIMS)]))[0]
    return np.maximum(np.abs(dense - closed).max(axis=1), np.abs(dense_pt - closed_pt).max(axis=1))


def assert_within_bound(grid, table):
    """Every eigenvalue that eigh gives for each grid point's built
    matrix and its partial transpose lies within the row's spectral_bound
    of the closed form, whose bottom entries the row reports."""
    closed, closed_pt = hakye_spectra_closed_form(grid)
    assert closed[:, 0].tobytes() == table["lambda0_W"].tobytes()
    assert closed_pt[:, 0].tobytes() == table["lambda0_WGamma"].tobytes()
    off = solved_distance(hakye_matrices(grid), closed, closed_pt)
    assert (off <= table["spectral_bound"]).all()


class TestBatchedScan:
    def test_rows_across_a_chunk_boundary_match_single_points(self):
        grid = build_grid(
            [parse_grid_axis(f"theta=0.01:1.5:{SCAN_CHUNK + 1}")], {}, cos_family=True
        )
        table = run_scan(grid)
        rows = table_rows(table)
        assert len(rows) == SCAN_CHUNK + 1
        for k in (0, SCAN_CHUNK - 1, SCAN_CHUNK):
            assert rows[k] == analyze_point(HaKyeParams(*grid[:, k].tolist()))
        assert_within_bound(grid, table)

    def test_one_corrupted_matrix_in_a_stack_fails(self, monkeypatch, capsys):
        # one diagonal entry of the one matrix in the second chunk, moved by
        # 1e-6: far past the certificate's tolerance
        spec = f"theta=0.05:0.6:{SCAN_CHUNK + 1}"
        grid = build_grid([parse_grid_axis(spec)], {}, cos_family=True)
        build = scan_module.hakye_matrices

        def corrupt_second_chunk(params):
            m = build(params)
            if params[3, 0] == grid[3, SCAN_CHUNK]:
                m[0, 1, 1] += 1e-6
            return m

        monkeypatch.setattr(scan_module, "hakye_matrices", corrupt_second_chunk)
        table = run_scan(grid)
        assert table["verdict"].tolist() == ["VIOLATES"] * SCAN_CHUNK + ["certificate-failed"]
        assert table["spectral_bound"][SCAN_CHUNK] >= 1e-6
        code = main(["hakye", "--cos-family", "--scan", spec])
        assert code == EXIT_NUMERIC
        assert capsys.readouterr().err == (
            "numerical failure: closed-form spectra not certified at 1 of "
            f"{SCAN_CHUNK + 1} points\n"
        )

    def test_scan_runs_no_eigensolver(self, monkeypatch, capsys):
        spec = f"theta=0.003:1.5:{SCAN_CHUNK + 1}"
        argv = ["hakye", "--cos-family", "--scan", spec, "--reproducible"]
        formats = ("csv", "json")
        expected = {fmt: (main([*argv, "--format", fmt]), capsys.readouterr()) for fmt in formats}

        def refuse(*args, **kwargs):
            raise AssertionError("the scan ran an eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for fmt in formats:
            assert (main([*argv, "--format", fmt]), capsys.readouterr()) == expected[fmt]

    def test_overflowing_trace_warns_nothing(self, capsys):
        # tr W = 3e308 overflows to inf inside numpy, outside the tier-1
        # filter on spa_witness; the closed-form gap is 0, far inside the
        # bound, so the row is uncertified and the run exits 2
        argv = ["hakye", "--a", "1e308", "--b", "1e308", "--c", "1e308", "--theta", "0.1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([*argv, "--reproducible"])
        out, err = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert out.splitlines()[-1].endswith(",false,1e+308,certificate-failed")
        assert err == "numerical failure: closed-form spectra not certified at 1 of 1 points\n"


class TestEmission:
    def _table(self):
        return run_scan(
            build_grid([parse_grid_axis("theta=0.2:0.3:2")], {}, cos_family=True)
        )

    def test_csv_layout(self):
        table = self._table()
        buf = io.StringIO()
        write_rows_csv(
            table, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible=True, notes=("n1",)
        )
        text = buf.getvalue()
        lines = text.split("\r\n")
        assert lines[0] == f"# schema={SCAN_SCHEMA}"
        assert lines[1] == "# note=n1"
        assert lines[2] == ",".join(SCAN_COLUMNS)
        assert len(lines) == 3 + len(table["a"]) + 1
        assert text.endswith("\r\n")
        assert "generated" not in text

    def test_cell_text_is_the_scalar_rule_of_every_report(self):
        values = (True, False, 0.1, np.float64(1e-300), -0.0, 3, "PPT")
        assert [cell_text(v) for v in values] == [
            "true", "false", "0.1", "1e-300", "-0.0", "3", "PPT"
        ]

    def test_csv_cell_formats(self):
        table = self._table()
        buf = io.StringIO()
        write_rows_csv(table, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible=True)
        body = buf.getvalue().split("\r\n")[2:]
        first = body[0].split(",")
        assert first[SCAN_COLUMNS.index("condition_holds")] in ("true", "false")
        lam_cell = first[SCAN_COLUMNS.index("lambda0_W")]
        assert float(lam_cell) == table["lambda0_W"][0]
        assert "np.float64" not in buf.getvalue()

    def test_timestamp_emitted_unless_reproducible(self):
        table = self._table()
        buf = io.StringIO()
        write_rows_csv(table, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible=False)
        assert "# generated=" in buf.getvalue()

    def test_json_report_shape(self):
        table = self._table()
        buf = io.StringIO()
        write_scan_json(table, buf, reproducible=True, notes=("x",))
        doc = json.loads(buf.getvalue())
        assert doc["schema_version"] == 1
        assert doc["kind"] == SCAN_SCHEMA
        assert doc["notes"] == ["x"]
        assert "generated" not in doc
        assert len(doc["rows"]) == len(table["a"])
        assert doc["rows"][0]["verdict"] in ("VIOLATES", "CONSISTENT")

    def test_reports_are_deterministic(self):
        table1 = self._table()
        table2 = self._table()
        b1, b2 = io.StringIO(), io.StringIO()
        write_rows_csv(table1, SCAN_COLUMNS, SCAN_SCHEMA, b1, reproducible=True)
        write_rows_csv(table2, SCAN_COLUMNS, SCAN_SCHEMA, b2, reproducible=True)
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
    def table(self, request):
        return self._scan(*self.GRIDS[request.param][:2])

    def _json(self, table, reproducible=True, notes=NOTES):
        buf = io.StringIO()
        write_scan_json(table, buf, reproducible=reproducible, notes=notes)
        return buf.getvalue()

    @pytest.mark.parametrize("grid", sorted(GRIDS))
    def test_grids_cross_a_chunk_with_their_verdicts(self, grid):
        specs, cos_family, verdicts = self.GRIDS[grid]
        table = self._scan(specs, cos_family)
        assert len(table["verdict"]) > SCAN_CHUNK
        assert set(table["verdict"].tolist()) == verdicts

    @pytest.mark.parametrize("reproducible", [True, False])
    @pytest.mark.parametrize("notes", [NOTES, ()])
    def test_json(self, table, reproducible, notes, monkeypatch):
        monkeypatch.setattr(scan_module, "timestamp", lambda: self.STAMP)
        stamp = None if reproducible else self.STAMP
        text = self._json(table, reproducible, notes)
        assert text == scan_report_reference(table_rows(table), notes, stamp)
        doc = scan_report_json(table, reproducible, notes)
        assert text == json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @pytest.mark.parametrize("reproducible", [True, False])
    def test_csv(self, table, reproducible, monkeypatch):
        monkeypatch.setattr(scan_module, "timestamp", lambda: self.STAMP)
        buf = io.StringIO()
        write_rows_csv(table, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible, self.NOTES)
        stamp = None if reproducible else self.STAMP
        assert buf.getvalue() == rows_csv_row_by_row(
            table_rows(table), SCAN_COLUMNS, SCAN_SCHEMA, self.NOTES, stamp
        )

    def test_empty_report(self):
        assert self._json({}) == scan_report_reference([], self.NOTES)
        empty = {key: np.empty(0) for key in ROW_KEYS}
        assert self._json(empty) == scan_report_reference([], self.NOTES)
        buf = io.StringIO()
        write_rows_csv(empty, SCAN_COLUMNS, SCAN_SCHEMA, buf, reproducible=True)
        assert buf.getvalue() == rows_csv_row_by_row([], SCAN_COLUMNS, SCAN_SCHEMA)

    @pytest.mark.parametrize(
        "bad",
        [
            {1: {"gap": math.nan}},
            {0: {"spectral_bound": math.nan}, 1: {"a": math.inf}},
            {2: {"spa_min_pt_eig": -math.inf}},
        ],
    )
    def test_non_finite_float_raises_like_the_encoder(self, table, bad):
        rows = table_rows(table)[:3]
        for k, fields in bad.items():
            rows[k].update(fields)
        with pytest.raises(ValueError) as reference:
            scan_report_reference(rows)
        buf = io.StringIO()
        with pytest.raises(ValueError) as raised:
            write_scan_json({k: np.array([row[k] for row in rows]) for k in ROW_KEYS}, buf, True)
        assert str(raised.value) == str(reference.value)
        assert buf.getvalue() == ""

    @pytest.fixture(scope="class")
    def long_tables(self, hakye_reference):
        """A scan table and a geometry table of 3 * SCAN_CHUNK + 7 rows."""
        n = 3 * SCAN_CHUNK + 7
        scan = self._scan([f"theta=0.003:1.5707963267948966:{n}"], True)
        return scan, geometry_rows(hakye_reference[1], samples=n // 2, seed=5)

    @pytest.mark.parametrize(
        "n", [1, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 3 * SCAN_CHUNK + 7]
    )
    def test_rows_written_a_chunk_at_a_time(self, long_tables, n):
        scan, geometry = ({key: column[:n] for key, column in t.items()} for t in long_tables)
        assert self._json(scan) == scan_report_reference(table_rows(scan), self.NOTES)
        for table, columns, schema in (
            (scan, SCAN_COLUMNS, SCAN_SCHEMA), (geometry, GEOMETRY_COLUMNS, GEOMETRY_SCHEMA)
        ):
            buf = io.StringIO()
            write_rows_csv(table, columns, schema, buf, reproducible=True, notes=self.NOTES)
            assert buf.getvalue() == rows_csv_row_by_row(
                table_rows(table), columns, schema, self.NOTES
            )

    @staticmethod
    def _distinct(k, n):
        """n cells cycling through k distinct floats, the first two 0.0 and -0.0."""
        values = np.concatenate([[0.0, -0.0], np.arange(1, k - 1) / 7])
        return values[np.arange(n) % k]

    @pytest.fixture(scope="class")
    def repeated(self):
        """Three chunks of float columns: chunk 0 with SCAN_CHUNK // 2 distinct
        values (each formatted once), chunk 1 with one more (every cell
        formatted), a 5-row tail with 2; 0.0 and -0.0 in every chunk, and
        columns equal on both sides of each chunk boundary."""
        half = SCAN_CHUNK // 2
        n = 2 * SCAN_CHUNK + 5
        return {
            "half": np.concatenate([
                self._distinct(half, SCAN_CHUNK),
                self._distinct(half + 1, SCAN_CHUNK),
                self._distinct(2, 5),
            ]),
            "signed": np.tile([0.0, -0.0, 1.5], n)[:n],
            "constant": np.full(n, 2 / 3),
            "negative-zero": np.full(n, -0.0),
        }

    def test_repeated_floats_cover_each_side_of_the_half_rule(self, repeated):
        chunks = [
            len(np.unique(repeated["half"][start:start + SCAN_CHUNK].view(np.int64)))
            for start in range(0, len(repeated["half"]), SCAN_CHUNK)
        ]
        assert chunks == [SCAN_CHUNK // 2, SCAN_CHUNK // 2 + 1, 2]

    def test_repeated_floats(self, repeated):
        assert self._json(repeated) == scan_report_reference(table_rows(repeated), self.NOTES)
        buf = io.StringIO()
        write_rows_csv(repeated, tuple(repeated), "s", buf, reproducible=True, notes=self.NOTES)
        assert buf.getvalue() == rows_csv_row_by_row(
            table_rows(repeated), tuple(repeated), "s", self.NOTES
        )

    def test_non_finite_floats_in_csv(self, repeated):
        # NaN with either sign bit or a payload reads "nan", as repr has it
        payload_nan = np.array([0x7FF8000000000001]).view(np.float64)
        pool = np.concatenate([[math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0], payload_nan])
        n = len(repeated["half"])
        table = {
            **repeated,
            "non-finite": np.tile(pool, n)[:n],
            "mixed": np.where(np.arange(n) % 3 == 0, math.nan, repeated["half"]),
        }
        buf = io.StringIO()
        write_rows_csv(table, tuple(table), "s", buf, reproducible=True)
        assert buf.getvalue() == rows_csv_row_by_row(table_rows(table), tuple(table), "s")

    def test_geometry_csv(self, hakye_reference):
        _, op = hakye_reference
        table = geometry_rows(op, samples=40, seed=3)
        buf = io.StringIO()
        write_rows_csv(table, GEOMETRY_COLUMNS, GEOMETRY_SCHEMA, buf, reproducible=True)
        assert buf.getvalue() == rows_csv_row_by_row(
            table_rows(table), GEOMETRY_COLUMNS, GEOMETRY_SCHEMA
        )


class TestCertificate:
    """Every dense eigenvalue lies within its row's spectral_bound of the
    closed form, at any valid point and on the report grids."""

    TINY = 4.325155910932473e-161

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(0.0, 1e8), b=st.floats(0.0, 1e8), c=st.floats(0.0, 1e8),
        theta=st.floats(-math.pi, math.pi),
    )
    @example(a=TINY, b=TINY, c=0.0, theta=TINY)
    def test_valid_points(self, a, b, c, theta):
        assume(a or b or c)
        grid = HaKyeParams(a, b, c, theta).column()
        assert_within_bound(grid, run_scan(grid))

    def test_bound_holds_for_any_hermitian_stack(self):
        # the proof reads the built matrices, not the parameters: perturbed
        # by a random Hermitian E of norm 1e-12 to 1, dense or on a tenth of
        # its entries, every solved eigenvalue still lies within the bound
        rng = np.random.default_rng(11)
        n = 400
        grid = rng.uniform([[0.0]] * 3 + [[-math.pi]], [[3.0]] * 3 + [[math.pi]], (4, n))
        w = hakye_matrices(grid)
        e = rng.normal(size=(n, 9, 9)) + 1j * rng.normal(size=(n, 9, 9))
        e = (e + e.conj().mT) * 10.0 ** rng.uniform(-12.0, 0.0, (n, 1, 1))
        sparse = rng.random((n, 9, 9)) < 0.1
        closed, closed_pt = hakye_spectra_closed_form(grid)
        for m in (w + e, w + np.where(sparse | sparse.mT, e, 0.0)):
            bound, _ = certify_spectra(m, closed, closed_pt)
            assert (solved_distance(m, closed, closed_pt) <= bound).all()

    @pytest.mark.parametrize("grid", sorted(TestReportBytes.GRIDS))
    def test_report_grids(self, grid):
        specs, cos_family, _ = TestReportBytes.GRIDS[grid]
        points = build_grid([parse_grid_axis(s) for s in specs], {}, cos_family)
        assert_within_bound(points, run_scan(points))


# bounds and fixed values: signed zeros and moderate magnitudes; the
# invalid ones add negatives and non-finite values
VALID_BOUNDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(0.0, 10.0))
BOUNDS = st.one_of(VALID_BOUNDS, st.sampled_from([-1.0, -2.5]), st.floats(-10.0, 10.0))
FIXED = st.one_of(BOUNDS, st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))


@st.composite
def grid_specs(draw, bounds=BOUNDS, fixed_values=FIXED, thetas=st.floats(-4.0, 4.0)):
    """(axes, fixed, cos_family) with consistent keys."""
    if draw(st.booleans()):  # cos-family: theta scanned or fixed
        if draw(st.booleans()):
            return [], {"theta": draw(st.one_of(thetas, fixed_values))}, True
        lo, hi = draw(thetas), draw(thetas)
        return [GridAxis("theta", lo, hi, draw(st.integers(1, 6)))], {}, True
    scanned = draw(st.lists(st.sampled_from(GRID_KEYS), unique=True, max_size=4))
    axes = [
        GridAxis(key, draw(bounds), draw(bounds), draw(st.integers(1, 4))) for key in scanned
    ]
    fixed = {key: draw(fixed_values) for key in GRID_KEYS if key not in scanned}
    return draw(st.permutations(axes)), fixed, False


# mostly valid: non-negative weights and theta within the cos-family slice
VALID_SPECS = grid_specs(
    bounds=VALID_BOUNDS, fixed_values=st.floats(1.0, 10.0), thetas=st.floats(-1.5, 1.5)
)


class TestGridParity:
    """build_grid's array is the per-point HaKyeParams build, bit for bit,
    and fails where and as that build fails."""

    @staticmethod
    def _compare(axes, fixed, cos_family):
        try:
            points = grid_one_at_a_time(axes, fixed, cos_family)
        except (InvalidParams, ValueError) as reference:
            with pytest.raises(type(reference)) as raised:
                build_grid(axes, fixed, cos_family)
            assert str(raised.value) == str(reference)
            return
        grid = build_grid(axes, fixed, cos_family)
        expected = np.array([[p.a, p.b, p.c, p.theta] for p in points], dtype=np.float64).T
        assert grid.dtype == np.float64
        assert grid.shape == expected.shape
        assert grid.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(spec=VALID_SPECS)
    def test_valid_grids_match_the_per_point_build(self, spec):
        try:
            grid_one_at_a_time(*spec)
        except InvalidParams:  # every weight zero at some point
            assume(False)
        self._compare(*spec)

    @settings(max_examples=400, deadline=None)
    @given(spec=grid_specs())
    def test_matches_the_per_point_build(self, spec):
        self._compare(*spec)

    @pytest.mark.parametrize("spec", [
        # a single fixed point, +-0.0 weights and bounds
        ([], {"a": 1.0, "b": 2.0, "c": 3.0, "theta": 0.1}, False),
        ([], {"a": -0.0, "b": 0.0, "c": 1e-300, "theta": -0.0}, False),
        (
            [GridAxis("a", -0.0, 0.0, 3), GridAxis("c", 0.0, -0.0, 2)],
            {"b": 1.0, "theta": 0.0},
            False,
        ),
        ([GridAxis("theta", -0.0, 1.0, 3)], {}, True),
        ([], {"theta": math.pi / 12}, True),
        # invalid: every rule, and the first failing point in grid order
        ([GridAxis("a", 1.0, -1.0, 3)], {"b": 0.0, "c": 0.0, "theta": 0.0}, False),
        ([GridAxis("b", 1.0, 0.0, 2), GridAxis("a", 1.0, 0.0, 2)], {"c": 0.0, "theta": 0.0}, False),
        ([GridAxis("a", 0.0, 1.0, 2)], {"b": -0.0, "c": -0.0, "theta": 0.0}, False),
        ([GridAxis("theta", 0.0, 1.0, 2)], {"a": 1.0, "b": math.nan, "c": -1.0}, False),
        ([GridAxis("c", 1.0, -1.0, 3)], {"a": 1.0, "b": 1.0, "theta": math.inf}, False),
        ([GridAxis("a", -1e308, 1e308, 3)], {"b": 0.0, "c": 0.0, "theta": 0.0}, False),
        ([GridAxis("theta", 0.0, 3.0, 5)], {}, True),
        ([GridAxis("theta", 1e308, -1e308, 4)], {}, True),
        ([], {"theta": math.inf}, True),
        ([], {"theta": math.nan}, True),
        ([], {"theta": 2.0}, True),
    ])
    def test_edge_grids(self, spec):
        with np.errstate(over="ignore", invalid="ignore"):  # linspace over 2e308
            self._compare(*spec)


class TestScanParity:
    """run_scan's columns are the rows built one point at a time."""

    @pytest.mark.parametrize("specs, cos_family, tol", [
        ([f"theta=0.003:1.5707963267948966:{SCAN_CHUNK + 2}"], True, DEFAULT_CONDITION_TOL),
        (["a=0:2:6", "b=0:2:5", "c=0.1:2:5", "theta=0:3.1:4"], False, DEFAULT_CONDITION_TOL),
        (["theta=0.1:1.5:40"], True, 0.0899),
    ])
    def test_columns_equal_the_per_point_rows(self, specs, cos_family, tol):
        axes = [parse_grid_axis(s) for s in specs]
        table = run_scan(build_grid(axes, {}, cos_family), tol)
        assert tuple(table) == ROW_KEYS
        assert len({len(column) for column in table.values()}) == 1
        expected = [
            scan_row_one_at_a_time(p, tol)
            for p in grid_one_at_a_time(axes, {}, cos_family)
        ]
        assert table_rows(table) == expected
        # equal as values, and each float with its bits
        for key in ("lambda0_W", "lambda0_WGamma", "gap", "spa_min_pt_eig", "spectral_bound"):
            assert table[key].tobytes() == np.array([row[key] for row in expected]).tobytes()

    def test_invalid_array_is_rejected(self):
        grid = build_grid([parse_grid_axis("a=1:2:3")], {"b": 0.0, "c": 0.0, "theta": 0.0})
        grid[0, 1] = -1.0
        with pytest.raises(InvalidParams, match=r"got a=-1\.0, b=0\.0, c=0\.0"):
            run_scan(grid)


CELL = st.one_of(
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", "a,b", 'say "hi"', "é", " x ", "\0"]),
    st.text(alphabet=st.sampled_from('ab ,"\r\n\t#'), max_size=4),
)


def _plain(text: str) -> bool:
    """Whether csv.writer writes text as it is: not empty, and no delimiter,
    quote, line break or NUL."""
    return bool(text) and not set(text) & set(',"\r\n\0')


class TestCsvJoin:
    """The CSV body is csv.writer's, byte for byte, when no cell needs
    quoting; a cell that would need it raises ValueError."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 6),
        text=st.lists(st.lists(CELL, min_size=6, max_size=6), min_size=1, max_size=3),
        floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6),
    )
    def test_matches_the_row_by_row_writer(self, n, text, floats):
        table = {"x": np.array(floats[:n]), "flag": np.array([True, False] * 3)[:n]}
        table.update({f"t{k}": np.array(column[:n], dtype=str) for k, column in enumerate(text)})
        columns = tuple(table)
        buf = io.StringIO()
        cells = [cell for key in columns[2:] for cell in table[key].tolist()]
        if all(map(_plain, cells)):
            write_rows_csv(table, columns, "s", buf, reproducible=True, notes=("n",))
            assert buf.getvalue() == rows_csv_row_by_row(table_rows(table), columns, "s", ("n",))
        else:
            with pytest.raises(ValueError, match="would need quoting"):
                write_rows_csv(table, columns, "s", buf, reproducible=True, notes=("n",))

    # a float column drawn from a pool: a chunk column with few distinct
    # values formats each once, keyed by bit pattern, so 0.0 and -0.0 stay
    # apart and every NaN reads "nan"; n reaches past two chunk boundaries
    @settings(max_examples=60, deadline=None)
    @given(
        pool=st.lists(
            st.floats() | st.sampled_from([0.0, -0.0, math.nan, -math.nan]),
            min_size=1,
            max_size=64,
        ),
        n=st.integers(1, 2 * SCAN_CHUNK + 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_repeated_floats_match_the_row_by_row_writer(self, pool, n, seed):
        x = np.array(pool)[np.random.default_rng(seed).integers(len(pool), size=n)]
        table = {"x": x, "y": x[::-1].copy(), "flag": x > 0}
        columns = tuple(table)
        buf = io.StringIO()
        write_rows_csv(table, columns, "s", buf, reproducible=True)
        assert buf.getvalue() == rows_csv_row_by_row(table_rows(table), columns, "s")


QUOTED = ["", ",", '"', "\r", "\n", "x\0"]


class TestRefusals:
    """The writers take float64, bool and str columns whose CSV text needs
    no quoting, and refuse anything else by name."""

    @pytest.mark.parametrize(
        "column",
        [np.array([1.5, "x"], dtype=object), np.array([1, 2]), np.array([1.5, 2.5], np.float32)],
        ids=["object", "int", "float32"],
    )
    def test_another_dtype_raises_type_error(self, column):
        message = re.escape(str(column.dtype))
        with pytest.raises(TypeError, match=message):
            write_rows_csv({"x": column}, ("x",), "s", io.StringIO(), reproducible=True)
        with pytest.raises(TypeError, match=message):
            write_scan_json({"x": column}, io.StringIO(), reproducible=True)

    @pytest.mark.parametrize("text", QUOTED)
    def test_a_column_name_that_needs_quoting_raises(self, text):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=re.escape(repr(text))):
            write_rows_csv({text: np.array([1.5])}, (text,), "s", buf, reproducible=True)
        assert buf.getvalue() == ""

    # numpy's str dtype drops a trailing NUL, so "x\0" is stored with a tail;
    # the cell sits in the second chunk, after plain ones
    @pytest.mark.parametrize("text", QUOTED)
    def test_a_cell_that_needs_quoting_raises(self, text):
        cell = text + "y" if text.endswith("\0") else text
        column = np.array(["plain"] * SCAN_CHUNK + [cell])
        assert column[-1] == cell
        with pytest.raises(ValueError, match=re.escape(repr(cell))):
            write_rows_csv({"s": column}, ("s",), "s", io.StringIO(), reproducible=True)

    @pytest.mark.parametrize(
        ("table", "lengths"),
        [
            ({"a": np.array([1.0, 2.0]), "b": np.array([3.0])}, "a has 2, b has 1"),
            (
                {"x": np.array([]), "flag": np.array([True]), "s": np.array(["p", "q"])},
                "x has 0, flag has 1, s has 2",
            ),
        ],
        ids=["short-last", "three-lengths"],
    )
    def test_columns_of_different_lengths_raise_before_any_byte(self, table, lengths):
        message = f"^table columns differ in length: {lengths}$"
        buf = io.StringIO()
        with pytest.raises(ValueError, match=message):
            write_rows_csv(table, tuple(table), "s", buf, reproducible=True, notes=("n",))
        with pytest.raises(ValueError, match=message):
            write_scan_json(table, buf, reproducible=True, notes=("n",))
        assert buf.getvalue() == ""

    # several cells need quoting: the first in row order is the one named,
    # whatever order the string hash would give them
    BAD = {"comma": "a,b", "newline": "c\nd", "quote": 'e"f', "empty": ""}

    @pytest.mark.parametrize(
        "order", ["-".join(names) for names in itertools.permutations(BAD)]
    )
    def test_the_first_cell_that_needs_quoting_is_named(self, order):
        bad = [self.BAD[name] for name in order.split("-")]
        column = np.array(["plain", bad[0], "plain", *bad[1:], bad[0]])
        with pytest.raises(ValueError, match=re.escape(repr(bad[0]))):
            write_rows_csv({"s": column}, ("s",), "s", io.StringIO(), reproducible=True)


class TestReportTables:
    """The tables the package writes hold only float64, bool and str
    columns; their str cells need no quoting and their floats are finite,
    so the writers' refusals never fire on them."""

    @staticmethod
    def _assert_plain(table):
        for key, column in table.items():
            assert column.dtype == np.float64 or column.dtype.kind in "bU", key
            if column.dtype.kind == "U":
                assert all(map(_plain, set(column.tolist()))), key
            if column.dtype == np.float64:
                assert np.isfinite(column).all(), key

    @pytest.mark.parametrize("grid", sorted(TestReportBytes.GRIDS))
    def test_scan_grids(self, grid):
        specs, cos_family, _ = TestReportBytes.GRIDS[grid]
        self._assert_plain(TestReportBytes._scan(specs, cos_family))

    def test_extreme_scan_point(self):
        # --a 1.7e308: a gap of 1 that a bound relative to ||W||_F cannot
        # resolve, with every float still finite
        table = run_scan(build_grid([], {"a": 1.7e308, "b": 1.0, "c": 1.0, "theta": 0.0}))
        assert table["verdict"].tolist() == ["certificate-failed"]
        self._assert_plain(table)

    def test_geometry(self, hakye_reference):
        table = geometry_rows(hakye_reference[1], samples=SCAN_CHUNK, seed=7)
        assert set(table["source"].tolist()) == {
            "ground-projector", "random-density", "separable-ensemble"
        }
        self._assert_plain(table)


def _traced_peak(f, *args):
    """f(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """A scan holds its output columns and one chunk's working arrays, and a
    report writer one chunk's text, whatever the number of points."""

    N = 65536

    @staticmethod
    def _grid(n):
        return build_grid([parse_grid_axis(f"theta=0.001:1.5:{n}")], {}, cos_family=True)

    @pytest.fixture(scope="class")
    def scan(self):
        """A scan of N points, with run_scan's peak for it and for one chunk."""
        _, chunk_peak = _traced_peak(run_scan, self._grid(SCAN_CHUNK))
        table, peak = _traced_peak(run_scan, self._grid(self.N))
        return table, peak, chunk_peak

    def test_run_scan_holds_its_columns_and_one_chunk(self, scan):
        table, peak, chunk_peak = scan
        assert len(table["verdict"]) == self.N
        columns = sum(column.nbytes for column in table.values())
        assert peak <= columns + 1.5 * chunk_peak

    @pytest.fixture(scope="class")
    def four_axis(self):
        """A four-axis grid scan of N points, whose chunk columns repeat
        their cells, so the writers format each distinct value once."""
        axes = ["a=1:6:16", "b=0:4:16", "c=0:4:16", "theta=0:3:16"]
        return run_scan(build_grid([parse_grid_axis(axis) for axis in axes], {}))

    @pytest.mark.parametrize("grid", ["cos-family", "four-axis"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_writer_holds_one_chunk_of_text(self, request, grid, fmt):
        def write(table, stream):
            if fmt == "json":
                write_scan_json(table, stream, reproducible=True)
            else:
                write_rows_csv(table, SCAN_COLUMNS, SCAN_SCHEMA, stream, reproducible=True)

        if grid == "cos-family":
            table = request.getfixturevalue("scan")[0]
        else:
            table = request.getfixturevalue("four_axis")
        assert len(table["a"]) == self.N
        with open(os.devnull, "w", encoding="utf-8", newline="") as stream:
            _, chunk_peak = _traced_peak(
                write, {key: column[:SCAN_CHUNK] for key, column in table.items()}, stream
            )
            _, peak = _traced_peak(write, table, stream)
        assert peak <= 2 * chunk_peak
        assert peak < 4_000_000  # a few MB; the report is 10 MB of CSV or 26 MB of JSON
