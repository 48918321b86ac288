"""Scatter rows for the witness-geometry report."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from conftest import random_negative_hermitian, table_rows
from oracles import geometry_rows_one_at_a_time
from spa_witness.cli import EXIT_NUMERIC, main
from spa_witness.errors import (
    ConvergenceFailure,
    InvalidParams,
    NotADensity,
    NotHermitian,
    NotNegative,
)
from spa_witness.fileio import save_operator
from spa_witness.geometry import GEOMETRY_COLUMNS, geometry_rows
from spa_witness.hakye import hakye_witness, reference_violation_params
from spa_witness.operators import Dims, HermitianOperator
from spa_witness.scan import SCAN_CHUNK
from spa_witness.states import draw_densities, draw_ensembles, maximally_mixed
from spa_witness.witness import DEFAULT_DETECT_TOL, hyperplane_side

geometry_module = importlib.import_module("spa_witness.geometry")


def reference_rows(samples=6, seed=3):
    return table_rows(geometry_rows(hakye_witness(reference_violation_params()), samples, seed))


def test_row_layout_and_counts():
    rows = reference_rows()
    assert len(rows) == 1 + 2 * 6
    assert rows[0]["source"] == "ground-projector"
    assert {r["source"] for r in rows[1:7]} == {"random-density"}
    assert {r["source"] for r in rows[7:]} == {"separable-ensemble"}
    for row in rows:
        assert set(row) == set(GEOMETRY_COLUMNS)


def test_ground_projector_row_is_negative_side():
    row = reference_rows()[0]
    assert row["witness_value"] < 0
    assert row["classification"] == "negative-side"
    assert row["purity"] == 1.0 or abs(row["purity"] - 1.0) < 1e-12


def test_separable_rows_have_nonnegative_pt_minimum():
    for row in reference_rows(samples=10):
        if row["source"] == "separable-ensemble":
            assert row["min_pt_eigenvalue"] > -1e-10
            assert row["classification"] != "negative-side"


def test_purity_bounds():
    for row in reference_rows(samples=10):
        assert 1.0 / 9.0 - 1e-12 <= row["purity"] <= 1.0 + 1e-12


def test_deterministic_per_seed():
    assert reference_rows(seed=4) == reference_rows(seed=4)
    r5 = reference_rows(seed=5)
    r4 = reference_rows(seed=4)
    assert any(a != b for a, b in zip(r4[1:], r5[1:]))


def test_samples_must_be_positive():
    with pytest.raises(InvalidParams):
        reference_rows(samples=0)


def test_density_is_no_witness():
    message = r"^minimum eigenvalue .* of the witness matrix is not negative: not a witness"
    with pytest.raises(NotNegative, match=message):
        geometry_rows(maximally_mixed(Dims(2, 2)).op, 3)


def test_ground_projector_row_is_on_plane_for_a_tiny_negative_eigenvalue():
    witness = HermitianOperator(Dims(2, 2), np.diag([-5e-9, 1.0, 1.0, 1.0]))
    assert geometry_rows(witness, 1)["classification"][0] == "on-plane"


def _double_trace(m):
    m *= 2.0


def _make_negative(m):
    m[...] = np.diag([1.5, -0.5, 0.0, 0.0])


def _make_asymmetric(m):
    m[0, 1] += 1e-6


class TestStackedRows:
    @pytest.mark.parametrize("dims", [Dims(2, 2), Dims(2, 3), Dims(3, 3), Dims(3, 4)], ids=str)
    @pytest.mark.parametrize("samples", [1, SCAN_CHUNK])
    def test_rows_equal_the_one_at_a_time_route(self, dims, samples):
        # SCAN_CHUNK samples make three chunks: the ground projector and
        # random densities only, both kinds, and one mixture alone
        for seed in (0, 5) if samples == 1 else (3,):
            witness = random_negative_hermitian(dims, np.random.default_rng(seed + 40))
            assert table_rows(geometry_rows(witness, samples, seed)) == (
                geometry_rows_one_at_a_time(witness, samples, seed)
            )

    def test_reference_witness_rows_equal_the_one_at_a_time_route(self):
        witness = hakye_witness(reference_violation_params())
        rows = table_rows(geometry_rows(witness, 7, 2))
        assert rows == geometry_rows_one_at_a_time(witness, 7, 2)

    def test_columns_are_arrays_in_report_order(self):
        table = geometry_rows(hakye_witness(reference_violation_params()), 3, 1)
        assert tuple(table) == GEOMETRY_COLUMNS
        assert all(isinstance(c, np.ndarray) and c.shape == (7,) for c in table.values())
        assert table["witness_value"].dtype == np.float64

    def test_classification_uses_hyperplane_side_comparisons(self, monkeypatch):
        tol = DEFAULT_DETECT_TOL
        edges = [-1.0, -tol, -tol * 1.5, 0.0, -0.0, tol, tol * 1.5, np.nan, np.inf, -np.inf]

        def values(m, w):
            return np.resize(np.array(edges), len(m))

        monkeypatch.setattr(geometry_module, "hs_inner_stack", values)
        witness = random_negative_hermitian(Dims(2, 2), np.random.default_rng(1))
        table = geometry_rows(witness, 6)
        expected = [hyperplane_side(v).value for v in table["witness_value"].tolist()]
        assert table["classification"].tolist() == expected
        assert "on-plane" in expected

    @pytest.mark.parametrize("corrupt", [None, _make_negative], ids=["valid", "negative"])
    def test_one_eigensolve_per_chunk(self, monkeypatch, corrupt):
        # the density check factorises; eigvalsh runs only for a stack it rejects
        witness = random_negative_hermitian(Dims(2, 2), np.random.default_rng(1))
        calls = []
        for name in ("eigh", "eigvalsh", "cholesky"):
            real = getattr(np.linalg, name)

            def counted(m, *args, _real=real, _name=name, **kwargs):
                calls.append((_name, np.shape(m)))
                return _real(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def draw(dims, n, rng):
            m = draw_densities(dims, n, rng)
            if corrupt is not None:
                corrupt(m[0])
            return m

        monkeypatch.setattr(geometry_module, "draw_densities", draw)
        stack = (2 * 100 + 1, 4, 4)
        if corrupt is None:
            geometry_rows(witness, 100)
            assert calls == [("eigh", (4, 4)), ("cholesky", stack), ("eigh", stack)]
        else:
            with pytest.raises(NotADensity, match=r"^matrix \(1,\): minimum eigenvalue "):
                geometry_rows(witness, 100)
            assert calls == [("eigh", (4, 4)), ("cholesky", stack), ("eigvalsh", stack)]

    def test_one_corrupted_pt_solve_in_a_stack_fails(self, monkeypatch, capsys, tmp_path):
        real_eigh = np.linalg.eigh

        def corrupt_one(a):
            w, v = real_eigh(a)
            if w.ndim == 2 and len(w) > 3:
                w = w.copy()
                w[3, 0] += 1e-3
            return w, v

        path = tmp_path / "reference.json"
        witness = hakye_witness(reference_violation_params())
        save_operator(witness, path)
        monkeypatch.setattr(np.linalg, "eigh", corrupt_one)
        with pytest.raises(ConvergenceFailure, match="residual"):
            geometry_rows(witness, 4)
        assert main(["geometry", str(path), "--samples", "4"]) == EXIT_NUMERIC
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, error, message", [
        (_double_trace, NotADensity, r"^matrix \(1,\): trace is "),
        (_make_negative, NotADensity, r"^matrix \(1,\): minimum eigenvalue "),
        (_make_asymmetric, NotHermitian, r"^max asymmetry .* at matrix \(1,\), "),
    ], ids=["trace", "negative", "asymmetric"])
    def test_every_density_of_a_stack_is_checked(self, monkeypatch, corrupt, error, message):
        def draw(dims, n, rng):
            m = draw_densities(dims, n, rng)
            corrupt(m[0])
            return m

        monkeypatch.setattr(geometry_module, "draw_densities", draw)
        witness = random_negative_hermitian(Dims(2, 2), np.random.default_rng(1))
        with pytest.raises(error, match=message):
            geometry_rows(witness, 2)

    def test_every_mixture_factor_is_checked(self, monkeypatch):
        def draw(dims, n, n_terms, rng):
            weights, mu, nu = draw_ensembles(dims, n, n_terms, rng)
            mu[1, 3] *= 1.5
            return weights, mu, nu

        monkeypatch.setattr(geometry_module, "draw_ensembles", draw)
        witness = random_negative_hermitian(Dims(2, 2), np.random.default_rng(1))
        with pytest.raises(InvalidParams, match=r"^mu_a \(1, 3\) is not unit norm"):
            geometry_rows(witness, 2)
