"""Scatter rows for the witness-geometry report."""

from __future__ import annotations

import numpy as np
import pytest

from spa_witness.errors import InvalidParams
from spa_witness.geometry import GEOMETRY_COLUMNS, geometry_rows
from spa_witness.hakye import hakye_witness, reference_violation_params


def reference_rows(samples=6, seed=3):
    return geometry_rows(hakye_witness(reference_violation_params()), samples, seed)


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
