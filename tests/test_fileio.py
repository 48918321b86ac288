"""Operator file format: round trips and rejection of malformed documents."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import random_hermitian
from spa_witness.errors import DimensionMismatch, NotHermitian, ParseError
from spa_witness.fileio import load_operator, load_operator_file, save_operator
from spa_witness.hakye import hakye_witness, reference_violation_params
from spa_witness.operators import Dims, make_hermitian


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def minimal_doc():
    return {
        "schema_version": 1,
        "dims": {"dA": 2, "dB": 2},
        "entries": [[[1.0 if r == s else 0.0, 0.0] for s in range(4)] for r in range(4)],
    }


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(123)
        op = random_hermitian(Dims(2, 3), rng)
        path = tmp_path / "op.json"
        save_operator(op, path)
        loaded = load_operator(path)
        assert loaded.dims == op.dims
        assert loaded.entries.tobytes() == op.entries.tobytes()

    def test_reference_witness_round_trips(self, tmp_path):
        op = hakye_witness(reference_violation_params())
        path = tmp_path / "hakye.json"
        save_operator(op, path, metadata={"label": "reference instance"})
        loaded, metadata = load_operator_file(path)
        assert loaded.entries.tobytes() == op.entries.tobytes()
        assert metadata == {"label": "reference instance"}

    def test_metadata_defaults_to_empty(self, tmp_path):
        path = write_doc(tmp_path / "op.json", minimal_doc())
        _, metadata = load_operator_file(path)
        assert metadata == {}

    def test_non_finite_refused(self, tmp_path):
        # the constructor gate forbids inf, so feed a duck-typed stand-in
        template = make_hermitian(np.eye(4, dtype=complex), Dims(2, 2))
        with pytest.raises(ValueError, match="non-finite"):
            save_operator(_InfOperator(template), tmp_path / "x.json")


class _InfOperator:
    """Duck-typed stand-in whose entries contain an infinity."""

    def __init__(self, template):
        self.dims = template.dims
        self.entries = template.entries.copy()
        self.entries[0, 0] = np.inf


class TestValidation:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError, match="invalid JSON"):
            load_operator(path)

    @pytest.mark.parametrize(
        "literal", ["1e400", "-1e400", "1" + "0" * 400], ids=["inf", "-inf", "big-int"]
    )
    def test_non_finite_entry_named(self, tmp_path, literal):
        text = json.dumps(minimal_doc()).replace("0.0", literal, 1)
        path = tmp_path / "inf.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="row 0, column 0 is not finite"):
            load_operator(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = write_doc(tmp_path / "bad.json", [1, 2, 3])
        with pytest.raises(ParseError, match="top level"):
            load_operator(path)

    def test_wrong_schema_version(self, tmp_path):
        doc = minimal_doc()
        doc["schema_version"] = 2
        with pytest.raises(ParseError, match="schema_version"):
            load_operator(write_doc(tmp_path / "bad.json", doc))

    def test_missing_dims(self, tmp_path):
        doc = minimal_doc()
        del doc["dims"]
        with pytest.raises(ParseError, match="dims"):
            load_operator(write_doc(tmp_path / "bad.json", doc))

    def test_non_integer_dims(self, tmp_path):
        doc = minimal_doc()
        doc["dims"] = {"dA": 2.0, "dB": 2}
        with pytest.raises(ParseError, match="integer"):
            load_operator(write_doc(tmp_path / "bad.json", doc))

    def test_row_count_mismatch(self, tmp_path):
        doc = minimal_doc()
        doc["dims"] = {"dA": 2, "dB": 3}
        with pytest.raises(DimensionMismatch, match="4 rows.*demand 6"):
            load_operator(write_doc(tmp_path / "bad.json", doc))

    def test_column_count_mismatch(self, tmp_path):
        doc = minimal_doc()
        doc["entries"][2] = doc["entries"][2][:3]
        with pytest.raises(DimensionMismatch, match="row 2 has 3 columns"):
            load_operator(write_doc(tmp_path / "bad.json", doc))

    def test_cell_not_a_pair(self, tmp_path):
        doc = minimal_doc()
        doc["entries"][1][3] = [1.0]
        with pytest.raises(ParseError, match="row 1, column 3"):
            load_operator(write_doc(tmp_path / "bad.json", doc))

    def test_cell_boolean_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["entries"][0][0] = [True, 0.0]
        with pytest.raises(ParseError, match="row 0, column 0"):
            load_operator(write_doc(tmp_path / "bad.json", doc))

    def test_non_hermitian_entries_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["entries"][0][1] = [0.5, 0.0]
        with pytest.raises(NotHermitian, match="row 0, column 1"):
            load_operator(write_doc(tmp_path / "bad.json", doc))

    def test_metadata_must_be_object(self, tmp_path):
        doc = minimal_doc()
        doc["metadata"] = "hello"
        with pytest.raises(ParseError, match="metadata"):
            load_operator_file(write_doc(tmp_path / "bad.json", doc))

    def test_integer_cells_accepted(self, tmp_path):
        doc = minimal_doc()
        doc["entries"] = [
            [[1 if r == s else 0, 0] for s in range(4)] for r in range(4)
        ]
        op = load_operator(write_doc(tmp_path / "ints.json", doc))
        np.testing.assert_allclose(op.entries, np.eye(4))
