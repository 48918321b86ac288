"""Operator file format: round trips and rejection of malformed documents."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from oracles import load_operator_file_per_cell, save_operator_per_entry
from spa_witness.cli import main
from spa_witness.errors import DimensionMismatch, NotHermitian, ParseError
from spa_witness.fileio import load_operator, load_operator_file, save_operator
from spa_witness.hakye import hakye_witness, reference_violation_params
from spa_witness.operators import Dims, HermitianOperator


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
        template = HermitianOperator(Dims(2, 2), np.eye(4, dtype=complex))
        with pytest.raises(ParseError, match="non-finite"):
            save_operator(_InfOperator(template), tmp_path / "x.json")

    # each is a document its own loader refuses, so nothing is written
    @pytest.mark.parametrize("metadata", [{"n": 3}, ["x"]], ids=["int-value", "list"])
    def test_metadata_the_loader_refuses_is_not_saved(self, tmp_path, metadata):
        op = HermitianOperator(Dims(2, 2), np.eye(4, dtype=complex))
        path = tmp_path / "x.json"
        with pytest.raises(ParseError, match=f"{path}: metadata"):
            save_operator(op, path, metadata=metadata)
        assert not path.exists()

    # JSON keys are strings: an int key would load back as "1", a tuple key
    # made json.dump fail after part of the file was written
    @pytest.mark.parametrize("key", [1, (1, 2)], ids=["int", "tuple"])
    def test_metadata_keys_must_be_strings(self, tmp_path, key):
        op = HermitianOperator(Dims(2, 2), np.eye(4, dtype=complex))
        path = tmp_path / "x.json"
        with pytest.raises(ParseError) as refused:
            save_operator(op, path, metadata={key: "x"})
        assert str(refused.value) == f"{path}: metadata key {key!r} must be a string"
        assert not path.exists()


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

    # true == 1 and 1.0 == 1, but neither is a JSON integer
    @pytest.mark.parametrize(
        "header, message",
        [
            ({"schema_version": True}, "schema_version True unsupported"),
            ({"schema_version": 1.0}, "schema_version 1.0 unsupported"),
            ({"dims": {"dA": True, "dB": 2}}, "dims must be an object with integer dA and dB"),
        ],
        ids=["version-true", "version-float", "dims-true"],
    )
    def test_header_integers_must_be_json_integers(self, tmp_path, header, message):
        path = write_doc(tmp_path / "bad.json", minimal_doc() | header)
        with pytest.raises(ParseError, match=message):
            load_operator(path)
        assert outcome(load_operator_file, path) == outcome(load_operator_file_per_cell, path)

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

    # a non-string value, NaN included (json.load reads it), names the key
    @pytest.mark.parametrize("literal", ["NaN", "1.5", "null", "true", '["x"]', "{}"])
    def test_metadata_values_must_be_strings(self, tmp_path, literal):
        doc = minimal_doc() | {"metadata": {"label": "x", "note": "<value>"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace('"<value>"', literal), encoding="utf-8")
        with pytest.raises(ParseError, match=f"{path}: metadata 'note' must be a string"):
            load_operator_file(path)
        assert outcome(load_operator_file, path) == outcome(load_operator_file_per_cell, path)

    def test_integer_cells_accepted(self, tmp_path):
        doc = minimal_doc()
        doc["entries"] = [
            [[1 if r == s else 0, 0] for s in range(4)] for r in range(4)
        ]
        op = load_operator(write_doc(tmp_path / "ints.json", doc))
        np.testing.assert_allclose(op.entries, np.eye(4))


def outcome(loader, path):
    """The matrix bytes and metadata a loader returns, or its error class and message."""
    try:
        op, metadata = loader(path)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)
    return op.entries.tobytes(), metadata


FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0.0, -0.0, 0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308]),
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -(10**309)])
NUMBER = st.one_of(FINITE, st.integers(-(10**400), 10**400), NON_FINITE)
NOT_NUMBER = st.one_of(
    st.booleans(), st.none(), FINITE.map(str), st.sampled_from(["1.5", "NaN", "", "1e400"])
)
ANY = st.one_of(NUMBER, NOT_NUMBER)
BAD_CELL = st.one_of(
    ANY,
    st.tuples(NUMBER, NUMBER).map(list),
    st.tuples(NON_FINITE, FINITE).map(list),
    st.tuples(FINITE, NON_FINITE).map(list),
    st.lists(NUMBER, max_size=4),
    st.tuples(ANY, ANY).map(list),
    st.tuples(NUMBER, NUMBER).map(lambda c: [list(c)]),
    st.tuples(NUMBER, NUMBER).map(lambda c: [list(c), 0.0]),
)
BAD_ROW = st.one_of(
    ANY,
    st.dictionaries(st.text(max_size=2), FINITE, max_size=2),
    st.lists(st.tuples(FINITE, FINITE).map(list), max_size=10),
)


@st.composite
def operator_documents(draw):
    """Operator-file documents: a Hermitian matrix of finite JSON numbers, with
    up to three cells and one row replaced by other values, malformed or not,
    and a header whose integers may be booleans, floats or strings."""
    dA, dB = draw(st.sampled_from([(2, 2), (2, 3), (3, 3)]))
    n = dA * dB
    rows = [[None] * n for _ in range(n)]
    for r in range(n):
        rows[r][r] = [draw(FINITE), draw(st.sampled_from([0, 0.0, -0.0]))]
        for s in range(r + 1, n):
            x, y = draw(FINITE), draw(FINITE)
            rows[r][s], rows[s][r] = [x, y], [x, -y]
    for k, cell in draw(st.lists(st.tuples(st.integers(0, n * n - 1), BAD_CELL), max_size=3)):
        rows[k // n][k % n] = cell
    # a row is replaced in about one document in three
    bad_row = draw(st.one_of(st.none(), st.none(), st.tuples(st.integers(0, n - 1), BAD_ROW)))
    if bad_row is not None:
        rows[bad_row[0]] = bad_row[1]
    # the version is a look-alike in one document in three, a dim in one in six
    version = draw(st.sampled_from([1] * 8 + [True, 1.0, "1", 2]))
    header_dims = {"dA": dA, "dB": dB}
    if draw(st.integers(0, 5)) == 0:
        header_dims[draw(st.sampled_from(["dA", "dB"]))] = draw(st.sampled_from([True, 2.0]))
    doc = {"schema_version": version, "dims": header_dims, "entries": rows}
    if draw(st.booleans()):
        doc["metadata"] = {"label": "generated"}
    return doc


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("docs")


class TestLoaderParity:
    """The single-pass loader against the per-cell reference loader in tests/oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(doc=operator_documents())
    def test_generated_documents(self, doc_dir, doc):
        # allow_nan writes the NaN and Infinity literals json.load accepts
        path = doc_dir / "doc.json"
        path.write_text(json.dumps(doc, allow_nan=True), encoding="utf-8")
        assert outcome(load_operator_file, path) == outcome(load_operator_file_per_cell, path)

    @pytest.mark.parametrize(
        "cells, error, message",
        [
            ({(0, 1): "1e400", (0, 2): '"1.5"'}, ParseError, "row 0, column 1 is not finite"),
            ({(0, 1): "Infinity", (0, 2): "true"}, ParseError, "row 0, column 1 is not finite"),
            ({(0, 1): "1" + "0" * 400, (0, 2): "null"}, ParseError, "row 0, column 1 is not finite"),
            ({(0, 1): '"1.5"', (0, 2): "NaN"}, ParseError, "row 0, column 1 is not a"),
            ({(1, 2): "true", (3, None): None}, ParseError, "row 1, column 2 is not a"),
            ({(1, 2): "NaN", (3, None): None}, ParseError, "row 1, column 2 is not finite"),
            ({(1, None): None, (2, 0): "NaN"}, DimensionMismatch, "row 1 has 3 columns"),
        ],
        ids=[
            "inf-before-string", "inf-before-bool", "big-int-before-null", "string-before-nan",
            "bool-before-short-row", "nan-before-short-row", "short-row-before-nan",
        ],
    )
    def test_first_failure_in_row_major_order_wins(self, tmp_path, cells, error, message):
        """Each cell (r, s) gets the literal as its real part; (r, None) drops row r's last cell."""
        rows = [[["1.0" if r == s else "0.0", "0.0"] for s in range(4)] for r in range(4)]
        for (r, s), literal in cells.items():
            if s is None:
                rows[r].pop()
            else:
                rows[r][s][0] = literal
        entries = ", ".join(
            "[" + ", ".join(f"[{re}, {im}]" for re, im in row) + "]" for row in rows
        )
        path = tmp_path / "doc.json"
        path.write_text(
            f'{{"schema_version": 1, "dims": {{"dA": 2, "dB": 2}}, "entries": [{entries}]}}',
            encoding="utf-8",
        )
        with pytest.raises(error, match=message):
            load_operator(path)
        assert outcome(load_operator_file, path) == outcome(load_operator_file_per_cell, path)


class TestWriterParity:
    """save_operator against the per-entry reference writer in tests/oracles.py."""

    @pytest.mark.parametrize("dims", [Dims(2, 2), Dims(2, 3), Dims(3, 3)], ids=str)
    def test_random_operators_with_negative_zeros(self, tmp_path, dims):
        rng = np.random.default_rng(dims.dAB)
        for trial in range(5):
            m = random_hermitian(dims, rng, scale=10.0 ** rng.integers(-300, 300)).entries.copy()
            # signed zeros in both parts, kept Hermitian by mirroring
            r, s = rng.integers(0, dims.dAB, size=2)
            m[r, s] = m[s, r] = complex(-0.0, 0.0)
            m[0, 0] = complex(m[0, 0].real, -0.0)
            op = HermitianOperator(dims, m)
            new, old = tmp_path / f"new{trial}.json", tmp_path / f"old{trial}.json"
            save_operator(op, new, metadata={"label": "x"})
            save_operator_per_entry(op, old, metadata={"label": "x"})
            assert new.read_bytes() == old.read_bytes()
            assert b"-0.0" in new.read_bytes()

    def test_hakye_save_operator_unchanged(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        code = main(["hakye", "--cos-family", "--theta", "0.2618", "--save-operator", str(path)])
        capsys.readouterr()
        assert code == 3
        reference = tmp_path / "reference.json"
        metadata = json.loads(path.read_text(encoding="utf-8"))["metadata"]
        save_operator_per_entry(load_operator(path), reference, metadata=metadata)
        assert path.read_bytes() == reference.read_bytes()
