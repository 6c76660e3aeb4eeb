"""Versioned text artifacts and numeric helpers."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asas.errors import HeaderMismatch
from asas.mathutil import log_softmax, logsumexp, sigmoid
from asas.serialize import TOOL_VERSION, Artifact, artifact_header, digest, fmt_float
from oracles import artifact_dump_reference

# Values whose text form is easy to get wrong: NaN, both infinities, both
# zeros, subnormals down to the smallest, the float extremes, and values
# that need all 17 significant digits to round-trip.
_AWKWARD = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 1.7976931348623157e308, -2.2250738585072014e-308,
    0.1 + 0.2, 1 / 3, -2 / 3, 9007199254740993.0, 1.0000000000000002, 123456789.01234567,
]


class TestArtifact:
    def test_round_trip_arrays_tables_meta(self):
        rng = np.random.default_rng(0)
        art = Artifact(
            kind="demo",
            meta={"alpha": "1", "name": "thing"},
            arrays={"m": rng.normal(size=(3, 4)), "v": rng.normal(size=7)},
            tables={"rows": [["a", "1.5"], ["b", "2.5"]]},
        )
        back = Artifact.parse(art.dump(header=artifact_header(9, {"in": b"bytes"})))
        assert back.kind == "demo"
        assert back.meta == art.meta
        assert back.tables == art.tables
        assert np.array_equal(back.arrays["m"], art.arrays["m"])
        assert np.array_equal(back.arrays["v"][0], art.arrays["v"])

    def test_floats_round_trip_bit_exactly(self):
        values = np.array([1 / 3, 1e-300, -7.1e200, math.pi, -0.0])
        art = Artifact(kind="f", arrays={"x": values})
        back = Artifact.parse(art.dump())
        assert np.array_equal(back.arrays["x"][0], values)
        assert fmt_float(1 / 3) == repr(1 / 3)

    def test_header_is_first_line_and_parsed_past(self):
        art = Artifact(kind="h", meta={"k": "v"})
        text = art.dump(header=artifact_header(3, {"data.tsv": b"x"}))
        first = text.splitlines()[0]
        assert first.startswith("#asas\tversion=")
        assert "seed=3" in first and "data.tsv:" in first
        assert Artifact.parse(text).meta == {"k": "v"}

    def test_a_header_from_digests_equals_one_from_bytes(self):
        inputs = {"b.tsv": b"second", "a.tsv": b"first"}
        from_bytes = artifact_header(4, inputs)
        assert artifact_header(4, digests={n: digest(d) for n, d in inputs.items()}) == from_bytes
        assert from_bytes == f"#asas\tversion={TOOL_VERSION}\tseed=4\tinputs=" + (
            f"a.tsv:{digest(b'first')},b.tsv:{digest(b'second')}"
        )

    def test_rejects_foreign_files(self):
        with pytest.raises(HeaderMismatch):
            Artifact.parse("just a text file\n")

    def test_truncation_is_header_mismatch_or_whole_blocks(self):
        rng = np.random.default_rng(2)
        art = Artifact(
            kind="cut",
            meta={"alpha": "1"},
            arrays={"m": rng.normal(size=(3, 4)), "v": rng.normal(size=5)},
            tables={"rows": [["a", "1.5"], ["b", "2.5"]]},
        )
        text = art.dump(header=artifact_header(1))
        for cut in range(len(text)):
            try:
                back = Artifact.parse(text[:cut])
            except HeaderMismatch:
                continue
            assert back.meta.items() <= art.meta.items()
            assert back.tables.items() <= art.tables.items()
            for name, data in back.arrays.items():
                assert np.array_equal(data, np.atleast_2d(art.arrays[name]))

    def test_short_matrix_row_is_header_mismatch(self):
        text = "#asas-artifact v1 kind=w\n[matrix m 2 3]\n1.0\t2.0\t3.0\n1.0\t2.0\n"
        with pytest.raises(HeaderMismatch, match="row 2"):
            Artifact.parse(text)

    def test_require_names_the_missing_block(self):
        art = Artifact(kind="r", meta={"k": "v"}, arrays={"m": np.ones(2)})
        art.require(meta=("k",), arrays=("m",))
        with pytest.raises(HeaderMismatch, match="'t'"):
            art.require(meta=("k",), tables=("t",))

    def test_dump_equals_the_per_element_formatter(self):
        rng = np.random.default_rng(4)
        art = Artifact(
            kind="awkward",
            meta={"k": "v"},
            tables={"t": [["a", "b"]]},
            arrays={
                "special": np.array(_AWKWARD),
                "square": np.array(_AWKWARD[:16]).reshape(4, 4),
                "random": rng.normal(0, 1e3, size=(5, 7)) * 10.0 ** rng.integers(-300, 300, (5, 7)),
                "single": np.float32(rng.normal(size=(2, 3))),
                "ints": np.arange(6).reshape(2, 3),
                "empty_row": np.zeros(0),
                "no_rows": np.zeros((0, 3)),
            },
        )
        for header in (None, artifact_header(5, {"in": b"x"})):
            assert art.dump(header) == artifact_dump_reference(art, header)

    @given(st.lists(st.floats(width=64), min_size=1, max_size=24), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_any_floats_dump_and_parse_like_the_reference(self, values, n_rows):
        art = Artifact(kind="any", arrays={"m": np.array(values * n_rows).reshape(n_rows, -1)})
        text = art.dump()
        assert text == artifact_dump_reference(art)
        back = Artifact.parse(text).arrays["m"]
        want = np.array([[float(x) for x in row.split("\t")] for row in text.splitlines()[2:]])
        assert back.tobytes() == want.tobytes()

    def test_kind_check_on_load(self, tmp_path):
        path = tmp_path / "art.txt"
        Artifact(kind="one").save(path)
        with pytest.raises(HeaderMismatch):
            Artifact.load(path, expect_kind="two")


class TestMathUtil:
    def test_logsumexp_matches_direct_evaluation(self):
        v = np.array([0.1, -2.0, 3.5])
        assert logsumexp(v) == pytest.approx(math.log(sum(math.exp(x) for x in v)))

    def test_logsumexp_handles_extreme_values(self):
        assert logsumexp(np.array([-1e30, -1e30])) == pytest.approx(-1e30, rel=1e-12)
        assert math.isfinite(logsumexp(np.array([1e308, 1e308])) - 1e308)

    def test_log_softmax_rows_normalize(self):
        rng = np.random.default_rng(1)
        rows = log_softmax(rng.normal(0, 50, size=(10, 4)), axis=1)
        assert np.max(np.abs(logsumexp(rows, axis=1))) <= 1e-12

    def test_sigmoid_stable_and_symmetric(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5
        assert sigmoid(np.array([800.0]))[0] == 1.0
        assert sigmoid(np.array([-800.0]))[0] == 0.0
        z = np.linspace(-30, 30, 61)
        assert np.allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)

    def test_sigmoid_follows_a_float_dtype_and_takes_float64_otherwise(self):
        z = [-3, -1, 0, 2, 40]
        want = sigmoid(np.array(z, dtype=float))
        for given in (np.array(z), z, np.array(z, dtype=np.int8)):
            got = sigmoid(given)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert sigmoid(np.array(z, dtype=np.float32)).dtype == np.float32
