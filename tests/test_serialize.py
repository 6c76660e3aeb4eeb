"""Versioned text artifacts and numeric helpers."""
from __future__ import annotations

import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asas
from asas.errors import HeaderMismatch, MalformedRow
from asas.mathutil import log_softmax, logsumexp, sigmoid
from asas.serialize import (
    FORMAT_VERSION,
    TOOL_VERSION,
    Artifact,
    artifact_header,
    digest,
    fmt_float,
    require_finite,
    write_atomic,
)
from conftest import BAD_HEX_BLOCKS
from oracles import artifact_dump_reference, logsumexp_reference, sigmoid_masked_reference

# Values whose text form is easy to get wrong: NaN, both infinities, both
# zeros, subnormals down to the smallest, the float extremes, and values
# that need all 17 significant digits to round-trip.
_AWKWARD = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072009e-308, 1.7976931348623157e308, -2.2250738585072014e-308,
    0.1 + 0.2, 1 / 3, -2 / 3, 9007199254740993.0, 1.0000000000000002, 123456789.01234567,
]

# Every character besides '\n' that str.splitlines() breaks a line at, mixed
# into cells of any other characters but the tab.
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_CELL = st.text(
    st.sampled_from(_LINE_BREAKS) | st.characters(blacklist_characters="\t\n"), max_size=5
)
# One trailing '\r' is read as part of a CRLF line end, so a row's last cell
# is drawn without one.
_ROW = st.lists(_CELL, min_size=1, max_size=3).filter(lambda row: not row[-1].endswith("\r"))


def _matrices(min_cols: int):
    """Float64 matrices of up to 3 x 3 values: any float but a NaN, or the default NaN."""
    return st.tuples(st.integers(0, 3), st.integers(min_cols, 3)).flatmap(
        lambda shape: st.lists(
            st.floats(allow_nan=False) | st.just(math.nan),
            min_size=shape[0] * shape[1], max_size=shape[0] * shape[1],
        ).map(lambda values: np.array(values, dtype=float).reshape(shape))
    )


_MATRIX = _matrices(min_cols=1)

# Float64 bit patterns a text form could lose: quiet and signalling NaNs of
# both signs with payloads, both infinities, -0.0, the smallest and largest
# subnormals, and the largest finite float.
_EDGE_BITS = [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFF00000DEADBEEF,
    0x7FF0000000000000, 0xFFF0000000000000, 0x8000000000000000,
    0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x7FEFFFFFFFFFFFFF,
]
# Names, keys, values and cells: plain; a form that ends a line early, splits a
# cell, starts a comment or a block, or ends in '\r'; or any short text.
_ODD = st.sampled_from(
    ["", "a\tb", "a\nb", "a\r", "a\rb", "a b", "a\x85b", "#a", "[strings a", "[matrix a", "a]"]
)
_PLAIN = st.text("ab", min_size=1, max_size=2)
_TEXT = st.one_of(_PLAIN, _ODD, st.text(max_size=3))
_ANY_ARTIFACT = st.builds(
    Artifact,
    kind=_TEXT,
    meta=st.dictionaries(_TEXT, _TEXT, max_size=3),
    tables=st.dictionaries(_TEXT, st.lists(st.lists(_TEXT, max_size=3), max_size=3), max_size=2),
    arrays=st.dictionaries(_TEXT, _matrices(min_cols=0), max_size=2),
)


class TestArtifact:
    def test_round_trip_arrays_tables_meta(self):
        rng = np.random.default_rng(0)
        art = Artifact(
            kind="demo",
            meta={"alpha": "1", "name": "thing"},
            arrays={"m": rng.normal(size=(3, 4)), "v": rng.normal(size=7)},
            tables={"rows": [["a", "1.5"], ["b", "2.5"]]},
        )
        back = Artifact.parse(art.dump(header=artifact_header(9, {"in": digest(b"bytes")})))
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
        text = art.dump(header=artifact_header(3, {"data.tsv": digest(b"x")}))
        first = text.splitlines()[0]
        assert first.startswith("#asas\tversion=")
        assert "seed=3" in first and "data.tsv:" in first
        assert Artifact.parse(text).meta == {"k": "v"}

    def test_a_header_names_its_input_digests_in_name_order(self):
        inputs = {"b.tsv": b"second", "a.tsv": b"first"}
        header = artifact_header(4, digests={n: digest(d) for n, d in inputs.items()})
        assert header == f"#asas\tversion={TOOL_VERSION}\tseed=4\tinputs=" + (
            f"a.tsv:{digest(b'first')},b.tsv:{digest(b'second')}"
        )

    def test_the_header_version_is_the_package_version(self):
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
        assert TOOL_VERSION is asas.__version__
        assert declared == TOOL_VERSION

    def test_a_byte_order_mark_reads_as_without_one(self, tmp_path):
        art = Artifact(kind="ensemble", meta={"k": "v"}, arrays={"m": np.eye(2)})
        text = art.dump(header=artifact_header(3))
        path = tmp_path / "ensemble.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        for back in (Artifact.parse("\ufeff" + text), Artifact.load(path, "ensemble")):
            assert (back.kind, back.meta) == ("ensemble", {"k": "v"})
            assert back.arrays["m"].tobytes() == np.eye(2).tobytes()

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
        one = "000000000000f03f"  # 1.0
        text = f"#asas-artifact v2 kind=w\n[matrix m 2 3]\n{one * 3}\n{one * 2}\n"
        with pytest.raises(HeaderMismatch, match="row 2"):
            Artifact.parse(text)

    @pytest.mark.parametrize("block, names", BAD_HEX_BLOCKS.values(), ids=BAD_HEX_BLOCKS.keys())
    def test_a_matrix_row_not_as_dump_writes_it_is_header_mismatch(self, block, names):
        with pytest.raises(HeaderMismatch, match=f"^{names}"):
            Artifact.parse(f"#{FORMAT_VERSION} kind=r\n" + block)

    def test_a_block_size_of_more_digits_than_int_reads_is_header_mismatch(self):
        header = "[matrix x 1 " + "9" * 5000 + "]"
        with pytest.raises(HeaderMismatch, match=r"^bad block header '\[matrix x 1 9999") as caught:
            Artifact.parse(f"#asas-artifact v2 kind=r\n{header}\n00\n")
        assert header in str(caught.value)

    def test_an_older_format_file_says_to_refit(self):
        text = "#asas-artifact v1 kind=feature-model\n[matrix m 1 2]\n1.0\t2.0\n"
        with pytest.raises(HeaderMismatch) as caught:
            Artifact.parse("#asas\tversion=0.1.0\tseed=3\n" + text, "feature-model")
        assert str(caught.value) == (
            "file was written in the older asas-artifact v1 format and must be refit"
        )

    @pytest.mark.parametrize("body, names", [
        ("k\tv\nk\tw\n", "repeated key 'k'"),
        ("[strings t 1]\na\n[strings t 1]\nb\n", "repeated table 't'"),
        ("[matrix m 1 1]\n000000000000f03f\n[matrix m 1 1]\n0000000000000040\n",
         "repeated matrix 'm'"),
    ])
    def test_a_repeated_key_or_block_is_header_mismatch(self, body, names):
        with pytest.raises(HeaderMismatch, match=f"^{names}$"):
            Artifact.parse("#asas-artifact v2 kind=r\n" + body)

    def test_a_table_and_a_matrix_may_share_a_name(self):
        art = Artifact(kind="r", tables={"x": [["a"]]}, arrays={"x": np.ones((1, 1))})
        back = Artifact.parse(art.dump())
        assert back.tables == art.tables and np.array_equal(back.arrays["x"], art.arrays["x"])

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
                "no_rows": np.zeros((0, 3)),
            },
        )
        for header in (None, artifact_header(5, {"in": digest(b"x")})):
            assert art.dump(header) == artifact_dump_reference(art, header)

    @given(st.lists(st.floats(width=64), min_size=1, max_size=24), st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_any_floats_dump_and_parse_like_the_reference(self, values, n_rows):
        art = Artifact(kind="any", arrays={"m": np.array(values * n_rows).reshape(n_rows, -1)})
        text = art.dump()
        assert text == artifact_dump_reference(art)
        back = Artifact.parse(text).arrays["m"]
        want = np.array([
            [x for (x,) in struct.iter_unpack("<d", bytes.fromhex(row))]
            for row in text.splitlines()[2:]
        ])
        assert back.tobytes() == want.tobytes()

    @given(
        st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(_EDGE_BITS), min_size=1, max_size=12),
        st.integers(1, 3),
    )
    @example(_EDGE_BITS, 1)
    @settings(max_examples=200, deadline=None)
    def test_any_float64_bits_dump_and_parse_bit_exactly(self, bits, n_rows):
        arr = np.array(bits * n_rows, dtype=np.uint64).view(np.float64).reshape(n_rows, -1)
        back = Artifact.parse(Artifact(kind="bits", arrays={"m": arr}).dump()).arrays["m"]
        assert back.dtype == np.float64 and back.flags.writeable
        assert back.tobytes() == arr.tobytes()
        if np.isfinite(arr).all():
            require_finite("m", back)
        else:
            with pytest.raises(MalformedRow, match="block m holds a value that is not a finite"):
                require_finite("m", back)

    def test_kind_check_on_load(self, tmp_path):
        path = tmp_path / "art.txt"
        Artifact(kind="one").save(path)
        with pytest.raises(HeaderMismatch):
            Artifact.load(path, expect_kind="two")

    def test_line_breaks_other_than_newline_stay_inside_a_cell(self):
        art = Artifact(kind="ensemble-spec", tables={"members": [["a\x85b"], ["m2"]]})
        assert Artifact.parse(art.dump()).tables == {"members": [["a\x85b"], ["m2"]]}

    def test_crlf_lines_read_like_lf_lines(self):
        art = Artifact(
            kind="crlf", meta={"k": "v"}, tables={"t": [["a", "b"]]}, arrays={"m": np.eye(2)}
        )
        back = Artifact.parse(art.dump().replace("\n", "\r\n"))
        assert back.meta == art.meta and back.tables == art.tables
        assert back.arrays["m"].tobytes() == art.arrays["m"].tobytes()

    @given(
        st.dictionaries(st.sampled_from(["members", "t", "u"]), st.lists(_ROW, max_size=4)),
        st.dictionaries(st.sampled_from(["m", "v"]), _MATRIX),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_dump_then_parse_returns_the_same_blocks(self, tables, arrays):
        back = Artifact.parse(Artifact(kind="any", tables=tables, arrays=arrays).dump())
        assert back.tables == tables
        assert back.arrays.keys() == arrays.keys()
        for name, data in arrays.items():
            assert back.arrays[name].tobytes() == data.tobytes()

    @pytest.mark.parametrize("art", [
        Artifact(kind="e", arrays={"e": np.zeros(0)}),
        Artifact(kind="e", arrays={"e": np.zeros((2, 0))}),
        Artifact(kind="e", tables={"t": [["a"], []]}),
        Artifact(kind="e", tables={"members": [["a\r"]]}),
        Artifact(kind="e", meta={"[matrix m 1 1]": "v"}),
    ], ids=["zero-column row", "zero-column rows", "row of no cells", "trailing CR", "block key"])
    def test_dump_refuses_a_block_that_parse_would_change(self, art):
        with pytest.raises(ValueError, match="would not read back unchanged"):
            art.dump()

    @pytest.mark.parametrize("header", ["#asas\tinputs=tr\nain.tsv:0", "asas"])
    def test_dump_refuses_a_header_that_is_not_one_hash_line(self, header):
        with pytest.raises(ValueError, match=r"^header .* would not read back unchanged"):
            Artifact(kind="r").dump(header)

    def test_dump_names_the_first_table_row_that_would_not_read_back(self):
        art = Artifact(kind="e", tables={"t": [["a"], ["b\r"], ["c\td"]]})
        with pytest.raises(ValueError, match=r"^row of table t \['b\\r'\] would not"):
            art.dump()

    @given(_ANY_ARTIFACT)
    @example(Artifact(kind="k", tables={"t": [["a", "b\r"]]}))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_dump_refuses_or_parse_returns_the_artifact(self, art):
        try:
            text = art.dump()
        except ValueError:
            return
        back = Artifact.parse(text)
        assert (back.kind, back.meta, back.tables) == (art.kind, art.meta, art.tables)
        assert back.arrays.keys() == art.arrays.keys()
        for name, data in art.arrays.items():
            assert back.arrays[name].shape == data.shape
            assert back.arrays[name].tobytes() == data.tobytes()


class TestWriteAtomic:
    def test_writes_every_file_and_creates_its_directory(self, tmp_path):
        files = {tmp_path / "a.txt": "\u00e9\n", tmp_path / "sub" / "deeper" / "b.bin": b"\x00\xff"}
        write_atomic(files)
        assert (tmp_path / "a.txt").read_bytes() == "\u00e9\n".encode()
        assert (tmp_path / "sub" / "deeper" / "b.bin").read_bytes() == b"\x00\xff"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_a_failed_write_leaves_every_file_as_it_was(self, tmp_path, monkeypatch):
        (tmp_path / "a.txt").write_text("old a")
        real = Path.write_bytes

        def second_fails(path, data):
            if path.name == "b.txt.tmp":
                raise OSError("disk full")
            return real(path, data)

        monkeypatch.setattr(Path, "write_bytes", second_fails)
        with pytest.raises(OSError, match="disk full"):
            write_atomic({tmp_path / "a.txt": "new a", tmp_path / "b.txt": "new b"})
        assert (tmp_path / "a.txt").read_text() == "old a"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(st.lists(
        st.one_of(st.floats(-1e30, 1e30), st.sampled_from([0.0, -0.0, math.inf, -math.inf])),
        min_size=1, max_size=40,
    ))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_sigmoid_bitwise_equals_the_masked_reference(self, dtype, values):
        z = np.array(values, dtype=dtype)
        for arr in (z, z[:1].reshape(())):
            got, want = sigmoid(arr), sigmoid_masked_reference(arr)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    @given(st.lists(st.integers(1, 4), max_size=3), st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_logsumexp_keeps_its_value_shape_and_type(self, shape, data):
        size = math.prod(shape)
        values = data.draw(st.lists(
            st.one_of(st.floats(-1e300, 1e300), st.sampled_from([math.inf, -math.inf])),
            min_size=size, max_size=size,
        ))
        a = np.array(values, dtype=float).reshape(shape)
        with np.errstate(all="ignore"):  # an infinity overflows exp, an all -inf row log
            for axis in [None, *range(-len(shape), len(shape))]:
                got, want = logsumexp(a, axis), logsumexp_reference(a, axis)
                assert (type(got), got.dtype, got.shape) == (type(want), want.dtype, want.shape)
                assert got.tobytes() == want.tobytes()
            if shape:  # over a whole array the result is a 0-d array, not a scalar
                assert type(logsumexp(a)) is np.ndarray and logsumexp(a).shape == ()

    def test_sigmoid_follows_a_float_dtype_and_takes_float64_otherwise(self):
        z = [-3, -1, 0, 2, 40]
        want = sigmoid(np.array(z, dtype=float))
        for given in (np.array(z), z, np.array(z, dtype=np.int8)):
            got = sigmoid(given)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        assert sigmoid(np.array(z, dtype=np.float32)).dtype == np.float32
