"""Versioned decimal text format for fitted models.

Artifacts are plain UTF-8 text: a version line, optional '#' comments,
``key<TAB>value`` metadata, and named blocks of either float matrices
(row-major, one row per line, repr() floats so values round-trip
bit-exactly) or string tables (rows of tab-separated cells). Every
artifact the pipeline writes starts with a header recording the tool
version, the seed, and digests of the inputs it was derived from.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from itertools import compress, count
from pathlib import Path

import numpy as np

from . import __version__ as TOOL_VERSION
from .errors import HeaderMismatch, MalformedRow

FORMAT_VERSION = "asas-artifact v1"


def fmt_float(x: float) -> str:
    return repr(float(x))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def artifact_header(seed: int, digests: dict[str, str] | None = None) -> str:
    """One '#'-comment line: tool version, seed, and the ``digest`` of each
    named input in ``digests``."""
    parts = [f"#asas\tversion={TOOL_VERSION}", f"seed={seed}"]
    if digests:
        parts.append("inputs=" + ",".join(f"{name}:{d}" for name, d in sorted(digests.items())))
    return "\t".join(parts)


def write_atomic(files: dict[Path, str | bytes]) -> None:
    """Write each of ``files`` (str as UTF-8) to ``<name>.tmp`` beside its path,
    creating its directory, and only then rename each ``.tmp`` over its path.

    A failure while writing leaves every path as it was, and no ``.tmp``: each
    rename replaces one path in one step. Only a failure between two renames
    can leave some paths new and the others as they were.
    """
    renames = {}
    try:
        for path, data in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            renames[tmp] = path
            tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        for tmp, path in renames.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in renames:
            tmp.unlink(missing_ok=True)
        raise


@dataclass
class Artifact:
    """Parsed artifact: metadata plus named matrix and string blocks."""

    kind: str
    meta: dict[str, str] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    tables: dict[str, list[list[str]]] = field(default_factory=dict)

    def dump(self, header: str | None = None) -> str:
        """The artifact as text; ValueError if ``parse`` would not read its kind,
        a meta key or value, a block name, a table row or a matrix back unchanged.
        Every NaN is written as ``nan``."""
        _check(_ends_a_line(self.kind), "kind", self.kind)
        lines = []
        if header:
            lines.append(header)
        lines.append(f"#{FORMAT_VERSION} kind={self.kind}")
        for key in sorted(self.meta):
            key_ok = "\t" not in key and "\n" not in key and not key.startswith(_NOT_META)
            _check(key_ok, "key", key)
            _check(_ends_a_line(self.meta[key]), f"value of {key}", self.meta[key])
            lines.append(f"{key}\t{self.meta[key]}")
        for name in sorted(self.tables):
            rows = self.tables[name]
            _check(_block_name(name), "table name", name)
            for row in rows:
                cells_ok = not any("\t" in cell or "\n" in cell for cell in row)
                _check(row and cells_ok and _ends_a_line(row[-1]), f"row of table {name}", row)
            lines.append(f"[strings {name} {len(rows)}]")
            lines.extend("\t".join(row) for row in rows)
        for name in sorted(self.arrays):
            arr = np.atleast_2d(np.asarray(self.arrays[name], dtype=float))
            _check(_block_name(name), "matrix name", name)
            shape_ok = arr.ndim == 2 and (arr.shape[1] > 0 or arr.shape[0] == 0)
            _check(shape_ok, f"shape of matrix {name}", arr.shape)
            lines.append(f"[matrix {name} {arr.shape[0]} {arr.shape[1]}]")
            # tolist() gives Python floats, whose repr is fmt_float's.
            lines.extend("\t".join(map(repr, row.tolist())) for row in arr)
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path, header: str | None = None) -> None:
        write_atomic({Path(path): self.dump(header)})

    @classmethod
    def parse(cls, data: bytes | str, expect_kind: str | None = None) -> "Artifact":
        """The artifact in ``data``, read by ``decode``; HeaderMismatch if it is
        not one, is truncated, repeats a meta key or a table or matrix name, or
        is not of kind ``expect_kind`` (when given). Lines end at each '\\n',
        as ``dump`` joins them, less one trailing '\\r'."""
        text = decode(data)
        lines = _split_lines(text)
        if lines[-1] == "":
            lines.pop()  # the final newline ends the last line
        start = 0
        while start < len(lines) and not lines[start].startswith(f"#{FORMAT_VERSION} kind="):
            if not lines[start].startswith("#"):
                raise HeaderMismatch(f"not a {FORMAT_VERSION} file")
            start += 1
        if start == len(lines):
            raise HeaderMismatch(f"not a {FORMAT_VERSION} file")
        if not text.endswith("\n"):
            raise HeaderMismatch("file is truncated: its last line has no newline")
        art = cls(kind=lines[start].split("kind=", 1)[1])
        if expect_kind is not None and art.kind != expect_kind:
            raise HeaderMismatch(f"expected kind={expect_kind}, found {art.kind}")
        i = start + 1
        while i < len(lines):
            line = lines[i]
            if line.startswith("#") or line == "":
                i += 1
            elif line.startswith("[strings "):
                name, count = _block_header(line, 1)
                _refuse_repeat(art.tables, "table", name)
                rows = _block_rows(lines, i, name, count)
                art.tables[name] = [row.split("\t") for row in rows]
                i += 1 + len(rows)
            elif line.startswith("[matrix "):
                name, n_rows, n_cols = _block_header(line, 2)
                _refuse_repeat(art.arrays, "matrix", name)
                rows = _block_rows(lines, i, name, n_rows)
                art.arrays[name] = _matrix(name, rows, n_cols)
                i += 1 + len(rows)
            else:
                key, _, value = line.partition("\t")
                _refuse_repeat(art.meta, "key", key)
                art.meta[key] = value
                i += 1
        return art

    def require(self, meta=(), tables=(), arrays=()) -> None:
        """Raise HeaderMismatch naming the first listed key or block that is absent."""
        for what, present, names in (
            ("key", self.meta, meta), ("table", self.tables, tables), ("matrix", self.arrays, arrays)
        ):
            for name in names:
                if name not in present:
                    raise HeaderMismatch(f"{self.kind} artifact has no {what} {name!r}")

    @classmethod
    def load(cls, path: str | Path, expect_kind: str | None = None) -> "Artifact":
        return cls.parse(Path(path).read_bytes(), expect_kind)


def _split_lines(text: str) -> list[str]:
    """The lines of ``text``: it is split at each '\\n', and one trailing '\\r'
    is dropped from each line."""
    lines = text.split("\n")
    return [line.removesuffix("\r") for line in lines] if "\r" in text else lines


def decode(data: bytes | str) -> str:
    """The text of a tab-separated input: bytes decoded as UTF-8, less one
    leading byte-order mark."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return text.removeprefix("\ufeff")


def data_rows(data: bytes | str) -> tuple[list[int], list[str]]:
    """The line numbers and the lines of ``data`` that are neither blank nor a '#' comment.

    ``data`` is read by ``decode`` and its lines end as ``_split_lines`` ends
    them; numbers count every line from 1, comments and blank lines included."""
    lines = _split_lines(decode(data))
    keep = [line != "" and line[0] != "#" for line in lines]
    return list(compress(count(1), keep)), list(compress(lines, keep))


# A meta key starting with one of these would read back as a comment or a block.
_NOT_META = ("#", "[strings ", "[matrix ")


def _ends_a_line(text: str) -> bool:
    """Whether ``text`` reads back whole at the end of a line: it holds no
    newline, and no '\\r' that ``parse`` would take for part of a CRLF."""
    return "\n" not in text and not text.endswith("\r")


def _block_name(name: str) -> bool:
    return name != "" and " " not in name and "\n" not in name


def _check(ok: bool, what: str, value) -> None:
    """ValueError naming ``what`` and its ``value`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{what} {value!r} would not read back unchanged")


def _refuse_repeat(seen: dict, what: str, name: str) -> None:
    """HeaderMismatch if ``seen`` already holds ``name``: a file that repeats a
    key or block has no one meaning."""
    if name in seen:
        raise HeaderMismatch(f"repeated {what} {name!r}")


def _block_header(line: str, n_sizes: int) -> tuple:
    """(name, *sizes) of block header ``[kind name size...]``; HeaderMismatch
    unless it holds a name and ``n_sizes`` non-negative integers."""
    _, name, *sizes = line[1:].removesuffix("]").split(" ")  # the kind ends in a space
    digits = all(size.isascii() and size.isdigit() for size in sizes)
    if not (line.endswith("]") and name and len(sizes) == n_sizes and digits):
        raise HeaderMismatch(
            f"bad block header {line!r}: expected a name and {n_sizes} non-negative integer sizes"
        )
    return name, *map(int, sizes)


def _matrix(name: str, rows: list[str], n_cols: int) -> np.ndarray:
    """The float matrix of a block's rows; each row's width is checked before
    the declared width is allocated."""
    for j, row in enumerate(rows):
        width = row.count("\t") + 1
        if width != n_cols:
            raise HeaderMismatch(f"matrix {name} row {j + 1} has {width} values, expected {n_cols}")
    data = np.empty((len(rows), n_cols), dtype=float)
    for j, row in enumerate(rows):
        try:
            data[j] = list(map(float, row.split("\t")))
        except ValueError:
            raise HeaderMismatch(f"matrix {name} row {j + 1} holds a non-number") from None
    return data


def row_vector(arrays: dict[str, np.ndarray], name: str) -> np.ndarray:
    """The one row of matrix ``name``; HeaderMismatch unless it has exactly one."""
    rows = len(arrays[name])
    if rows != 1:
        raise HeaderMismatch(f"matrix {name} has {rows} rows, expected 1")
    return arrays[name][0]


def require_finite(name: str, values) -> None:
    """MalformedRow unless every value of block ``name`` is a finite number."""
    if not np.isfinite(values).all():
        raise MalformedRow(f"block {name} holds a value that is not a finite number")


def _block_rows(lines: list[str], at: int, name: str, count: int) -> list[str]:
    """The ``count`` rows after the block header at ``lines[at]``; fewer means truncation."""
    rows = lines[at + 1:at + 1 + count]
    if len(rows) != count:
        raise HeaderMismatch(f"block {name} declares {count} rows, file has {len(rows)}")
    return rows
