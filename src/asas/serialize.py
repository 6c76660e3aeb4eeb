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
from pathlib import Path

import numpy as np

from .errors import HeaderMismatch

FORMAT_VERSION = "asas-artifact v1"
TOOL_VERSION = "0.1.0"


def fmt_float(x: float) -> str:
    return repr(float(x))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def artifact_header(seed: int | None, inputs: dict[str, bytes] | None = None) -> str:
    """One '#'-comment line: tool version, seed, input digests."""
    parts = [f"#asas\tversion={TOOL_VERSION}", f"seed={seed if seed is not None else '-'}"]
    if inputs:
        digests = ",".join(f"{name}:{digest(data)}" for name, data in sorted(inputs.items()))
        parts.append(f"inputs={digests}")
    return "\t".join(parts)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (str as UTF-8) to ``<name>.tmp`` beside ``path``, then rename it.

    The rename replaces ``path`` in one step, so ``path`` holds either its
    previous content or all of ``data``, never part of it.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
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
        lines = []
        if header:
            lines.append(header)
        lines.append(f"#{FORMAT_VERSION} kind={self.kind}")
        for key in sorted(self.meta):
            lines.append(f"{key}\t{self.meta[key]}")
        for name in sorted(self.tables):
            rows = self.tables[name]
            lines.append(f"[strings {name} {len(rows)}]")
            lines.extend("\t".join(row) for row in rows)
        for name in sorted(self.arrays):
            arr = np.atleast_2d(self.arrays[name])
            lines.append(f"[matrix {name} {arr.shape[0]} {arr.shape[1]}]")
            lines.extend("\t".join(fmt_float(x) for x in row) for row in arr)
        return "\n".join(lines) + "\n"

    def save(self, path: str | Path, header: str | None = None) -> None:
        write_atomic(path, self.dump(header))

    @classmethod
    def parse(cls, text: str) -> "Artifact":
        lines = text.splitlines()
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
        i = start + 1
        while i < len(lines):
            line = lines[i]
            if line.startswith("#") or line == "":
                i += 1
            elif line.startswith("[strings "):
                _, name, count = line[1:-1].split(" ")
                rows = _block_rows(lines, i, name, int(count))
                art.tables[name] = [row.split("\t") for row in rows]
                i += 1 + len(rows)
            elif line.startswith("[matrix "):
                _, name, n_rows, n_cols = line[1:-1].split(" ")
                rows = _block_rows(lines, i, name, int(n_rows))
                data = np.empty((len(rows), int(n_cols)), dtype=float)
                for j, row in enumerate(rows):
                    cells = row.split("\t")
                    if len(cells) != data.shape[1]:
                        raise HeaderMismatch(
                            f"matrix {name} row {j + 1} has {len(cells)} values, "
                            f"expected {data.shape[1]}"
                        )
                    data[j] = [float(x) for x in cells]
                art.arrays[name] = data
                i += 1 + len(rows)
            else:
                key, _, value = line.partition("\t")
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
        art = cls.parse(Path(path).read_text(encoding="utf-8"))
        if expect_kind is not None and art.kind != expect_kind:
            raise HeaderMismatch(f"expected kind={expect_kind}, found {art.kind}")
        return art


def _block_rows(lines: list[str], at: int, name: str, count: int) -> list[str]:
    """The ``count`` rows after the block header at ``lines[at]``; fewer means truncation."""
    rows = lines[at + 1:at + 1 + count]
    if len(rows) != count:
        raise HeaderMismatch(f"block {name} declares {count} rows, file has {len(rows)}")
    return rows
