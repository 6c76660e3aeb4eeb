"""Dataset ingestion, dev splitting, corpus statistics, external artifacts.

A corpus is one prompt's responses partitioned into train/dev/test. The
dev split is an unstratified seeded shuffle of the training data. Model
predictions and sentence embeddings enter the pipeline as external
tab-separated files loaded here by one reader; log-probability rows are
renormalized with log-softmax on load so files from different producers
are comparable.
"""
from __future__ import annotations

import random
from collections.abc import Callable, Iterable
from dataclasses import astuple, dataclass
from itertools import compress, count, repeat
from operator import itemgetter, length_hint

import numpy as np

from .errors import (
    AsasError,
    DuplicateId,
    EmptyInput,
    HeaderMismatch,
    MissingEmbedding,
    MissingSecondRead,
    MalformedRow,
    NonIntegerScore,
    RowLengthMismatch,
    UnknownResponseId,
)
from .mathutil import logsumexp
from .metrics import accuracy, qwk
from .serialize import data_rows, decode, fmt_float


@dataclass(frozen=True)
class ScoredResponse:
    """One student response with up to two human reads."""

    id: str
    prompt_id: int
    text: str
    score1: int | None = None
    score2: int | None = None


@dataclass(frozen=True)
class ColumnMap:
    """Names of the dataset columns holding each field.

    A score column missing from the header (unlabeled test files) loads
    as None.
    """

    id: str = "Id"
    prompt: str = "EssaySet"
    score1: str = "Score1"
    score2: str = "Score2"
    text: str = "EssayText"


DEFAULT_COLUMNS = ColumnMap()


def _prompt_id(cell: str) -> int:
    try:
        value = int(cell)
    except ValueError:
        raise NonIntegerScore("prompt id is not an integer") from None
    if value < 0:
        raise MalformedRow(f"prompt id {value} is negative")
    return value


def _score(cell: str) -> int | None:
    cell = cell.strip()
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        raise NonIntegerScore(f"score {cell!r} is not an integer") from None


def _refuse_repeats(header: list[str], *names: str) -> None:
    """HeaderMismatch naming the first of ``names`` that ``header`` holds twice."""
    for name in names:
        if header.count(name) > 1:
            raise HeaderMismatch(f"repeated column in header: {name!r}")


# The readers check a file column by column. Each check finds the first row
# that fails it and lists that fault; ``_raise_first`` then raises the fault of
# the lowest row, and on one row the one listed first. Checks are listed in
# the order a row is checked, so this is the fault a row-by-row reader stops at.
_Faults = list[tuple[int, AsasError]]  # (row index, its error), in check order


def _raise_first(faults: _Faults) -> None:
    if faults:
        raise min(faults, key=itemgetter(0))[1]


def _first(flags: Iterable) -> int | None:
    """Index of the first true item of ``flags``, or None."""
    return next(compress(count(), flags), None)


def _first_in(items: list, wanted) -> int | None:
    """Index of the first item of ``items`` in the container ``wanted``, or None."""
    return _first(map(wanted.__contains__, items)) if wanted else None


def _first_starting(items: list[str], prefix: str) -> int | None:
    """Index of the first of ``items`` that starts with ``prefix``, or None;
    no item may hold a newline."""
    joined = "\n" + "\n".join(items)
    at = joined.find("\n" + prefix)
    return None if at < 0 else joined.count("\n", 0, at)


def _first_repeat(items: list) -> int | None:
    """Index of the first item of ``items`` equal to an earlier one, or None."""
    if len(set(items)) == len(items):
        return None
    first = dict(zip(reversed(items), range(len(items) - 1, -1, -1)))  # item -> first index
    return min(set(range(len(items))).difference(first.values()))


def _cells(lines: list[str], delim: str, n_fields: int) -> tuple[list[str], int | None, int]:
    """(the fields of ``lines`` in one flat list, row after row, up to the first
    line that does not hold ``n_fields`` fields; that line's index, or None;
    its field count). ``lines`` is emptied, so each line can be freed once cut."""
    counts = list(map(str.count, lines, repeat(delim)))
    i = None
    if counts.count(n_fields - 1) != len(counts):
        i = _first(map((n_fields - 1).__ne__, counts))
        del lines[i:]
    got = 0 if i is None else counts[i] + 1
    if not lines:
        return [], i, got
    joined = delim.join(lines)
    lines.clear()
    return joined.split(delim), i, got


def _values(
    cells: list[str], convert: Callable[[str], object], numbers: list[int], faults: _Faults
) -> dict[str, object]:
    """Each distinct cell of ``cells`` mapped to ``convert(cell)``. The first
    row whose cell ``convert`` refuses with an ``AsasError`` is listed in
    ``faults``, its line number put before the message; a refused cell is
    left out of the map."""
    value_of, refused = {}, {}
    for cell in set(cells):
        try:
            value_of[cell] = convert(cell)
        except AsasError as exc:
            refused[cell] = exc
    i = _first_in(cells, refused)
    if i is not None:
        exc = refused[cells[i]]
        faults.append((i, type(exc)(f"row {numbers[i]}: {exc}")))
    return value_of


def parse_dataset(
    data: bytes | str,
    columns: ColumnMap = DEFAULT_COLUMNS,
    prompts: set[int] | None = None,
    solution: dict[str, int] | None = None,
) -> list[ScoredResponse]:
    """Parse a tab-separated dataset with a header row.

    Missing score cells, and score columns missing from the header, map
    to None; a column of ``columns`` that the header names twice is
    HeaderMismatch. Ids must be unique within a prompt. Every row is checked,
    and the first faulty row in file order is reported; a row is checked for
    its field count, a non-negative integer prompt id, an id that does not
    start with '#' (a writer would put it first on a line, where it reads
    back as a comment), a new (prompt, id) pair and integer score cells, in
    that order. A record is built only for a row whose prompt is in
    ``prompts`` (every row when None). With a ``solution`` table, each row's
    score1 comes from it, checked after the row's own score cells, and a row
    of any prompt missing from it is UnknownResponseId. The file is checked
    column by column, and each distinct prompt and score cell is converted
    once.
    """
    numbers, lines = data_rows(data)
    if not lines:
        raise MalformedRow("no header row found")
    header = lines[0].split("\t")
    _refuse_repeats(header, *astuple(columns))
    try:
        i_id = header.index(columns.id)
        i_prompt = header.index(columns.prompt)
        i_text = header.index(columns.text)
    except ValueError as exc:
        raise HeaderMismatch(f"missing column in header: {exc}") from None
    scores = columns.score1, columns.score2
    i_score1, i_score2 = (header.index(col) if col in header else None for col in scores)
    del numbers[0], lines[0]

    n = len(header)
    faults: _Faults = []
    cells, i, got = _cells(lines, "\t", n)
    if i is not None:
        faults.append((i, MalformedRow(f"row {numbers[i]}: expected {n} fields, got {got}")))
    rids = list(map(str.strip, cells[i_id::n]))
    prompt_cells, texts = cells[i_prompt::n], cells[i_text::n]
    score_cells = [None if at is None else cells[at::n] for at in (i_score1, i_score2)]
    del cells
    prompt_of = _values(prompt_cells, _prompt_id, numbers, faults)
    i = _first_starting(rids, "#")  # a cell holds no newline
    if i is not None:
        faults.append((i, MalformedRow(
            f"row {numbers[i]}: id {rids[i]!r} starts with '#', which marks a comment"
        )))
    # A (prompt, id) pair repeats only where its id does. A row whose prompt
    # cell was refused pairs as (None, id): any repeat it makes is on or after
    # that row, whose prompt fault comes first.
    if _first_repeat(rids) is not None:
        pids = list(map(prompt_of.get, prompt_cells))
        i = _first_repeat(list(zip(pids, rids)))
        if i is not None:
            faults.append((i, DuplicateId(
                f"row {numbers[i]}: duplicate id {rids[i]!r} in prompt {pids[i]}"
            )))
    score_of = [
        None if col is None else _values(col, _score, numbers, faults) for col in score_cells
    ]
    if solution is not None:
        i = _first_in(rids, set(rids).difference(solution))
        if i is not None:
            faults.append((i, UnknownResponseId(f"no score for response {rids[i]!r}")))
    _raise_first(faults)

    wanted = {cell for cell, pid in prompt_of.items() if prompts is None or pid in prompts}
    keep = list(map(wanted.__contains__, prompt_cells))
    rids, prompt_cells, texts = (list(compress(col, keep)) for col in (rids, prompt_cells, texts))
    score1, score2 = (
        repeat(None) if col is None else map(of.__getitem__, compress(col, keep))
        for col, of in zip(score_cells, score_of)
    )
    if solution is not None:
        score1 = map(solution.__getitem__, rids)
    pids = map(prompt_of.__getitem__, prompt_cells)
    return list(map(ScoredResponse, rids, pids, texts, score1, score2))


def _line_start_id(rid: str) -> str:
    """``rid``, to open a line; ValueError if it starts with '#', as that
    line would read back as a comment."""
    if rid.startswith("#"):
        raise ValueError(f"id {rid!r} would not read back unchanged")
    return rid


def serialize_dataset(
    responses: list[ScoredResponse], columns: ColumnMap = DEFAULT_COLUMNS
) -> bytes:
    """Inverse of parse_dataset for well-formed records; ValueError on an id,
    or an id column name, that starts with '#', as its line would read back
    as a comment."""
    names = [columns.prompt, columns.score1, columns.score2, columns.text]
    out = ["\t".join([_line_start_id(columns.id), *names])]
    for r in responses:
        s1 = "" if r.score1 is None else str(r.score1)
        s2 = "" if r.score2 is None else str(r.score2)
        out.append("\t".join([_line_start_id(r.id), str(r.prompt_id), s1, s2, r.text]))
    return ("\n".join(out) + "\n").encode("utf-8")


def split_dev(
    responses: list[ScoredResponse], dev_fraction: float, seed: int
) -> tuple[list[ScoredResponse], list[ScoredResponse]]:
    """Partition one prompt's responses into (train, dev).

    The dev set holds round(dev_fraction * N) items chosen by a seeded
    Fisher-Yates shuffle; both halves keep the input order, and neither
    may be empty. The shuffle
    is written out explicitly so the partition is stable across Python
    versions for a given seed.
    """
    if not responses:
        raise EmptyInput("no responses to split")
    if not 0.0 < dev_fraction < 1.0:
        raise ValueError(f"dev_fraction must be in (0, 1), got {dev_fraction}")
    prompts = {r.prompt_id for r in responses}
    if len(prompts) != 1:
        raise ValueError(f"split_dev expects a single prompt, got {sorted(prompts)}")
    n = len(responses)
    n_dev = round(dev_fraction * n)
    if not 0 < n_dev < n:
        half = "dev" if n_dev == 0 else "train"
        raise EmptyInput(
            f"a dev fraction of {dev_fraction} of {n} responses leaves the {half} split empty"
        )
    rng = random.Random(seed)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.randrange(i + 1)
        order[i], order[j] = order[j], order[i]
    dev_idx = set(order[:n_dev])
    train = [r for i, r in enumerate(responses) if i not in dev_idx]
    dev = [r for i, r in enumerate(responses) if i in dev_idx]
    return train, dev


def prompt_seed(base_seed: int, prompt_id: int) -> int:
    """Per-prompt split seed: each prompt gets its own shuffle stream."""
    return base_seed + prompt_id


@dataclass(frozen=True)
class PromptCorpus:
    """All responses for one prompt, partitioned train/dev/test.

    The label range is derived from the scores observed in train and dev:
    num_classes = max - min + 1, and zero-based labels are raw scores
    minus min_score.
    """

    prompt_id: int
    train: list[ScoredResponse]
    dev: list[ScoredResponse]
    test: list[ScoredResponse]
    num_classes: int
    min_score: int

    def labels(self, split: list[ScoredResponse]) -> np.ndarray:
        """Zero-based score1 labels for a split."""
        return np.array([r.score1 - self.min_score for r in split], dtype=np.int64)

    def all_responses(self) -> list[ScoredResponse]:
        return list(self.train) + list(self.dev) + list(self.test)


def build_corpus(
    responses: list[ScoredResponse],
    prompt_id: int,
    dev_fraction: float = 0.2,
    seed: int = 0,
    test: list[ScoredResponse] | None = None,
) -> PromptCorpus:
    """Filter one prompt, split off dev, derive the label range."""
    pool = [r for r in responses if r.prompt_id == prompt_id]
    if not pool:
        raise EmptyInput("no responses")
    for r in pool:
        if r.score1 is None:
            raise MalformedRow(f"response {r.id!r} has no score1 to train on")
    train, dev = split_dev(pool, dev_fraction, seed)
    test = [r for r in (test or []) if r.prompt_id == prompt_id]

    observed = [r.score1 for r in pool]
    observed += [r.score2 for r in pool if r.score2 is not None]
    min_score, max_score = min(observed), max(observed)
    num_classes = max_score - min_score + 1
    if num_classes < 2:
        raise EmptyInput("a single observed score value")

    ids = [r.id for r in train] + [r.id for r in dev] + [r.id for r in test]
    if len(ids) != len(set(ids)):
        raise DuplicateId("train/dev/test ids are not disjoint")
    return PromptCorpus(
        prompt_id=prompt_id,
        train=train,
        dev=dev,
        test=test,
        num_classes=num_classes,
        min_score=min_score,
    )


@dataclass(frozen=True)
class StatsRow:
    """One prompt's corpus statistics: sizes, human agreement, length."""

    prompt_id: int
    n_train: int
    n_dev: int
    n_test: int
    dev_qwk: float
    dev_accuracy: float
    avg_length: float

    TSV_HEADER = "prompt\tn_train\tn_dev\tn_test\tdev_qwk\tdev_acc\tavg_len"

    def to_tsv_row(self) -> str:
        return (
            f"{self.prompt_id}\t{self.n_train}\t{self.n_dev}\t{self.n_test}"
            f"\t{self.dev_qwk:.3f}\t{self.dev_accuracy:.3f}\t{self.avg_length:.1f}"
        )


def corpus_stats(corpus: PromptCorpus) -> StatsRow:
    """Sizes, dev human-human agreement, and mean response length in words.

    Length is the whitespace-token count averaged over train and dev.
    """
    for r in corpus.dev:
        if r.score1 is None or r.score2 is None:
            raise MissingSecondRead(f"dev response {r.id!r} lacks a second read")
    s1 = [r.score1 - corpus.min_score for r in corpus.dev]
    s2 = [r.score2 - corpus.min_score for r in corpus.dev]
    lengths = [len(r.text.split()) for r in corpus.train + corpus.dev]
    return StatsRow(
        prompt_id=corpus.prompt_id,
        n_train=len(corpus.train),
        n_dev=len(corpus.dev),
        n_test=len(corpus.test),
        dev_qwk=qwk(s1, s2, corpus.num_classes),
        dev_accuracy=accuracy(s1, s2),
        avg_length=float(np.mean(lengths)) if lengths else 0.0,
    )


def _table_header(data: bytes | str, *keys: str) -> tuple[str, dict[str, str], int]:
    """The text of a member or embedding file, its line-1 fields and its row width.

    Line 1 is '#' and tab-separated ``key=value`` fields holding every one of
    ``keys``; the last of them is the width, a positive integer."""
    text = decode(data)
    first = text.partition("\n")[0].removesuffix("\r")
    fields = first[1:].split("\t") if first.startswith("#") else []
    header = dict(field.split("=", 1) for field in fields if "=" in field)
    if len(header) != len(fields) or not header.keys() >= set(keys):
        wanted = "\t".join(f"{key}=<...>" for key in keys)
        raise HeaderMismatch(f"expected '#{wanted}' on line 1, got {first!r}")
    width = header[keys[-1]]
    if not (width.isdecimal() and int(width) > 0):
        raise HeaderMismatch(f"{keys[-1]} must be a positive integer, got {width!r}")
    return text, header, int(width)


def _table_rows(text: str, width: int, known: set[str] | None) -> tuple[list[str], np.ndarray]:
    """The ids of the data lines and their values as one matrix. Each line is an
    id and ``width`` finite numbers; an id appears once and, when ``known`` is
    given, is one of ``known``.

    The first faulty line in file order is reported; a number that is not
    finite only once every line passes the other checks. The cells after
    the ids are converted by ``float`` in one pass, which stops at the first
    cell it refuses."""
    numbers, lines = data_rows(text)
    faults: _Faults = []
    cells, i, got = _cells(lines, "\t", width + 1)
    if i is not None:
        faults.append((i, RowLengthMismatch(
            f"row {numbers[i]}: expected {width} values, got {got - 1}"
        )))
    ids = cells[::width + 1]
    del cells[::width + 1]
    i = _first_repeat(ids)
    if i is not None:
        faults.append((i, DuplicateId(f"row {numbers[i]}: duplicate response id {ids[i]!r}")))
    if known is not None:
        i = _first_in(ids, set(ids).difference(known))
        if i is not None:
            faults.append((i, UnknownResponseId(f"row {numbers[i]}: id {ids[i]!r} not in corpus")))
    values = iter(cells)
    try:
        mat = np.fromiter(map(float, values), float, len(cells)).reshape(len(ids), width)
    except ValueError:
        i = (len(cells) - length_hint(values) - 1) // width  # the refused cell's row
        faults.append((i, MalformedRow(f"row {numbers[i]}: non-numeric value for id {ids[i]!r}")))
    _raise_first(faults)
    finite = np.isfinite(mat)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        raise MalformedRow(f"row {numbers[i]}: non-finite value for id {ids[i]!r}")
    return ids, mat


@dataclass(frozen=True)
class LogProbMatrix:
    """Per-response class log-probabilities from one model.

    Rows are renormalized on load, so logsumexp of every row is 0 within
    1e-6 regardless of how the producer scaled its outputs.
    """

    model_name: str
    prompt_id: int
    k: int
    rows: dict[str, np.ndarray]


def load_logprobs(data: bytes | str, corpus: PromptCorpus | None = None) -> LogProbMatrix:
    """Load a log-probability file.

    Line 1 holds ``#model=<name>\\tprompt=<int>\\tk=<int>``; data lines are
    ``<response_id>\\t<v1>...<vk>``. When a corpus is given, the file must
    be for its prompt and class count, and every row id must belong to it.
    """
    text, header, k = _table_header(data, "model", "prompt", "k")
    try:
        prompt_id = int(header["prompt"])
    except ValueError:
        raise HeaderMismatch(f"prompt must be an integer, got {header['prompt']!r}") from None
    if k < 2:
        raise HeaderMismatch(f"k must be >= 2, got {k}")
    if "\r" in header["model"]:
        raise HeaderMismatch(f"model name {header['model']!r} holds a CR")
    known = None
    if corpus is not None:
        if corpus.num_classes != k:
            raise HeaderMismatch(
                f"file declares k={k} but corpus has {corpus.num_classes} classes"
            )
        if corpus.prompt_id != prompt_id:
            raise HeaderMismatch(
                f"file declares prompt={prompt_id} but corpus is prompt {corpus.prompt_id}"
            )
        known = {r.id for r in corpus.all_responses()}
    ids, mat = _table_rows(text, k, known)
    # One renormalisation for the whole file; each row gets exactly the
    # bits a per-row logsumexp would give it.
    mat -= logsumexp(mat, axis=1)[:, None]
    return LogProbMatrix(header["model"], prompt_id, k, dict(zip(ids, mat)))


def dump_logprobs(matrix: LogProbMatrix, extra_comment: str | None = None) -> bytes:
    """Serialize a LogProbMatrix in the interchange format; every row must hold
    k values. ValueError on what load_logprobs would not read back unchanged:
    an id that starts with '#', or a model name that holds a tab, LF or CR."""
    if any(c in matrix.model_name for c in "\t\n\r"):
        raise ValueError(f"model name {matrix.model_name!r} holds a tab, LF or CR")
    out = [f"#model={matrix.model_name}\tprompt={matrix.prompt_id}\tk={matrix.k}"]
    if extra_comment:
        out.append(extra_comment)
    for rid, vec in matrix.rows.items():
        if len(vec) != matrix.k:
            raise RowLengthMismatch(f"row {rid!r}: expected {matrix.k} values, got {len(vec)}")
        out.append(_line_start_id(rid) + "\t" + "\t".join(map(fmt_float, vec)))
    return ("\n".join(out) + "\n").encode("utf-8")


@dataclass(frozen=True)
class EmbeddingTable:
    """Precomputed sentence vectors keyed by response id."""

    dim: int
    rows: dict[str, np.ndarray]


def load_embeddings(
    data: bytes | str, responses: list[ScoredResponse] | None = None
) -> EmbeddingTable:
    """Load an embedding file: line 1 holds ``#dim=<int>``, data lines an id and dim values.

    Every one of ``responses`` must have a row; the first in their order
    that has none is MissingEmbedding.
    """
    text, _, dim = _table_header(data, "dim")
    ids, mat = _table_rows(text, dim, None)
    table = EmbeddingTable(dim, dict(zip(ids, mat)))
    for r in responses or []:
        if r.id not in table.rows:
            raise MissingEmbedding(f"no embedding for response {r.id!r}")
    return table


def _solution_score(cell: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise NonIntegerScore(f"score {cell!r}") from None


def parse_score_table(data: bytes | str, id_col: str, score_col: str) -> dict[str, int]:
    """Read an id -> score table from a comma- or tab-separated file.

    Used to join withheld test labels (released as a separate solution
    file) onto the unlabeled test responses. Column names match without
    case; a header naming either column twice is HeaderMismatch. A row is
    checked for its field count, a new id and an integer score, in that
    order, and the first faulty row in file order is reported.
    """
    numbers, lines = data_rows(data)
    if not lines:
        raise MalformedRow("no header row found")
    head = lines[0]
    delim = "\t" if "\t" in head else ","
    header = [h.strip() for h in head.split(delim)]
    lowered = [h.lower() for h in header]
    _refuse_repeats(lowered, id_col.lower(), score_col.lower())
    try:
        i_id = lowered.index(id_col.lower())
        i_score = lowered.index(score_col.lower())
    except ValueError:
        raise HeaderMismatch(f"solution file lacks columns {id_col!r}/{score_col!r}") from None
    del numbers[0], lines[0]

    n = len(header)
    faults: _Faults = []
    cells, i, _ = _cells(lines, delim, n)
    if i is not None:
        faults.append((i, MalformedRow(f"row {numbers[i]}: expected {n} fields")))
    rids, score_cells = list(map(str.strip, cells[i_id::n])), cells[i_score::n]
    del cells
    i = _first_repeat(rids)
    if i is not None:
        faults.append((i, DuplicateId(f"row {numbers[i]}: duplicate id {rids[i]!r}")))
    score_of = _values(score_cells, _solution_score, numbers, faults)
    _raise_first(faults)
    return dict(zip(rids, map(score_of.__getitem__, score_cells)))
