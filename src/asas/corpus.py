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
from dataclasses import astuple, dataclass

import numpy as np

from .errors import (
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
from .serialize import data_lines


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


def _parse_score(cell: str, row_num: int) -> int | None:
    cell = cell.strip()
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        raise NonIntegerScore(f"row {row_num}: score {cell!r} is not an integer") from None


def _refuse_repeats(header: list[str], *names: str) -> None:
    """HeaderMismatch naming the first of ``names`` that ``header`` holds twice."""
    for name in names:
        if header.count(name) > 1:
            raise HeaderMismatch(f"repeated column in header: {name!r}")


def parse_dataset(
    data: bytes | str,
    columns: ColumnMap = DEFAULT_COLUMNS,
    prompts: set[int] | None = None,
    solution: dict[str, int] | None = None,
) -> list[ScoredResponse]:
    """Parse a tab-separated dataset with a header row.

    Missing score cells, and score columns missing from the header, map
    to None; a column of ``columns`` that the header names twice is
    HeaderMismatch. Ids must be unique within a prompt. Every row is checked, in
    file order: its field count, a non-negative integer prompt id, an id
    that does not start with '#' (a writer would put it first on a line,
    where it reads back as a comment), a new (prompt, id) pair and integer
    score cells; a record is built only for a row whose prompt is in
    ``prompts`` (every row when None). With a ``solution`` table, each
    row's score1 comes from it, after the row's own score cells pass
    their check, and a row of any prompt missing from it is
    UnknownResponseId. A column holds few distinct prompt and score cells,
    so each distinct cell is converted once.
    """
    lines = iter(data_lines(data))
    _, head = next(lines, (0, None))
    if head is None:
        raise MalformedRow("no header row found")
    header = head.split("\t")
    _refuse_repeats(header, *astuple(columns))
    try:
        i_id = header.index(columns.id)
        i_prompt = header.index(columns.prompt)
        i_text = header.index(columns.text)
    except ValueError as exc:
        raise HeaderMismatch(f"missing column in header: {exc}") from None
    scores = columns.score1, columns.score2
    i_score1, i_score2 = (header.index(col) if col in header else None for col in scores)

    n_fields = len(header)
    responses: list[ScoredResponse] = []
    seen: set[tuple[int, str]] = set()
    prompt_ids: dict[str, int] = {}  # cell -> its value, for each cell that parsed
    score_of: dict[str, int | None] = {}  # likewise for score cells
    for row_num, line in lines:
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise MalformedRow(f"row {row_num}: expected {n_fields} fields, got {len(fields)}")
        rid = fields[i_id].strip()
        cell = fields[i_prompt]
        prompt_id = prompt_ids.get(cell)
        if prompt_id is None:
            try:
                prompt_id = int(cell)
            except ValueError:
                raise NonIntegerScore(f"row {row_num}: prompt id is not an integer") from None
            if prompt_id < 0:
                raise MalformedRow(f"row {row_num}: prompt id {prompt_id} is negative")
            prompt_ids[cell] = prompt_id
        if rid.startswith("#"):
            raise MalformedRow(f"row {row_num}: id {rid!r} starts with '#', which marks a comment")
        key = (prompt_id, rid)
        if key in seen:
            raise DuplicateId(f"row {row_num}: duplicate id {rid!r} in prompt {prompt_id}")
        seen.add(key)
        score1 = score2 = None
        if i_score1 is not None:
            cell = fields[i_score1]
            if cell not in score_of:
                score_of[cell] = _parse_score(cell, row_num)
            score1 = score_of[cell]
        if i_score2 is not None:
            cell = fields[i_score2]
            if cell not in score_of:
                score_of[cell] = _parse_score(cell, row_num)
            score2 = score_of[cell]
        if solution is not None:
            if rid not in solution:
                raise UnknownResponseId(f"no score for response {rid!r}")
            score1 = solution[rid]
        if prompts is None or prompt_id in prompts:
            responses.append(ScoredResponse(rid, prompt_id, fields[i_text], score1, score2))
    return responses


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
    prompt_text: str = ""

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
    prompt_text: str = "",
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
        prompt_text=prompt_text,
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
    text = data.decode("utf-8") if isinstance(data, bytes) else data
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
    finite only once every line passes the other checks. Each line's width and
    id are checked first, up to the first line that fails them; the cells of the
    lines before it are then converted in one call, which accepts the cells
    ``float`` accepts and gives the same values."""
    rows: dict[str, int] = {}  # id -> its line number
    cells: list[str] = []
    fault = None
    for row_num, line in data_lines(text):
        fields = line.split("\t")
        rid = fields[0]
        if len(fields) != width + 1:
            fault = RowLengthMismatch(
                f"row {row_num}: expected {width} values, got {len(fields) - 1}"
            )
        elif rid in rows:
            fault = DuplicateId(f"row {row_num}: duplicate response id {rid!r}")
        elif known is not None and rid not in known:
            fault = UnknownResponseId(f"row {row_num}: id {rid!r} not in corpus")
        if fault is not None:
            break
        rows[rid] = row_num
        cells += fields[1:]
    try:
        mat = np.array(cells, dtype=float).reshape(len(rows), width)
    except ValueError:
        # Only on this error path: find the first line holding a cell that failed.
        for i, (rid, row_num) in enumerate(rows.items()):
            try:
                np.array(cells[i * width:(i + 1) * width], dtype=float)
            except ValueError:
                raise MalformedRow(f"row {row_num}: non-numeric value for id {rid!r}") from None
        raise
    if fault is not None:
        raise fault
    finite = np.isfinite(mat)
    if not finite.all():
        rid, row_num = list(rows.items())[np.argmin(finite.all(axis=1))]
        raise MalformedRow(f"row {row_num}: non-finite value for id {rid!r}")
    return list(rows), mat


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
        out.append(_line_start_id(rid) + "\t" + "\t".join(repr(float(v)) for v in vec))
    return ("\n".join(out) + "\n").encode("utf-8")


@dataclass(frozen=True)
class EmbeddingTable:
    """Precomputed sentence vectors keyed by response id."""

    dim: int
    rows: dict[str, np.ndarray]


def load_embeddings(data: bytes | str, corpus: PromptCorpus | None = None) -> EmbeddingTable:
    """Load an embedding file: line 1 holds ``#dim=<int>``, data lines an id and dim values.

    When a corpus is given, every one of its responses must have a row;
    the first that has none, in train, dev, test order, is MissingEmbedding.
    """
    text, _, dim = _table_header(data, "dim")
    ids, mat = _table_rows(text, dim, None)
    table = EmbeddingTable(dim, dict(zip(ids, mat)))
    for r in [] if corpus is None else corpus.all_responses():
        if r.id not in table.rows:
            raise MissingEmbedding(f"no embedding for response {r.id!r}")
    return table


def parse_score_table(data: bytes | str, id_col: str, score_col: str) -> dict[str, int]:
    """Read an id -> score table from a comma- or tab-separated file.

    Used to join withheld test labels (released as a separate solution
    file) onto the unlabeled test responses. Column names match without
    case; a header naming either column twice is HeaderMismatch.
    """
    lines = iter(data_lines(data))
    _, head = next(lines, (0, None))
    if head is None:
        raise MalformedRow("no header row found")
    delim = "\t" if "\t" in head else ","
    header = [h.strip() for h in head.split(delim)]
    lowered = [h.lower() for h in header]
    _refuse_repeats(lowered, id_col.lower(), score_col.lower())
    try:
        i_id = lowered.index(id_col.lower())
        i_score = lowered.index(score_col.lower())
    except ValueError:
        raise HeaderMismatch(f"solution file lacks columns {id_col!r}/{score_col!r}") from None
    scores: dict[str, int] = {}
    values: dict[str, int] = {}  # cell -> its value, for each cell that parsed
    for row_num, line in lines:
        fields = line.split(delim)
        if len(fields) != len(header):
            raise MalformedRow(f"row {row_num}: expected {len(header)} fields")
        rid = fields[i_id].strip()
        if rid in scores:
            raise DuplicateId(f"row {row_num}: duplicate id {rid!r}")
        cell = fields[i_score]
        score = values.get(cell)
        if score is None:
            try:
                score = values[cell] = int(cell)
            except ValueError:
                raise NonIntegerScore(f"row {row_num}: score {cell!r}") from None
        scores[rid] = score
    return scores
