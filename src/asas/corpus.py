"""Dataset ingestion, dev splitting, corpus statistics, external artifacts.

A corpus is one prompt's responses partitioned into train/dev/test. The
dev split is an unstratified seeded shuffle of the training data. Model
predictions and sentence embeddings enter the pipeline as external
tab-separated files loaded here; log-probability rows are renormalized
with log-softmax on load so files from different producers are
comparable.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    DuplicateId,
    EmptyInput,
    HeaderMismatch,
    MissingSecondRead,
    MalformedRow,
    NonIntegerScore,
    RowLengthMismatch,
    UnknownResponseId,
)
from .mathutil import logsumexp
from .metrics import accuracy, qwk


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


def data_lines(data: bytes | str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line that is neither blank nor a '#' comment.

    Bytes are decoded as UTF-8 and one trailing '\\r' is dropped from each line;
    numbers count every line from 1, comments and blank lines included."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    for number, line in enumerate(text.split("\n"), 1):
        line = line.removesuffix("\r")
        if line and not line.startswith("#"):
            yield number, line


def _header_and_lines(data: bytes | str) -> tuple[str, Iterator[tuple[int, str]]]:
    """Line 1 of a file whose line 1 is a '#key=value' header, and its data lines."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    return text.partition("\n")[0].removesuffix("\r"), data_lines(text)


def _parse_score(cell: str, row_num: int) -> int | None:
    cell = cell.strip()
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        raise NonIntegerScore(f"row {row_num}: score {cell!r} is not an integer") from None


def parse_dataset(data: bytes | str, columns: ColumnMap = DEFAULT_COLUMNS) -> list[ScoredResponse]:
    """Parse a tab-separated dataset with a header row.

    Missing score cells, and score columns missing from the header, map
    to None. Ids must be unique within a prompt.
    """
    lines = data_lines(data)
    _, head = next(lines, (0, None))
    if head is None:
        raise MalformedRow("no header row found")
    header = head.split("\t")
    try:
        i_id = header.index(columns.id)
        i_prompt = header.index(columns.prompt)
        i_text = header.index(columns.text)
    except ValueError as exc:
        raise HeaderMismatch(f"missing column in header: {exc}") from None
    scores = columns.score1, columns.score2
    i_score1, i_score2 = (header.index(col) if col in header else None for col in scores)

    responses: list[ScoredResponse] = []
    seen: set[tuple[int, str]] = set()
    for row_num, line in lines:
        fields = line.split("\t")
        if len(fields) != len(header):
            raise MalformedRow(
                f"row {row_num}: expected {len(header)} fields, got {len(fields)}"
            )
        rid = fields[i_id].strip()
        try:
            prompt_id = int(fields[i_prompt])
        except ValueError:
            raise NonIntegerScore(f"row {row_num}: prompt id is not an integer") from None
        key = (prompt_id, rid)
        if key in seen:
            raise DuplicateId(f"row {row_num}: duplicate id {rid!r} in prompt {prompt_id}")
        seen.add(key)
        responses.append(
            ScoredResponse(
                id=rid,
                prompt_id=prompt_id,
                text=fields[i_text],
                score1=None if i_score1 is None else _parse_score(fields[i_score1], row_num),
                score2=None if i_score2 is None else _parse_score(fields[i_score2], row_num),
            )
        )
    return responses


def serialize_dataset(
    responses: list[ScoredResponse], columns: ColumnMap = DEFAULT_COLUMNS
) -> bytes:
    """Inverse of parse_dataset for well-formed records."""
    out = [
        "\t".join([columns.id, columns.prompt, columns.score1, columns.score2, columns.text])
    ]
    for r in responses:
        s1 = "" if r.score1 is None else str(r.score1)
        s2 = "" if r.score2 is None else str(r.score2)
        out.append("\t".join([r.id, str(r.prompt_id), s1, s2, r.text]))
    return ("\n".join(out) + "\n").encode("utf-8")


def split_dev(
    responses: list[ScoredResponse], dev_fraction: float, seed: int
) -> tuple[list[ScoredResponse], list[ScoredResponse]]:
    """Partition one prompt's responses into (train, dev).

    The dev set holds round(dev_fraction * N) items chosen by a seeded
    Fisher-Yates shuffle; both halves keep the input order. The shuffle
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
        raise EmptyInput(f"no responses for prompt {prompt_id}")
    for r in pool:
        if r.score1 is None:
            raise MalformedRow(f"response {r.id!r} has no score1; cannot train on it")
    train, dev = split_dev(pool, dev_fraction, seed)
    test = [r for r in (test or []) if r.prompt_id == prompt_id]

    observed = [r.score1 for r in pool]
    observed += [r.score2 for r in pool if r.score2 is not None]
    min_score, max_score = min(observed), max(observed)
    num_classes = max_score - min_score + 1
    if num_classes < 2:
        raise EmptyInput(f"prompt {prompt_id} has a single observed score value")

    ids = [r.id for r in train] + [r.id for r in dev] + [r.id for r in test]
    if len(ids) != len(set(ids)):
        raise DuplicateId(f"prompt {prompt_id}: train/dev/test ids are not disjoint")
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

    Line 1 must be ``#model=<name>\\tprompt=<int>\\tk=<int>``; data lines
    are ``<response_id>\\t<v1>...<vk>``. Later '#' lines are comments.
    When a corpus is given, every row id must belong to it.
    """
    first, lines = _header_and_lines(data)
    if not first.startswith("#model="):
        raise HeaderMismatch("expected '#model=<name>\\tprompt=<int>\\tk=<int>' on line 1")
    parts = first[1:].split("\t")
    header: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise HeaderMismatch(f"bad header field {part!r}")
        key, value = part.split("=", 1)
        header[key] = value
    try:
        model_name = header["model"]
        prompt_id = int(header["prompt"])
        k = int(header["k"])
    except (KeyError, ValueError):
        raise HeaderMismatch(f"bad header line {first!r}") from None
    if k < 2:
        raise HeaderMismatch(f"k must be >= 2, got {k}")

    known = None
    if corpus is not None:
        if corpus.num_classes != k:
            raise HeaderMismatch(
                f"file declares k={k} but corpus has {corpus.num_classes} classes"
            )
        known = {r.id for r in corpus.all_responses()}

    ids: dict[str, None] = {}
    values: list[list[float]] = []
    for row_num, line in lines:
        fields = line.split("\t")
        if len(fields) != k + 1:
            raise RowLengthMismatch(
                f"row {row_num}: expected {k} values, got {len(fields) - 1}"
            )
        rid = fields[0]
        if rid in ids:
            raise DuplicateId(f"row {row_num}: duplicate response id {rid!r}")
        if known is not None and rid not in known:
            raise UnknownResponseId(f"row {row_num}: id {rid!r} not in corpus")
        try:
            values.append([float(v) for v in fields[1:]])
        except ValueError:
            raise RowLengthMismatch(f"row {row_num}: non-numeric value") from None
        ids[rid] = None
    # One renormalisation for the whole file; each row gets exactly the
    # bits a per-row logsumexp would give it.
    mat = np.array(values, dtype=float).reshape(len(values), k)
    mat -= logsumexp(mat, axis=1)[:, None]
    rows = dict(zip(ids, mat))
    return LogProbMatrix(model_name=model_name, prompt_id=prompt_id, k=k, rows=rows)


def dump_logprobs(matrix: LogProbMatrix, extra_comment: str | None = None) -> bytes:
    """Serialize a LogProbMatrix in the interchange format; every row must hold k values."""
    out = [f"#model={matrix.model_name}\tprompt={matrix.prompt_id}\tk={matrix.k}"]
    if extra_comment:
        out.append(extra_comment)
    for rid, vec in matrix.rows.items():
        if len(vec) != matrix.k:
            raise RowLengthMismatch(f"row {rid!r}: expected {matrix.k} values, got {len(vec)}")
        out.append(rid + "\t" + "\t".join(repr(float(v)) for v in vec))
    return ("\n".join(out) + "\n").encode("utf-8")


@dataclass(frozen=True)
class EmbeddingTable:
    """Precomputed sentence vectors keyed by response id."""

    dim: int
    rows: dict[str, np.ndarray]


def load_embeddings(data: bytes | str) -> EmbeddingTable:
    """Load an embedding file: line 1 ``#dim=<int>``, rows id + floats."""
    first, lines = _header_and_lines(data)
    if not first.startswith("#dim="):
        raise HeaderMismatch("expected '#dim=<int>' on line 1")
    try:
        dim = int(first[len("#dim="):].split("\t")[0])
    except ValueError:
        raise HeaderMismatch(f"bad header line {first!r}") from None
    if dim <= 0:
        raise HeaderMismatch(f"dim must be positive, got {dim}")
    rows: dict[str, np.ndarray] = {}
    for row_num, line in lines:
        fields = line.split("\t")
        if len(fields) != dim + 1:
            raise DimMismatch(f"row {row_num}: expected {dim} values, got {len(fields) - 1}")
        rid = fields[0]
        if rid in rows:
            raise DuplicateId(f"row {row_num}: duplicate response id {rid!r}")
        try:
            rows[rid] = np.array([float(v) for v in fields[1:]], dtype=float)
        except ValueError:
            raise MalformedRow(f"row {row_num}: non-numeric value for id {rid!r}") from None
    return EmbeddingTable(dim=dim, rows=rows)


def parse_score_table(data: bytes | str, id_col: str, score_col: str) -> dict[str, int]:
    """Read an id -> score table from a comma- or tab-separated file.

    Used to join withheld test labels (released as a separate solution
    file) onto the unlabeled test responses.
    """
    lines = data_lines(data)
    _, head = next(lines, (0, None))
    if head is None:
        raise MalformedRow("no header row found")
    delim = "\t" if "\t" in head else ","
    header = [h.strip() for h in head.split(delim)]
    lowered = [h.lower() for h in header]
    try:
        i_id = lowered.index(id_col.lower())
        i_score = lowered.index(score_col.lower())
    except ValueError:
        raise HeaderMismatch(f"solution file lacks columns {id_col!r}/{score_col!r}") from None
    scores: dict[str, int] = {}
    for row_num, line in lines:
        fields = line.split(delim)
        if len(fields) != len(header):
            raise MalformedRow(f"row {row_num}: expected {len(header)} fields")
        rid = fields[i_id].strip()
        if rid in scores:
            raise DuplicateId(f"row {row_num}: duplicate id {rid!r}")
        try:
            scores[rid] = int(fields[i_score])
        except ValueError:
            raise NonIntegerScore(f"row {row_num}: score {fields[i_score]!r}") from None
    return scores


def attach_scores(responses: list[ScoredResponse], scores: dict[str, int]) -> list[ScoredResponse]:
    """Return copies of ``responses`` with score1 filled in from a table."""
    out = []
    for r in responses:
        if r.id not in scores:
            raise UnknownResponseId(f"no score for response {r.id!r}")
        out.append(
            ScoredResponse(
                id=r.id, prompt_id=r.prompt_id, text=r.text, score1=scores[r.id], score2=r.score2
            )
        )
    return out
