"""Independent reference implementations used only by the tests.

Each oracle is written straight from the defining formula, avoiding the
code paths of the package under test: exact rational arithmetic for the
kappa statistic, an explicit recursive matcher and difflib itself for
similarity ratios, Decimal arithmetic for the cross-entropy, and
brute-force enumeration for substring overlap and window counting. The
bitwise references at the end are the exception: they are earlier
versions of package code, kept to pin optimised rewrites to the same
bytes.
"""
from __future__ import annotations

import difflib
import itertools
from collections.abc import Iterator
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np

from asas.corpus import DEFAULT_COLUMNS, ColumnMap, ScoredResponse
from asas.errors import (
    DuplicateId,
    HeaderMismatch,
    MalformedRow,
    NonIntegerScore,
    RowLengthMismatch,
    UnknownResponseId,
)
from asas.mathutil import logsumexp
from asas.serialize import FORMAT_VERSION


def qwk_exact(a: list[int], b: list[int], k: int) -> Fraction | float:
    """Quadratic weighted kappa with full matrices in exact rationals."""
    n = len(a)
    counts = [[0] * k for _ in range(k)]
    for x, y in zip(a, b):
        counts[x][y] += 1
    observed = [[Fraction(counts[i][j], n) for j in range(k)] for i in range(k)]
    row = [sum(observed[i]) for i in range(k)]
    col = [sum(observed[i][j] for i in range(k)) for j in range(k)]
    expected = [[row[i] * col[j] for j in range(k)] for i in range(k)]
    weights = [[Fraction((i - j) ** 2, (k - 1) ** 2) for j in range(k)] for i in range(k)]
    weighted_obs = sum(weights[i][j] * observed[i][j] for i in range(k) for j in range(k))
    weighted_exp = sum(weights[i][j] * expected[i][j] for i in range(k) for j in range(k))
    if weighted_exp == 0:
        return Fraction(1) if weighted_obs == 0 else Fraction(0)
    return 1 - weighted_obs / weighted_exp


def iter_joint_histograms(k: int, n: int):
    """Every multiset of n (label, label) pairs over k classes.

    The kappa statistic depends on a vector pair only through this joint
    histogram, so enumerating histograms covers all vector pairs of
    length n (order is checked separately as a permutation property).
    """
    cells = list(itertools.product(range(k), range(k)))
    for combo in itertools.combinations_with_replacement(range(len(cells)), n):
        a = [cells[c][0] for c in combo]
        b = [cells[c][1] for c in combo]
        yield a, b


def matching_blocks_total(a: str, b: str) -> int:
    """Total length of matching blocks: recursive longest-common-block.

    Ties among maximal blocks resolve to the earliest start in a, then
    the earliest start in b.
    """

    def longest(alo: int, ahi: int, blo: int, bhi: int) -> tuple[int, int, int]:
        best_i, best_j, best_size = alo, blo, 0
        for i in range(alo, ahi):
            for j in range(blo, bhi):
                size = 0
                while i + size < ahi and j + size < bhi and a[i + size] == b[j + size]:
                    size += 1
                if size > best_size:
                    best_i, best_j, best_size = i, j, size
        return best_i, best_j, best_size

    def recurse(alo: int, ahi: int, blo: int, bhi: int) -> int:
        i, j, size = longest(alo, ahi, blo, bhi)
        if size == 0:
            return 0
        return size + recurse(alo, i, blo, j) + recurse(i + size, ahi, j + size, bhi)

    return recurse(0, len(a), 0, len(b))


def similarity_ratio(a: str, b: str) -> float:
    """difflib's ratio, 2M / (|a| + |b|), where M is the total length of the
    matching blocks of ``SequenceMatcher(None, a, b, autojunk=False)``: the
    reference the package's own matcher must equal bit for bit."""
    return difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()


def ratio_oracle(a: str, b: str) -> float:
    if len(a) + len(b) == 0:
        return 1.0
    return 2.0 * matching_blocks_total(a, b) / (len(a) + len(b))


def minutiae_brute(response: str, prompt: str) -> list[int]:
    """Brute-force distinct substring overlap for lengths 5..19."""
    r = "".join(ch for ch in response.lower() if ch.isalpha())
    p = "".join(ch for ch in prompt.lower() if ch.isalpha())
    out = []
    for length in range(5, 20):
        seen = set()
        count = 0
        for i in range(len(r) - length + 1):
            sub = r[i:i + length]
            if sub not in seen:
                seen.add(sub)
                if sub in p:
                    count += 1
        out.append(count)
    return out


def exact_window_counts(text: str, ngrams: list[str | None]) -> list[int]:
    """Exact (non-fuzzy) occurrence counts of each n-gram over token windows."""
    toks = text.lower().split()
    out = []
    for gram in ngrams:
        if gram is None:
            out.append(0)
            continue
        order = len(gram.split())
        count = 0
        for i in range(len(toks) - order + 1):
            if " ".join(toks[i:i + order]) == gram:
                count += 1
        out.append(count)
    return out


def bce_decimal(logits: np.ndarray, labels: list[int]) -> float:
    """Per-class sigmoid cross-entropy at 60 significant digits."""
    getcontext().prec = 60
    logits = np.atleast_2d(logits)
    n, k = logits.shape
    total = Decimal(0)
    for row, y in zip(logits, labels):
        for j in range(k):
            z = Decimal(float(row[j]))
            sig = 1 / (1 + (-z).exp())
            total += -(sig.ln() if j == y else (1 - sig).ln())
    return float(total / (n * k))


def central_difference(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    grad = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        up = x.copy()
        down = x.copy()
        up.flat[i] += eps
        down.flat[i] -= eps
        grad.flat[i] = (fn(up) - fn(down)) / (2 * eps)
    return grad


def mlp_forward_loops(w1, b1, w2, b2, X) -> np.ndarray:
    """Straight-line forward pass with explicit loops."""
    X = np.atleast_2d(X)
    n, d = X.shape
    h_dim = w1.shape[1]
    k = w2.shape[1]
    out = np.zeros((n, k))
    for r in range(n):
        hidden = [0.0] * h_dim
        for j in range(h_dim):
            acc = b1[j]
            for i in range(d):
                acc += X[r, i] * w1[i, j]
            hidden[j] = acc if acc > 0 else 0.0
        for c in range(k):
            acc = b2[c]
            for j in range(h_dim):
                acc += hidden[j] * w2[j, c]
            out[r, c] = acc
    return out


# ---------------------------------------------------------------------------
# Bitwise references: verbatim copies of earlier, allocation-heavy versions of
# the stacker fit, the AdamW step, the log-probability loader and the
# artifact writer. The package's versions were restructured for speed
# without changing any floating-point operation or its order, so they must
# agree with these to the last bit (compared with ``tobytes()``, or byte
# for byte as text), not merely to a tolerance.

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def logreg_objective_reference(
    weights: np.ndarray, bias: np.ndarray, X: np.ndarray, labels: np.ndarray, l2: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean cross-entropy plus (l2/2)*||W||^2, with analytic gradients."""
    n = X.shape[0]
    logits = X @ weights + bias
    log_z = logsumexp(logits, axis=1)
    nll = float(np.mean(log_z - logits[np.arange(n), labels]))
    value = nll + 0.5 * l2 * float(np.sum(weights * weights))
    probs = np.exp(logits - log_z[:, None])
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad_w = X.T @ delta + l2 * weights
    grad_b = delta.sum(axis=0)
    return value, grad_w, grad_b


def logreg_fit_reference(
    design: np.ndarray, labels, l2: float, k: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient descent with backtracking; returns (weights, bias)."""
    X = np.asarray(design, dtype=float)
    y = np.asarray(labels)
    k = int(y.max()) + 1 if k is None else k
    weights = np.zeros((X.shape[1], k))
    bias = np.zeros(k)
    step = 1.0
    value, grad_w, grad_b = logreg_objective_reference(weights, bias, X, y, l2)
    for _ in range(5000):
        grad_norm = max(
            np.max(np.abs(grad_w)) if grad_w.size else 0.0, np.max(np.abs(grad_b))
        )
        if grad_norm <= 1e-6:
            break
        grad_sq = float(np.sum(grad_w * grad_w) + np.sum(grad_b * grad_b))
        while True:
            trial_w = weights - step * grad_w
            trial_b = bias - step * grad_b
            trial_value, trial_gw, trial_gb = logreg_objective_reference(
                trial_w, trial_b, X, y, l2
            )
            if trial_value <= value - 1e-4 * step * grad_sq:
                break
            step *= 0.5
            if step < 1e-20:
                break
        if step < 1e-20:
            break
        weights, bias = trial_w, trial_b
        value, grad_w, grad_b = trial_value, trial_gw, trial_gb
        step = min(step * 2.0, 1e8)
    return weights, bias


def adamw_step_reference(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    moments: tuple[int, list[np.ndarray], list[np.ndarray]],
    lr_t: float,
    weight_decay: float,
) -> tuple[list[np.ndarray], tuple[int, list[np.ndarray], list[np.ndarray]]]:
    """One AdamW update building fresh arrays; ``moments`` is (step, m, v)."""
    step, state_m, state_v = moments
    t = step + 1
    new_params, new_m, new_v = [], [], []
    for p, g, m, v in zip(params, grads, state_m, state_v):
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
        m_hat = m / (1 - ADAM_BETA1 ** t)
        v_hat = v / (1 - ADAM_BETA2 ** t)
        new_params.append(p - lr_t * (m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * p))
        new_m.append(m)
        new_v.append(v)
    return new_params, (t, new_m, new_v)


def load_logprobs_per_row(data: str, known: set[str] | None, k: int):
    """Data rows of a log-probability file, each renormalised on its own.

    Returns ``{id: row}`` or raises the same error class at the same row
    number as the loader; header parsing is left to the loader's tests.
    """
    lines = [line for line in data.split("\n") if line != ""]
    rows: dict[str, np.ndarray] = {}
    for row_num, line in enumerate(lines[1:], start=2):
        if line.startswith("#"):
            continue
        fields = line.rstrip("\r").split("\t")
        if len(fields) != k + 1:
            raise RowLengthMismatch(
                f"row {row_num}: expected {k} values, got {len(fields) - 1}"
            )
        rid = fields[0]
        if rid in rows:
            raise DuplicateId(f"row {row_num}: duplicate response id {rid!r}")
        if known is not None and rid not in known:
            raise UnknownResponseId(f"row {row_num}: id {rid!r} not in corpus")
        try:
            vec = np.array([float(v) for v in fields[1:]], dtype=float)
        except ValueError:
            raise MalformedRow(f"row {row_num}: non-numeric value for id {rid!r}") from None
        if not all(np.isfinite(vec)):
            raise MalformedRow(f"row {row_num}: non-finite value for id {rid!r}")
        rows[rid] = vec - logsumexp(vec)
    return rows


def _fmt_float_reference(x: float) -> str:
    return repr(float(x))


def artifact_dump_reference(self, header: str | None = None) -> str:
    """``Artifact.dump`` as first written: one ``fmt_float`` per NumPy element."""
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
        lines.extend("\t".join(_fmt_float_reference(x) for x in row) for row in arr)
    return "\n".join(lines) + "\n"


def attach_scores(responses: list[ScoredResponse], scores: dict[str, int]) -> list[ScoredResponse]:
    """The two-pass solution join ``parse_dataset(..., solution=...)`` replaced:
    copies of ``responses`` with score1 filled in from a table."""
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


# --- The readers before their per-cell Python calls were batched: one int()
# per prompt and score cell, one float() per number, a generator of lines.
# ``parse_dataset``, ``parse_score_table`` and ``_table_rows`` must match these
# record for record, or in the class and message of the first fault.


def data_lines_per_line(data: bytes | str) -> Iterator[tuple[int, str]]:
    """(line number, line) of each line that is neither blank nor a '#' comment.

    Bytes are decoded as UTF-8 and one trailing '\\r' is dropped from each line;
    numbers count every line from 1, comments and blank lines included."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    for number, line in enumerate(text.split("\n"), 1):
        line = line.removesuffix("\r")
        if line and not line.startswith("#"):
            yield number, line


def _parse_score_per_cell(cell: str, row_num: int) -> int | None:
    cell = cell.strip()
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        raise NonIntegerScore(f"row {row_num}: score {cell!r} is not an integer") from None


def parse_dataset_per_cell(
    data: bytes | str,
    columns: ColumnMap = DEFAULT_COLUMNS,
    prompts: set[int] | None = None,
    solution: dict[str, int] | None = None,
) -> list[ScoredResponse]:
    """Parse a tab-separated dataset with a header row.

    Missing score cells, and score columns missing from the header, map
    to None. Ids must be unique within a prompt. Every row is checked, in
    file order: its field count, an integer prompt id, a new (prompt, id)
    pair and integer score cells; a record is built only for a row whose
    prompt is in ``prompts`` (every row when None). With a ``solution``
    table, each row's score1 comes from it, after the row's own score
    cells pass their check, and a row of any prompt missing from it is
    UnknownResponseId.
    """
    lines = data_lines_per_line(data)
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
        score1 = None if i_score1 is None else _parse_score_per_cell(fields[i_score1], row_num)
        score2 = None if i_score2 is None else _parse_score_per_cell(fields[i_score2], row_num)
        if solution is not None:
            if rid not in solution:
                raise UnknownResponseId(f"no score for response {rid!r}")
            score1 = solution[rid]
        if prompts is None or prompt_id in prompts:
            responses.append(ScoredResponse(rid, prompt_id, fields[i_text], score1, score2))
    return responses


def table_rows_per_cell(
    text: str, width: int, known: set[str] | None
) -> tuple[list[str], np.ndarray]:
    """The ids of the data lines and their values as one matrix. Each line is an
    id and ``width`` finite numbers; an id appears once and, when ``known`` is
    given, is one of ``known``."""
    rows: dict[str, int] = {}  # id -> its line number
    values: list[float] = []
    for row_num, line in data_lines_per_line(text):
        fields = line.split("\t")
        if len(fields) != width + 1:
            raise RowLengthMismatch(
                f"row {row_num}: expected {width} values, got {len(fields) - 1}"
            )
        rid = fields[0]
        if rid in rows:
            raise DuplicateId(f"row {row_num}: duplicate response id {rid!r}")
        if known is not None and rid not in known:
            raise UnknownResponseId(f"row {row_num}: id {rid!r} not in corpus")
        try:
            values += map(float, fields[1:])
        except ValueError:
            raise MalformedRow(f"row {row_num}: non-numeric value for id {rid!r}") from None
        rows[rid] = row_num
    mat = np.array(values, dtype=float).reshape(len(rows), width)
    finite = np.isfinite(mat)
    if not finite.all():
        rid, row_num = list(rows.items())[np.argmin(finite.all(axis=1))]
        raise MalformedRow(f"row {row_num}: non-finite value for id {rid!r}")
    return list(rows), mat


def parse_score_table_per_cell(data: bytes | str, id_col: str, score_col: str) -> dict[str, int]:
    """Read an id -> score table from a comma- or tab-separated file.

    Used to join withheld test labels (released as a separate solution
    file) onto the unlabeled test responses.
    """
    lines = data_lines_per_line(data)
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
