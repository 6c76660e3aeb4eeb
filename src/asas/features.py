"""Feature extractors for short answers, fitted on the train split only.

Five blocks, concatenated in a fixed order:

  sentence embeddings (optional, from an external table)
  | TF-IDF rows projected onto the top eigenvectors of the term Gram matrix
  | prompt-overlap counts on letter-only "minutiae" text
  | fuzzy occurrence counts of 90 key n-grams (30 each of orders 1..3)
  | ten surface text statistics

The assembled matrix is standardized per dimension to mean 0 / sd 1
using train statistics; constant train columns map to all zeros.
"""
from __future__ import annotations

import difflib
import re
import string
import warnings
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .corpus import EmbeddingTable, PromptCorpus, ScoredResponse
from .errors import HeaderMismatch, InsufficientClasses, MissingEmbedding, RankDeficient
from .learners import MLP_ARRAYS, MlpModel
from .serialize import Artifact, fmt_float, require_finite, row_vector

MINUTIAE_LENGTHS = range(5, 20)  # 15 substring lengths
NGRAM_ORDERS = (1, 2, 3)
NGRAMS_PER_ORDER = 30
TEXT_STATS_DIM = 10
# Lowest near-match cutoff: CachedFeatureBuilder keeps every ratio that
# reaches it, so any cutoff a trial picks is a thresholding pass.
MIN_CUTOFF = 0.5
# Bound the fuzzy engine's work arrays: _PAIR_CHUNK the token histogram
# counts of one bincount, four times the elements of each array of one
# character-bound pass (window histograms, their level indicators and the
# window x n-gram bounds) and the candidate pairs held for matching,
# _TABLE_CELLS the run-length table cells of one matcher chunk.
_PAIR_CHUNK = 1 << 16
_TABLE_CELLS = 1 << 17

# Fixed 150-word English stopword list, versioned with the artifact.
STOPWORDS = frozenset("""
a about above after again against all along already although always am among an and
another any anything are around as at away back be because become been before being below
between both but by came can cannot come could did do does doing down during each even
ever every few for from further get give go had has have having he her here hers herself
him himself his how however i if in into is it its itself just may me might more most
much my myself no nor not now of off on once only or other our ours ourselves out over
own same she should so some such than that the their theirs them themselves then there
these they this those through to too under until up very was we were what when where
which while who whom why will with would you your yours yourself yourselves
""".split())


def normalize_text(s: str) -> str:
    """Lowercase and keep letters only, in order.

    Whitespace, digits, and punctuation all disappear; this is the
    "minutiae" form used for substring overlap against the prompt.
    """
    return "".join(filter(str.isalpha, s.lower()))


def minutiae_substrings(prompt: str) -> list[set[str]]:
    """The distinct substrings of the normalized prompt, one set per length."""
    p = normalize_text(prompt)
    return [
        {p[j:j + length] for j in range(len(p) - length + 1)} for length in MINUTIAE_LENGTHS
    ]


def minutiae_overlap(response: str, prompt_subs: list[set[str]]) -> np.ndarray:
    """Distinct substring overlap counts between response and prompt.

    Component i counts the distinct substrings of length 5+i of the
    normalized response that also occur in the normalized prompt, for
    lengths 5 through 19 (15 dimensions). ``prompt_subs`` is the prompt's
    prepared state, ``minutiae_substrings(prompt)``: a fitted spec derives
    it once (``FeatureModelSpec.prompt_subs``) and every answer reuses it.

    The prefixes of a common substring are common too, so each length
    looks only at the start positions whose substring one character
    shorter was common, and stops at the first length with none. A slice
    cut short by the end of the response is in no set of ``prompt_subs``,
    whose substrings all have their set's length.
    """
    r = normalize_text(response)
    out = np.zeros(len(MINUTIAE_LENGTHS), dtype=float)
    starts = range(len(r) - MINUTIAE_LENGTHS[0] + 1)
    for i, (length, subs) in enumerate(zip(MINUTIAE_LENGTHS, prompt_subs)):
        starts = [j for j in starts if r[j:j + length] in subs]
        if not starts:
            break
        out[i] = len({r[j:j + length] for j in starts})
    return out


def _tokens(text: str) -> list[str]:
    return text.lower().split()


@dataclass(frozen=True)
class KeyNgram:
    """A selected key term; text is None for padding slots."""

    text: str | None
    order: int
    score: float


def _chi_squared(present_by_class: Counter, class_totals: Counter, n_docs: int) -> float:
    present_total = sum(present_by_class.values())
    absent_total = n_docs - present_total
    if present_total == 0 or absent_total == 0:
        return 0.0
    chi = 0.0
    for cls, n_cls in class_totals.items():
        observed_present = present_by_class.get(cls, 0)
        observed_absent = n_cls - observed_present
        expected_present = present_total * n_cls / n_docs
        expected_absent = absent_total * n_cls / n_docs
        chi += (observed_present - expected_present) ** 2 / expected_present
        chi += (observed_absent - expected_absent) ** 2 / expected_absent
    return chi


def select_key_ngrams(train: list[tuple[str, int]]) -> list[KeyNgram]:
    """Pick the n-grams most associated with the score class.

    Word n-grams (orders 1..3) over lowercased whitespace tokens are
    ranked by the chi-squared statistic of (document presence x score
    class); the top NGRAMS_PER_ORDER of each order are kept, ties broken
    lexicographically. Orders with too few distinct n-grams are padded
    with always-zero slots so the feature block width is fixed.
    """
    class_totals = Counter(score for _, score in train)
    if len(class_totals) < 2:
        raise InsufficientClasses("key n-gram selection needs >= 2 score classes")
    n_docs = len(train)
    tokenized = [(_tokens(text), score) for text, score in train]

    selected: list[KeyNgram] = []
    for order in NGRAM_ORDERS:
        present_by_class: dict[str, Counter] = {}
        for toks, score in tokenized:
            grams = {" ".join(toks[i:i + order]) for i in range(len(toks) - order + 1)}
            for gram in grams:
                present_by_class.setdefault(gram, Counter())[score] += 1
        chi = {g: _chi_squared(c, class_totals, n_docs) for g, c in present_by_class.items()}
        top = sorted(chi, key=lambda g: (-chi[g], g))[:NGRAMS_PER_ORDER]
        selected.extend(KeyNgram(text=g, order=order, score=chi[g]) for g in top)
        padding = NGRAMS_PER_ORDER - len(top)
        selected.extend(KeyNgram(text=None, order=order, score=0.0) for _ in range(padding))
    return selected


def window_ratios(text: str, ngram: str) -> np.ndarray:
    """Similarity of every same-token-length window of ``text`` to ``ngram``.

    The brute-force reference for ``fuzzy_ratios``: one difflib ratio per
    window, nothing pruned.
    """
    toks = _tokens(text)
    order = len(ngram.split())
    if len(toks) < order:
        return np.empty(0, dtype=float)
    matcher = difflib.SequenceMatcher(None, "", ngram, autojunk=False)
    ratios = np.empty(len(toks) - order + 1, dtype=float)
    for i in range(len(toks) - order + 1):
        matcher.set_seq1(" ".join(toks[i:i + order]))
        ratios[i] = matcher.ratio()
    return ratios


@dataclass(frozen=True, eq=False)
class FuzzyRatios:
    """Window-to-n-gram similarity ratios that reach ``floor``, as flat arrays.

    Entry k says that one token window of text ``rows[k]`` has ratio
    ``ratios[k]`` with key n-gram ``cols[k]``; every window whose ratio
    with a (non-padding) n-gram is at least ``floor`` has an entry, and no
    other window does. ``shape`` is (texts, n-grams).
    """

    shape: tuple[int, int]
    floor: float
    rows: np.ndarray
    cols: np.ndarray
    ratios: np.ndarray

    def counts(self, cutoff: float) -> np.ndarray:
        """Per text and n-gram, the number of windows with ratio >= cutoff."""
        if not self.floor <= cutoff <= 1.0:
            raise ValueError(f"cutoff must be in [{self.floor}, 1.0], got {cutoff}")
        hit = self.ratios >= cutoff
        n_texts, n_grams = self.shape
        flat = np.bincount(
            self.rows[hit] * n_grams + self.cols[hit], minlength=n_texts * n_grams
        )
        return flat.reshape(self.shape).astype(float)


def _ratio(matches: np.ndarray, total: np.ndarray) -> np.ndarray:
    """difflib's ratio ``2.0*M/(la+lb)`` in its own float expression, 1.0 at 0/0."""
    return np.divide(2.0 * matches, total, out=np.ones(matches.shape), where=total > 0)


def _lcs_lengths(a: np.ndarray, grams: np.ndarray, tables: NgramTables) -> np.ndarray:
    """Longest-common-subsequence length of many (window, n-gram) pairs.

    ``a`` holds one window's codes per column, padded with the code no
    n-gram holds, and n-gram ``grams[p]`` indexes ``tables``. Bit-parallel
    recurrence (Hyyro 2004): U = V & mask, V = (V+U) | (V-U) over the
    window's characters; the LCS is the number of zero bits left in V's
    low |n-gram| bits. Carries only move upward, so uint64 overflow never
    reaches those bits, and padding's mask is 0, which leaves V as it is.
    """
    v = np.full(grams.size, np.iinfo(np.uint64).max, dtype=np.uint64)
    for mask in tables.masks[grams, a]:
        u = v & mask
        v = (v + u) | (v - u)
    ones = np.unpackbits((v & tables.low[grams]).view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
    return tables.lengths[grams] - ones


def _chunk_totals(a: np.ndarray, la: np.ndarray, b: np.ndarray, lb: np.ndarray) -> np.ndarray:
    """Matching-block total M of the pairs (``a[:la[p], p]``, ``b[p, :lb[p]]``).

    ``a`` holds one window per column and ``b`` one n-gram per row, each
    padded with a code the other never holds, by at least one row or
    column. ``runs[p, i, j]`` is the length of the common run ending at
    ``a[i, p]`` and ``b[p, j]``: 0 where they differ, else one more than
    ``runs[p, i - 1, j - 1]``. It is built one window position at a time on
    the transposed table, where one position of every pair is one
    contiguous row and a step is one shifted multiply: a pair's first
    column reads the previous pair's last one, padding, so it stays 0 or 1.

    Then difflib's ``get_matching_blocks`` runs in rounds over all pairs:
    each round finds the longest block of open rectangles, adds its size
    to its pair's M and opens the rectangles left and right of it. A block
    ending at (i, j) reaches back ``min(runs[i, j], i - alo + 1, j - blo + 1)``
    inside rectangle ``[alo, ahi) x [blo, bhi)``, and difflib keeps the
    first longest one in row-major order of its end, which is what
    ``argmax`` returns. A round reads each rectangle's rows from ``alo`` on
    in a box of the round's tallest height; box rows past ``ahi`` read the
    last row, padding, and columns past ``bhi`` are cut to 0. It takes as
    many rectangles as keep its boxes within the cells of ``runs``.
    """
    rows, n_pairs = a.shape
    cols = b.shape[1]
    dtype = np.int16 if max(rows, cols) <= np.iinfo(np.int16).max else np.int32
    runs = np.empty((rows, n_pairs, cols), dtype=dtype)
    np.equal(a[:, :, None], b, out=runs)
    step = runs.reshape(rows, -1)
    for i in range(1, rows):
        step[i, 1:] *= step[i - 1, :-1] + 1
    runs = np.ascontiguousarray(runs.transpose(1, 0, 2))
    by_row = runs.reshape(-1, cols)
    di, dj = np.arange(rows), np.arange(cols)
    reach_i = np.arange(1, rows + 1, dtype=dtype)
    # Open rectangles, one per row: pair, alo, blo, ahi, bhi.
    rect = np.zeros((n_pairs, 5), dtype=np.intp)
    rect[:, 0], rect[:, 3], rect[:, 4] = np.arange(n_pairs), la, lb
    take, rect = rect, rect[:0]
    box = runs.reshape(n_pairs, -1)  # the first round's rectangles are whole tables
    pairs, sizes = [], []
    while True:
        end = box.argmax(axis=1)
        size = box[np.arange(len(take)), end]
        pairs.append(take[:, 0])
        sizes.append(size)
        ends = np.stack(np.divmod(end, cols), axis=1)
        ends[:, 0] += take[:, 1]
        kids = np.stack([take, take])  # left of the block, right of it
        kids[0, :, 3:] = ends - (size - 1)[:, None]
        kids[1, :, 1:3] = ends + 1
        opened = (size > 0) & (kids[..., 1:3] < kids[..., 3:]).all(axis=2)
        rect = np.concatenate([rect, kids[opened]])
        if not rect.size:
            total = np.bincount(np.concatenate(pairs), np.concatenate(sizes), n_pairs)
            return total.astype(np.intp)
        h = rect[:, 3] - rect[:, 1]
        n = max(1, runs.size // (int(h.max()) * cols))
        take, rect, h = rect[:n], rect[n:], h[:n]
        pair, alo, blo, _, bhi = take.T
        height = int(h.max())
        i = np.where(di[:height] < h[:, None], alo[:, None] + di[:height], rows - 1)
        box = by_row.take(i + (pair * rows)[:, None], axis=0)
        reach_j = np.where(dj < bhi[:, None], dj + 1 - blo[:, None], 0).astype(dtype)
        np.minimum(box, reach_i[:height, None], out=box)
        np.minimum(box, reach_j[:, None], out=box)
        box = box.reshape(len(take), -1)


def _chunks(lengths: np.ndarray, gram_len: np.ndarray):
    """Cut pairs sorted longest window first into (lo, hi, n-gram width) chunks.

    A chunk's run-length tables, (window + 1) x (n-gram + 1) cells per
    pair, hold at most ``_TABLE_CELLS`` cells; a pair bigger than that is a
    chunk of its own.
    """
    widest = np.maximum.accumulate(gram_len[::-1])[::-1] + 1  # from each pair on
    lo = 0
    while lo < lengths.size:
        hi = lo + max(1, _TABLE_CELLS // int((lengths[lo] + 1) * widest[lo]))
        yield lo, hi, widest[lo]
        lo = hi


def _window_codes(
    codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray, pad: int
) -> np.ndarray:
    """The windows ``codes[starts[p]:starts[p] + lengths[p]]``, one per column,
    padded with ``pad`` to one more than the longest."""
    di = np.arange(lengths.max(initial=0) + 1)[:, None]
    return np.where(di < lengths, codes[np.minimum(starts + di, codes.size - 1)], pad)


def _matching_totals(
    codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
    grams: np.ndarray, tables: NgramTables, floor: float,
) -> np.ndarray:
    """difflib's matching-block total M of many (window, n-gram) pairs.

    Window p is ``codes[starts[p]:starts[p] + lengths[p]]`` (seq1) and
    n-gram ``grams[p]`` indexes ``tables`` (seq2), matched as
    ``SequenceMatcher(None, window, n-gram, autojunk=False)`` would. M is
    at most the pair's longest common subsequence, so a pair whose LCS
    cannot reach ``floor`` is not matched and gets 0; an n-gram longer
    than 64 characters does not fit the LCS bit vector and is always
    matched. Both passes take the pairs longest window first, in
    ``_chunks``.
    """
    other = len(tables.alphabet)  # no n-gram holds it: the windows' padding
    gram_len = tables.lengths[grams]
    by_size = np.lexsort((-gram_len, -lengths))
    passed = np.zeros(by_size.size, dtype=bool)
    for lo, hi, _ in _chunks(lengths[by_size], gram_len[by_size]):
        p = by_size[lo:hi]
        lcs = _lcs_lengths(_window_codes(codes, starts[p], lengths[p], other), grams[p], tables)
        passed[p] = (gram_len[p] > 64) | (_ratio(lcs, lengths[p] + gram_len[p]) >= floor)
    by_size = by_size[passed[by_size]]
    out = np.zeros(passed.size, dtype=np.intp)
    for lo, hi, width in _chunks(lengths[by_size], gram_len[by_size]):
        p = by_size[lo:hi]
        a = _window_codes(codes, starts[p], lengths[p], other)
        out[p] = _chunk_totals(a, lengths[p], tables.codes[grams[p], :width], gram_len[p])
    return out


def _gram_tables(
    grams: list[str], alphabet: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Length, character codes, character histogram and LCS match masks of each n-gram.

    ``codes[g]`` holds n-gram g's character codes followed by at least one
    ``len(alphabet) + 1``, a code no window holds. Bit i of ``masks[g, c]``
    is set where character i (< 64) of n-gram g has code c.
    """
    width = len(alphabet) + 1
    lengths = np.array([len(g) for g in grams], dtype=np.intp)
    codes = np.full((len(grams), int(lengths.max(initial=0)) + 1), width, dtype=np.intp)
    hist = [[0] * width for _ in grams]
    masks = [[0] * width for _ in grams]
    for g, gram in enumerate(grams):
        for i, ch in enumerate(gram):
            codes[g, i] = alphabet[ch]
            hist[g][alphabet[ch]] += 1
            if i < 64:
                masks[g][alphabet[ch]] |= 1 << i
    return (
        lengths,
        codes,
        np.array(hist, dtype=np.int32).reshape(len(grams), width),
        np.array(masks, dtype=np.uint64).reshape(len(grams), width),
    )


def _level_indicators(hist: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """``hist[r, u] >= levels[k]`` at row r, column ``k * U + u``, as float32 0s and 1s."""
    return (hist[:, None, :] >= levels[:, None]).reshape(len(hist), -1).astype(np.float32)


class _OrderBound(NamedTuple):
    """The key n-grams of one token order, as the character bound reads them.

    ``sel`` indexes the n-grams in ``NgramTables``, ``used`` holds the
    character codes they contain and ``levels`` is 1..K, K the largest
    count of one character in one of them. ``ind`` is their level
    indicator matrix, ``(K * len(used), len(sel))``: row ``k * U + u`` is 1
    where the n-gram holds code ``used[u]`` at least ``levels[k]`` times.
    """

    order: int
    sel: np.ndarray
    used: np.ndarray
    levels: np.ndarray
    ind: np.ndarray

    def intersections(self, hist: np.ndarray) -> np.ndarray:
        """Multiset intersection of each window's characters with each n-gram's.

        ``hist`` holds one window's histogram over all character codes per
        row. For non-negative integers min(a, b) = sum over k = 1..K of
        [a >= k] * [b >= k] when b <= K, so the intersections are one
        product of indicator matrices. Every term is 0 or 1 and every
        partial sum at most the n-gram's length, so each float32 result is
        the exact integer whatever the BLAS kernel, its blocking or FMA, as
        long as n-grams are shorter than 2**24 characters.
        """
        return _level_indicators(hist[:, self.used], self.levels) @ self.ind


@dataclass(frozen=True, eq=False)
class NgramTables:
    """Key n-gram slots as the fuzzy engine reads them, built once per slot list.

    ``n_slots`` counts the slots, padding included, and ``present`` holds
    the slot of each real (non-None) n-gram; the other fields index those
    n-grams in slot order. Characters are coded by ``alphabet``, the
    n-grams' characters in sorted order; every other character gets the
    one code ``len(alphabet)``. ``points`` holds the alphabet's code points
    in the same order, then 2**32 - 1, which no character has. ``lengths``,
    ``codes`` (each n-gram's codes, padded) and ``masks`` come from
    ``_gram_tables``; ``low[g]`` selects the low |n-gram g| bits (at most
    64) of an LCS bit vector. ``by_order`` holds one ``_OrderBound`` per
    token order: the n-grams of that order, the character codes they use
    and their level indicator matrix, from which one matrix product gives
    the character bound of many windows. A table is read-only once built,
    so calls may share it, also from several threads.
    """

    n_slots: int
    present: np.ndarray
    alphabet: dict[str, int]
    points: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray
    masks: np.ndarray
    low: np.ndarray
    by_order: list[_OrderBound]

    @classmethod
    def of(cls, key_ngrams: list[str | None]) -> "NgramTables":
        present = np.array([j for j, g in enumerate(key_ngrams) if g is not None], dtype=np.intp)
        grams = [key_ngrams[j] for j in present]
        alphabet = {ch: a for a, ch in enumerate(sorted(set("".join(grams))))}
        lengths, codes, hist, masks = _gram_tables(grams, alphabet)
        orders = np.array([len(g.split()) for g in grams], dtype=np.intp)
        by_order = []
        for order in sorted(set(orders.tolist())):
            sel = np.flatnonzero(orders == order)
            used = np.flatnonzero(hist[sel].any(axis=0))
            sel_hist = hist[np.ix_(sel, used)]
            levels = np.arange(1, sel_hist.max(initial=0) + 1, dtype=np.int32)
            ind = _level_indicators(sel_hist, levels).T
            by_order.append(_OrderBound(order, sel, used, levels, ind))
        return cls(
            n_slots=len(key_ngrams),
            present=present,
            alphabet=alphabet,
            points=np.array([ord(ch) for ch in alphabet] + [2**32 - 1], dtype=np.uint32),
            lengths=lengths,
            codes=codes,
            masks=masks,
            low=np.array([(1 << min(n, 64)) - 1 for n in lengths.tolist()], dtype=np.uint64),
            by_order=by_order,
        )


def fuzzy_ratios(texts: list[str], tables: NgramTables, floor: float) -> FuzzyRatios:
    """``window_ratios`` of every text and key n-gram, kept where they reach ``floor``.

    ``tables`` is the n-grams' prepared state, ``NgramTables.of(key_ngrams)``:
    a fitted spec derives it once (``FeatureModelSpec.ngram_tables``) and
    every call reuses it, so a call does only the per-text work.

    The ratio is difflib's 2M/(la+lb), where M is the total length of the
    matching blocks that ``SequenceMatcher(None, window, n-gram,
    autojunk=False)`` finds (Ratcliff & Obershelp's gestalt matching). M is
    at most the longest common subsequence of the two strings, which is at
    most the multiset intersection of their characters (``quick_ratio``).
    The intersection is computed for a chunk of windows and all n-grams of
    one order at once, as one exact float32 matrix product of level
    indicators (``_OrderBound.intersections``), from per-token character
    histograms over the n-grams' alphabet, prefix-summed along the texts.
    A chunk's arrays hold at most a quarter of ``_PAIR_CHUNK`` elements
    each. The pairs whose bound, in difflib's own float expression, reaches
    ``floor`` wait in a buffer of at most ``_PAIR_CHUNK`` pairs;
    ``_matching_totals`` then computes their LCS and the exact M of those
    that pass, in chunks of at most ``_TABLE_CELLS`` table cells. Windows
    are seq1 and n-grams seq2, as in ``window_ratios``, so every kept ratio
    is bit-identical to it.
    """
    if not MIN_CUTOFF <= floor <= 1.0:
        raise ValueError(f"cutoff must be in [{MIN_CUTOFF}, 1.0], got {floor}")
    alphabet = tables.alphabet
    other = len(alphabet)  # the code of every character no n-gram contains
    space = alphabet.get(" ", other)
    gram_len = tables.lengths

    # Every token is followed by one space in ``joined``, so the window of
    # ``order`` tokens from token i is joined[char_at[i]:char_at[i + order]]
    # without its last character; windows never straddle two texts.
    toks = [_tokens(t) for t in texts]
    flat = [tok for ts in toks for tok in ts]
    joined = "".join(tok + " " for tok in flat)
    points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    codes = np.searchsorted(tables.points, points)
    codes[tables.points[codes] != points] = other
    tok_span = np.array([len(tok) + 1 for tok in flat], dtype=np.intp)
    char_at = np.concatenate([[0], np.cumsum(tok_span)])
    # cum_hist[i, c]: occurrences of code c in the first i tokens and their
    # spaces, counted in blocks of rows whose int64 counts fit _PAIR_CHUNK.
    cum_hist = np.zeros((len(flat) + 1, other + 1), dtype=np.int32)
    step = max(1, _PAIR_CHUNK // (other + 1))
    for lo in range(0, len(flat), step):
        block = cum_hist[lo + 1:lo + 1 + step]
        cell = np.repeat(np.arange(len(block)) * (other + 1), tok_span[lo:lo + step])
        cell += codes[char_at[lo]:char_at[lo + len(block)]]
        block[:] = np.bincount(cell, minlength=block.size).reshape(block.shape)
    np.cumsum(cum_hist, axis=0, out=cum_hist)
    n_toks = np.array([len(ts) for ts in toks], dtype=np.intp)
    first_tok = np.cumsum(n_toks) - n_toks

    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pending: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    n_pending = 0

    def match_pending() -> None:
        """Match the pending candidate pairs, keeping the ratios that reach ``floor``."""
        text, start, length, gram = (np.concatenate(col) for col in zip(*pending))
        pending.clear()
        matches = _matching_totals(codes, start, length, gram, tables, floor)
        ratio = _ratio(matches, length + gram_len[gram])
        hit = ratio >= floor
        found.append((text[hit], tables.present[gram[hit]], ratio[hit]))

    for bound in tables.by_order:
        order, sel = bound.order, bound.sel
        n_win = np.maximum(n_toks - order + 1, 0)
        win_text = np.repeat(np.arange(len(texts)), n_win)
        win_tok = first_tok[win_text] + np.arange(win_text.size) - np.repeat(
            np.cumsum(n_win) - n_win, n_win
        )
        # A quarter of _PAIR_CHUNK per array: the ratio step below holds about
        # four 8-byte window x n-gram arrays at once.
        chunk = max(1, _PAIR_CHUNK // (4 * max(other + 1, *bound.ind.shape)))
        for lo in range(0, win_text.size, chunk):
            first = win_tok[lo:lo + chunk]
            start = char_at[first]
            # less the one space after the window's last token
            length = char_at[first + order] - start - 1
            hist = cum_hist[first + order] - cum_hist[first]
            hist[:, space] -= 1
            inter = bound.intersections(hist)
            pw, pg = np.nonzero(_ratio(inter, length[:, None] + gram_len[sel]) >= floor)
            pending.append((win_text[lo + pw], start[pw], length[pw], sel[pg]))
            n_pending += pw.size
            if n_pending >= _PAIR_CHUNK:
                match_pending()
                n_pending = 0
    if pending:
        match_pending()

    rows, cols, ratios = (
        (np.concatenate(col) for col in zip(*found))
        if found
        else (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), np.empty(0))
    )
    return FuzzyRatios(
        shape=(len(texts), tables.n_slots), floor=floor, rows=rows, cols=cols, ratios=ratios
    )


def fit_tfidf_vocab(train_texts: list[str]) -> dict[str, tuple[int, float]]:
    """Train-unigram vocabulary with smoothed idf weights.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1; indices follow lexicographic
    term order so fits are deterministic.
    """
    n_docs = len(train_texts)
    df = Counter()
    for text in train_texts:
        df.update(set(_tokens(text)))
    vocab = {}
    for i, term in enumerate(sorted(df)):
        vocab[term] = (i, float(np.log((1 + n_docs) / (1 + df[term])) + 1.0))
    return vocab


def tfidf_matrix(texts: list[str], vocab: Mapping[str, tuple[int, float]]) -> np.ndarray:
    """Term-count * idf rows, L2-normalized (zero rows stay zero)."""
    X = np.zeros((len(texts), len(vocab)), dtype=float)
    for row, text in enumerate(texts):
        for term, count in Counter(_tokens(text)).items():
            hit = vocab.get(term)
            if hit is not None:
                idx, idf = hit
                X[row, idx] = count * idf
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return X / norms


def with_positive_peaks(columns: np.ndarray) -> np.ndarray:
    """``columns`` with each column negated whose first largest-magnitude
    entry is negative."""
    peaks = columns[np.argmax(np.abs(columns), axis=0), np.arange(columns.shape[1])]
    return columns * np.where(peaks < 0, -1.0, 1.0)


def top_right_singular_vectors(X: np.ndarray, d: int) -> np.ndarray:
    """Top-d right singular vectors of X as orthonormal columns.

    Equivalent to the leading eigenvectors of the Gram matrix X^T X.
    Each column's sign is fixed so its largest-magnitude entry is
    positive. Shrinks d to the numerical rank, warning when it must.
    """
    _, s, vt = np.linalg.svd(X, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        raise RankDeficient("matrix has no nonzero singular values")
    rank = int(np.sum(s > s[0] * 1e-10))
    if d > rank:
        warnings.warn(
            f"requested {d} eigenvectors but rank is {rank}; shrinking", stacklevel=2
        )
        d = rank
    return with_positive_peaks(vt[:d].T.copy())


def fit_tfidf_projection(
    train_texts: list[str], d_t: int
) -> tuple[dict[str, tuple[int, float]], np.ndarray]:
    """Fit the TF-IDF vocabulary and its eigen-projection on train texts."""
    if d_t < 1:
        raise ValueError(f"d_t must be >= 1, got {d_t}")
    vocab = fit_tfidf_vocab(train_texts)
    if not vocab:
        raise RankDeficient("empty vocabulary: no train tokens")
    X = tfidf_matrix(train_texts, vocab)
    return vocab, top_right_singular_vectors(X, d_t)


_SENTENCE_SPLIT = re.compile(r"[.!?]")
_PUNCT = frozenset(string.punctuation)


def text_stats(s: str) -> np.ndarray:
    """Ten surface statistics of a text; all zeros for empty text.

    (characters, words, sentences, mean word length, mean sentence
    length in words, type-token ratio, punctuation count, digit count,
    stopword fraction, longest word length). Words are whitespace
    tokens; sentences split on . ! ?; leading/trailing whitespace is
    ignored throughout.
    """
    stripped = s.strip()
    if not stripped:
        return np.zeros(TEXT_STATS_DIM, dtype=float)
    words = stripped.split()
    sentences = [seg for seg in _SENTENCE_SPLIT.split(stripped) if seg.strip()]
    lowered = [w.lower() for w in words]
    return np.array(
        [
            len(stripped),
            len(words),
            len(sentences),
            sum(map(len, words)) / len(words),
            len(words) / len(sentences) if sentences else 0.0,
            len(set(lowered)) / len(words),
            sum(map(_PUNCT.__contains__, stripped)),
            sum(map(str.isdigit, stripped)),
            sum(map(STOPWORDS.__contains__, lowered)) / len(words),
            max(map(len, words)),
        ],
        dtype=float,
    )


def fit_standardizer(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column population mean and sd; sd stays 0 for constant columns."""
    return X.mean(axis=0), X.std(axis=0)


def apply_standardizer(X: np.ndarray, mean: np.ndarray, sd: np.ndarray) -> np.ndarray:
    """Standardize columns; columns with sd 0 map to all zeros."""
    safe = np.where(sd > 0.0, sd, 1.0)
    return np.where(sd > 0.0, (X - mean) / safe, 0.0)


@dataclass(frozen=True, eq=False)
class FeatureModelSpec:
    """A fitted feature extractor: everything needed to score new text.

    A spec is checked when it is made, so every spec that exists is whole,
    and it is frozen all the way down: the key n-grams are a tuple and the
    vocabulary a read-only mapping, so specs that share them cannot edit
    them. What scoring needs that depends only on the spec, the key n-grams'
    ``NgramTables`` and the prompt's ``minutiae_substrings``, is derived
    from the saved fields the first time the spec scores, reused by every
    later ``extract_features`` call on it, and never saved. ``prompt_id``
    names the prompt it was fitted on, so it scores no other prompt's answers.
    """

    prompt_id: int
    tfidf_vocab: Mapping[str, tuple[int, float]]
    tfidf_projection: np.ndarray
    key_ngrams: tuple[KeyNgram, ...]
    near_match_cutoff: float
    standardizer: tuple[np.ndarray, np.ndarray]
    embedding_dim: int | None
    prompt_minutiae: str

    @property
    def d_t(self) -> int:
        return self.tfidf_projection.shape[1]

    @property
    def feature_dim(self) -> int:
        return (
            (self.embedding_dim or 0)
            + self.d_t
            + len(MINUTIAE_LENGTHS)
            + len(self.key_ngrams)
            + TEXT_STATS_DIM
        )

    def ngram_strings(self) -> list[str | None]:
        return [g.text for g in self.key_ngrams]

    @cached_property
    def ngram_tables(self) -> NgramTables:
        return NgramTables.of(self.ngram_strings())

    @cached_property
    def prompt_subs(self) -> list[set[str]]:
        return minutiae_substrings(self.prompt_minutiae)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key_ngrams", tuple(self.key_ngrams))
        if not isinstance(self.tfidf_vocab, MappingProxyType):
            object.__setattr__(self, "tfidf_vocab", MappingProxyType(dict(self.tfidf_vocab)))
        if not MIN_CUTOFF <= self.near_match_cutoff <= 1.0:
            raise ValueError(f"cutoff out of range: {self.near_match_cutoff}")
        # Scoring matches the _tokens of answers against these texts and takes
        # an n-gram's order from its text, so each must be in _tokens form.
        orders = [g.order for g in self.key_ngrams]
        if orders != [order for order in NGRAM_ORDERS for _ in range(NGRAMS_PER_ORDER)]:
            raise ValueError("expected 30 key n-grams of order 1, then 30 of 2, then 30 of 3")
        for text, order in ((g.text, g.order) for g in self.key_ngrams if g.text is not None):
            tokens = _tokens(text)
            if len(tokens) != order:
                raise ValueError(
                    f"key n-gram {text!r} has {len(tokens)} tokens, not its order {order}"
                )
            if text != " ".join(tokens):
                raise ValueError(f"key n-gram {text!r} is not lower-case tokens one space apart")
        for term in self.tfidf_vocab:
            if _tokens(term) != [term]:
                raise ValueError(f"vocabulary term {term!r} is not one lower-cased token")
        if self.tfidf_projection.shape[0] != len(self.tfidf_vocab):
            raise ValueError("projection rows disagree with vocabulary size")
        mean, sd = self.standardizer
        idf = [idf for _, idf in self.tfidf_vocab.values()]
        blocks = ("projection", self.tfidf_projection), ("std_mean", mean), ("std_sd", sd)
        for name, values in (*blocks, ("vocab", idf)):
            require_finite(name, values)
        gram = self.tfidf_projection.T @ self.tfidf_projection
        if not np.allclose(gram, np.eye(self.d_t), atol=1e-8):
            raise ValueError("projection columns are not orthonormal")
        if mean.shape != (self.feature_dim,) or sd.shape != (self.feature_dim,):
            raise ValueError("standardizer length disagrees with feature dimension")

    def to_artifact(self, mlp: MlpModel) -> Artifact:
        """The ``feature-model`` artifact (``model.txt``) of this spec and the
        MLP trained on its features."""
        vocab_rows = [None] * len(self.tfidf_vocab)
        for term, (idx, idf) in self.tfidf_vocab.items():
            vocab_rows[idx] = [term, fmt_float(idf)]
        ngram_rows = [
            [str(g.order), g.text if g.text is not None else "", fmt_float(g.score)]
            for g in self.key_ngrams
        ]
        mean, sd = self.standardizer
        return Artifact(
            kind="feature-model",
            meta={
                "cutoff": fmt_float(self.near_match_cutoff),
                "embedding_dim": "none" if self.embedding_dim is None else str(self.embedding_dim),
                "prompt": str(self.prompt_id),
                "prompt_minutiae": self.prompt_minutiae,
            },
            tables={"vocab": vocab_rows, "key_ngrams": ngram_rows},
            arrays={
                "projection": self.tfidf_projection,
                "std_mean": mean,
                "std_sd": sd,
                **mlp.to_arrays(),
            },
        )

    @classmethod
    def from_artifact(cls, art: Artifact) -> tuple["FeatureModelSpec", MlpModel]:
        """The spec and MLP of a ``feature-model`` artifact; HeaderMismatch if
        a key, table or matrix is missing, or if the MLP's input width is not
        the spec's feature count."""
        art.require(
            meta=("cutoff", "embedding_dim", "prompt", "prompt_minutiae"),
            tables=("vocab", "key_ngrams"),
            arrays=("projection", "std_mean", "std_sd", *MLP_ARRAYS),
        )
        vocab = {
            term: (idx, float(idf)) for idx, (term, idf) in enumerate(art.tables["vocab"])
        }
        key_ngrams = [
            KeyNgram(text=text if text else None, order=int(order), score=float(score))
            for order, text, score in art.tables["key_ngrams"]
        ]
        emb = art.meta["embedding_dim"]
        spec = cls(
            prompt_id=int(art.meta["prompt"]),
            tfidf_vocab=vocab,
            tfidf_projection=art.arrays["projection"],
            key_ngrams=key_ngrams,
            near_match_cutoff=float(art.meta["cutoff"]),
            standardizer=(row_vector(art.arrays, "std_mean"), row_vector(art.arrays, "std_sd")),
            embedding_dim=None if emb == "none" else int(emb),
            prompt_minutiae=art.meta["prompt_minutiae"],
        )
        mlp = MlpModel.from_arrays(art.arrays)
        if mlp.w1.shape[0] != spec.feature_dim:
            raise HeaderMismatch(
                f"the feature spec gives {spec.feature_dim} features, but matrix mlp_w1 has"
                f" {mlp.w1.shape[0]} rows"
            )
        return spec, mlp


def _embedding_block(
    responses: list[ScoredResponse], dim: int, embeddings: EmbeddingTable | None
) -> np.ndarray:
    if embeddings is None:
        raise MissingEmbedding("spec expects embeddings but none were provided")
    if embeddings.dim != dim:
        raise MissingEmbedding(
            f"embedding table has dim {embeddings.dim}, spec expects {dim}"
        )
    missing = next((r for r in responses if r.id not in embeddings.rows), None)
    if missing is not None:
        raise MissingEmbedding(f"no embedding for response {missing.id!r}")
    rows = [embeddings.rows[r.id] for r in responses]
    return np.array(rows, dtype=float).reshape(len(responses), dim)


def _raw_blocks(
    responses: list[ScoredResponse],
    vocab: Mapping[str, tuple[int, float]],
    ngrams: NgramTables,
    prompt_subs: list[set[str]],
    floor: float,
    embedding_dim: int | None,
    embeddings: EmbeddingTable | None,
) -> tuple:
    """The five blocks' unstandardized rows: TF-IDF as unprojected term rows,
    the fuzzy block as ratios that reach ``floor``."""
    texts = [r.text for r in responses]
    return (
        None if embedding_dim is None else _embedding_block(responses, embedding_dim, embeddings),
        tfidf_matrix(texts, vocab),
        np.array([minutiae_overlap(t, prompt_subs) for t in texts]),
        fuzzy_ratios(texts, ngrams, floor),
        np.array([text_stats(t) for t in texts]),
    )


def _assemble(blocks: tuple, projection: np.ndarray, cutoff: float) -> np.ndarray:
    """Concatenate the blocks in feature order, projecting the term rows with ``projection``.

    Fit and score both project here, with the spec's own projection, so a
    spec reproduces the rows it was fitted on bit for bit.
    """
    emb, terms, minutiae, fuzzy, stats = blocks
    parts = (emb, terms @ projection, minutiae, fuzzy.counts(cutoff), stats)
    return np.concatenate([b for b in parts if b is not None], axis=1)


@dataclass(frozen=True)
class FeatureMatrix:
    """Standardized feature rows in a fixed id order."""

    ids: list[str]
    data: np.ndarray

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def fit_feature_model(
    corpus: PromptCorpus,
    d_t: int,
    near_match_cutoff: float,
    embeddings: EmbeddingTable | None = None,
    prompt_text: str | None = None,
) -> tuple[FeatureModelSpec, FeatureMatrix]:
    """Fit every extractor on the train split and ``prompt_text`` (none when
    unset); the spec and the corpus's feature rows."""
    builder = CachedFeatureBuilder(
        corpus, embeddings, prompt_text, d_t_max=d_t, floor=near_match_cutoff
    )
    return builder.build(d_t, near_match_cutoff)


def extract_features(
    responses: list[ScoredResponse],
    spec: FeatureModelSpec,
    embeddings: EmbeddingTable | None = None,
) -> FeatureMatrix:
    """Apply a fitted spec to any responses, standardizing with train stats."""
    cutoff = spec.near_match_cutoff
    blocks = _raw_blocks(
        responses, spec.tfidf_vocab, spec.ngram_tables, spec.prompt_subs, cutoff,
        spec.embedding_dim, embeddings,
    )
    raw = _assemble(blocks, spec.tfidf_projection, cutoff)
    mean, sd = spec.standardizer
    return FeatureMatrix(ids=[r.id for r in responses], data=apply_standardizer(raw, mean, sd))


# No caller in src: kept because perfbench/spans.py wraps cli.build_features.
def build_features(
    corpus: PromptCorpus,
    spec: FeatureModelSpec,
    embeddings: EmbeddingTable | None = None,
) -> FeatureMatrix:
    """Feature matrix over the whole corpus in train|dev|test order."""
    return extract_features(corpus.all_responses(), spec, embeddings)


class CachedFeatureBuilder:
    """The one feature fitter: fit once at the widest settings, then narrow.

    ``__init__`` fits on the train split and the prompt text (none when
    unset) and computes every block's rows once, at the widest settings
    ``build`` will be asked for: the eigen-projection at ``d_t_max``
    columns and the fuzzy window ratios that reach ``floor``; the TF-IDF
    rows are kept unprojected.
    ``build(d_t, cutoff)`` narrows from there: it slices the leading
    ``d_t`` eigenvectors (they are nested) into the spec's projection and
    projects the term rows with it, thresholds the ratios at ``cutoff``
    and refits the standardizer on the train rows, so its rows are the
    ones ``extract_features`` gives on the spec, bit for bit. Tuning fits
    once at ``floor=MIN_CUTOFF`` for all its trials; ``fit_feature_model``
    fits at its own d_t and cutoff. ``__init__`` builds the key n-grams'
    tables and the prompt's substring sets for its one scoring pass and
    keeps neither: the specs ``build`` returns share only the read-only
    vocabulary and key n-grams, and each derives its own tables the first
    time it scores.
    """

    def __init__(
        self,
        corpus: PromptCorpus,
        embeddings: EmbeddingTable | None = None,
        prompt_text: str | None = None,
        d_t_max: int = 300,
        floor: float = MIN_CUTOFF,
    ):
        self.prompt_id = corpus.prompt_id
        self.embedding_dim = embeddings.dim if embeddings is not None else None
        responses = corpus.all_responses()
        self.ids = [r.id for r in responses]
        self._n_train = len(corpus.train)
        vocab, self._projection_full = fit_tfidf_projection(
            [r.text for r in corpus.train], d_t_max
        )
        self.vocab = MappingProxyType(vocab)
        self.key_ngrams = tuple(select_key_ngrams([(r.text, r.score1) for r in corpus.train]))
        self.prompt_minutiae = normalize_text(prompt_text or "")
        ngrams = NgramTables.of([g.text for g in self.key_ngrams])
        prompt_subs = minutiae_substrings(self.prompt_minutiae)
        self._blocks = _raw_blocks(
            responses, self.vocab, ngrams, prompt_subs, floor, self.embedding_dim, embeddings
        )

    def build(self, d_t: int, cutoff: float) -> tuple[FeatureModelSpec, FeatureMatrix]:
        projection = self._projection_full[:, :d_t].copy()
        raw = _assemble(self._blocks, projection, cutoff)
        mean, sd = fit_standardizer(raw[: self._n_train])
        spec = FeatureModelSpec(
            prompt_id=self.prompt_id,
            tfidf_vocab=self.vocab,
            tfidf_projection=projection,
            key_ngrams=self.key_ngrams,
            near_match_cutoff=cutoff,
            standardizer=(mean, sd),
            embedding_dim=self.embedding_dim,
            prompt_minutiae=self.prompt_minutiae,
        )
        return spec, FeatureMatrix(ids=list(self.ids), data=apply_standardizer(raw, mean, sd))
