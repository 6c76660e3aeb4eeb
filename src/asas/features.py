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
from dataclasses import dataclass

import numpy as np

from .corpus import EmbeddingTable, PromptCorpus, ScoredResponse
from .errors import InsufficientClasses, MissingEmbedding, RankDeficient
from .serialize import Artifact, fmt_float

MINUTIAE_LENGTHS = range(5, 20)  # 15 substring lengths
NGRAM_ORDERS = (1, 2, 3)
NGRAMS_PER_ORDER = 30
TEXT_STATS_DIM = 10
# Lowest near-match cutoff: CachedFeatureBuilder keeps every ratio that
# reaches it, so any cutoff a trial picks is a thresholding pass.
MIN_CUTOFF = 0.5
# Bounds the fuzzy engine's work arrays: (window, n-gram, character) cells
# per histogram pass, and candidate pairs per LCS pass.
_PAIR_CHUNK = 1 << 16

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
    return "".join(ch for ch in s.lower() if ch.isalpha())


def minutiae_substrings(prompt: str) -> list[set[str]]:
    """The distinct substrings of the normalized prompt, one set per length."""
    p = normalize_text(prompt)
    return [
        {p[j:j + length] for j in range(len(p) - length + 1)} for length in MINUTIAE_LENGTHS
    ]


def minutiae_overlap(
    response: str, prompt: str, prompt_subs: list[set[str]] | None = None
) -> np.ndarray:
    """Distinct substring overlap counts between response and prompt.

    Component i counts the distinct substrings of length 5+i of the
    normalized response that also occur in the normalized prompt, for
    lengths 5 through 19 (15 dimensions). ``prompt_subs`` is
    ``minutiae_substrings(prompt)``, passed in when scoring many responses
    against one prompt.
    """
    if prompt_subs is None:
        prompt_subs = minutiae_substrings(prompt)
    r = normalize_text(response)
    out = np.zeros(len(MINUTIAE_LENGTHS), dtype=float)
    for i, (length, subs) in enumerate(zip(MINUTIAE_LENGTHS, prompt_subs)):
        # A common substring's prefixes are common too: once a length has
        # no overlap, no longer length has any.
        if len(r) < length or not subs:
            break
        out[i] = len({r[j:j + length] for j in range(len(r) - length + 1)} & subs)
        if not out[i]:
            break
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


def select_key_ngrams(
    train: list[tuple[str, int]], n_per_order: int = NGRAMS_PER_ORDER
) -> list[KeyNgram]:
    """Pick the n-grams most associated with the score class.

    Word n-grams (orders 1..3) over lowercased whitespace tokens are
    ranked by the chi-squared statistic of (document presence x score
    class); the top n_per_order of each order are kept, ties broken
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
        ranked = sorted(
            present_by_class,
            key=lambda g: (-_chi_squared(present_by_class[g], class_totals, n_docs), g),
        )
        top = ranked[:n_per_order]
        selected.extend(
            KeyNgram(text=g, order=order, score=_chi_squared(present_by_class[g], class_totals, n_docs))
            for g in top
        )
        selected.extend(
            KeyNgram(text=None, order=order, score=0.0) for _ in range(n_per_order - len(top))
        )
    return selected


def similarity_ratio(a: str, b: str) -> float:
    """2M / (|a| + |b|) where M is the total length of matching blocks
    found by recursive longest-common-contiguous-block matching."""
    return difflib.SequenceMatcher(None, a, b, autojunk=False).ratio()


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


def _may_reach(matches: np.ndarray, total: np.ndarray, floor: float) -> np.ndarray:
    """Whether difflib's ``2.0*M/(la+lb)`` can reach ``floor`` given a bound on M.

    Uses difflib's own float expression, so the test is exact. 0/0 (an
    empty window against an empty n-gram) is NaN here and 1.0 in difflib,
    hence "not below" rather than ">=".
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return ~(2.0 * matches / total < floor)


def _lcs_lengths(
    codes: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
    masks: np.ndarray, gram_len: np.ndarray, grams: np.ndarray,
) -> np.ndarray:
    """Longest-common-subsequence length of many (window, n-gram) pairs.

    Window p is ``codes[starts[p]:starts[p] + lengths[p]]``; bit i of
    ``masks[g, c]`` is set where character i of n-gram g has code c.
    Bit-parallel recurrence (Hyyro 2004): U = V & mask, V = (V+U) | (V-U)
    over the window's characters; the LCS is the number of zero bits left
    in V's low |n-gram| bits. Carries only move upward, so uint64 overflow
    never reaches those bits. Pairs are processed longest first so step k
    touches only the windows longer than k.
    """
    by_len = np.argsort(-lengths, kind="stable")
    starts, lengths, grams = starts[by_len], lengths[by_len], grams[by_len]
    v = np.full(by_len.size, np.iinfo(np.uint64).max, dtype=np.uint64)
    for k in range(int(lengths[0]) if lengths.size else 0):
        n = int(np.searchsorted(-lengths, -k))  # pairs whose window is longer than k
        u = v[:n] & masks[grams[:n], codes[starts[:n] + k]]
        v[:n] = (v[:n] + u) | (v[:n] - u)
    low = np.array([(1 << min(n, 64)) - 1 for n in gram_len.tolist()], dtype=np.uint64)
    ones = np.unpackbits((v & low[grams]).view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
    out = np.empty_like(lengths)
    out[by_len] = gram_len[grams] - ones
    return out


def _gram_tables(
    grams: list[str], alphabet: dict[str, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Length, character histogram and LCS match masks of each n-gram.

    Bit i of ``masks[g, c]`` is set where character i (< 64) of n-gram g
    has code c.
    """
    width = len(alphabet) + 1
    hist = [[0] * width for _ in grams]
    masks = [[0] * width for _ in grams]
    for g, gram in enumerate(grams):
        for i, ch in enumerate(gram):
            hist[g][alphabet[ch]] += 1
            if i < 64:
                masks[g][alphabet[ch]] |= 1 << i
    return (
        np.array([len(g) for g in grams], dtype=np.intp),
        np.array(hist, dtype=np.int32).reshape(len(grams), width),
        np.array(masks, dtype=np.uint64).reshape(len(grams), width),
    )


def fuzzy_ratios(
    texts: list[str], key_ngrams: list[str | None], floor: float
) -> FuzzyRatios:
    """``window_ratios`` of every text and n-gram, kept where they reach ``floor``.

    Exact pruning: difflib's ratio is 2M/(la+lb), where M, the length of
    its matching blocks, is at most the longest common subsequence of the
    two strings, which is at most the multiset intersection of their
    characters (``quick_ratio``), which is at most min(la, lb). The
    intersection is computed for blocks of (window, n-gram) pairs at once
    from per-token character histograms over the n-grams' alphabet,
    prefix-summed along the texts; the LCS, for the pairs that pass, by a
    vectorised bit-parallel recurrence; and difflib runs only on pairs
    whose bound, in difflib's own float expression, reaches ``floor``.
    Windows are seq1 and n-grams seq2, as in ``window_ratios``, so every
    kept ratio is bit-identical to it.
    """
    if not MIN_CUTOFF <= floor <= 1.0:
        raise ValueError(f"cutoff must be in [{MIN_CUTOFF}, 1.0], got {floor}")
    present = np.array([j for j, g in enumerate(key_ngrams) if g is not None], dtype=np.intp)
    grams = [key_ngrams[j] for j in present]
    alphabet = {ch: a for a, ch in enumerate(sorted(set("".join(grams))))}
    other = len(alphabet)  # the code of every character no n-gram contains
    space = alphabet.get(" ", other)
    gram_len, gram_hist, masks = _gram_tables(grams, alphabet)
    gram_order = np.array([len(g.split()) for g in grams], dtype=np.intp)

    # Every token is followed by one space in ``joined``, so the window of
    # ``order`` tokens from token i is joined[char_at[i]:char_at[i + order]]
    # without its last character; windows never straddle two texts.
    toks = [_tokens(t) for t in texts]
    flat = [tok for ts in toks for tok in ts]
    joined = "".join(tok + " " for tok in flat)
    codes = np.fromiter((alphabet.get(ch, other) for ch in joined), dtype=np.intp, count=len(joined))
    tok_span = np.array([len(tok) + 1 for tok in flat], dtype=np.intp)
    char_at = np.concatenate([[0], np.cumsum(tok_span)])
    # cum_hist[i, c]: occurrences of code c in the first i tokens and their spaces.
    cum_hist = np.zeros((len(flat) + 1, other + 1), dtype=np.int32)
    np.add.at(cum_hist, (np.repeat(np.arange(1, len(flat) + 1), tok_span), codes), 1)
    np.cumsum(cum_hist, axis=0, out=cum_hist)
    n_toks = np.array([len(ts) for ts in toks], dtype=np.intp)
    first_tok = np.cumsum(n_toks) - n_toks

    matchers: dict[int, difflib.SequenceMatcher] = {}
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    pending: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    n_pending = 0

    def match_pending() -> None:
        """LCS-filter the pending candidate pairs, then run difflib on the rest."""
        text, start, length, gram = (np.concatenate(col) for col in zip(*pending))
        pending.clear()
        lcs = _lcs_lengths(codes, start, length, masks, gram_len, gram)
        # An n-gram longer than 64 characters does not fit the bit vector.
        keep = (gram_len[gram] > 64) | _may_reach(lcs, length + gram_len[gram], floor)
        text, start, length, gram = text[keep], start[keep], length[keep], gram[keep]
        ratio = np.empty(gram.size, dtype=float)
        for k, (s, n, g) in enumerate(zip(start.tolist(), length.tolist(), gram.tolist())):
            matcher = matchers.get(g)
            if matcher is None:
                matcher = matchers[g] = difflib.SequenceMatcher(None, "", grams[g], autojunk=False)
            matcher.set_seq1(joined[s:s + n])
            ratio[k] = matcher.ratio()
        hit = ratio >= floor
        found.append((text[hit], present[gram[hit]], ratio[hit]))

    for order in sorted(set(gram_order.tolist())):
        sel = np.flatnonzero(gram_order == order)
        used = np.flatnonzero(gram_hist[sel].any(axis=0))
        sel_hist = gram_hist[np.ix_(sel, used)]
        n_win = np.maximum(n_toks - order + 1, 0)
        win_text = np.repeat(np.arange(len(texts)), n_win)
        win_tok = first_tok[win_text] + np.arange(win_text.size) - np.repeat(
            np.cumsum(n_win) - n_win, n_win
        )
        trailing = 1 if order else 0  # the space after a window's last token
        chunk = max(1, _PAIR_CHUNK // (sel.size * max(1, used.size)))
        for lo in range(0, win_text.size, chunk):
            first = win_tok[lo:lo + chunk]
            start = char_at[first]
            length = char_at[first + order] - start - trailing
            hist = cum_hist[first + order] - cum_hist[first]
            hist[:, space] -= trailing
            inter = np.minimum(hist[:, None, used], sel_hist[None]).sum(axis=2)
            pw, pg = np.nonzero(_may_reach(inter, length[:, None] + gram_len[sel], floor))
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
        shape=(len(texts), len(key_ngrams)), floor=floor, rows=rows, cols=cols, ratios=ratios
    )


def near_match_count(
    response: str, key_ngrams: list[str | None], cutoff: float
) -> np.ndarray:
    """Count fuzzy occurrences of each key n-gram in the response.

    A window counts when its similarity ratio with the n-gram is at
    least ``cutoff``; with cutoff 1.0 this reduces to exact occurrence
    counting. Padding slots (None) always contribute zero.
    """
    return fuzzy_ratios([response], key_ngrams, cutoff).counts(cutoff)[0]


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


def tfidf_matrix(texts: list[str], vocab: dict[str, tuple[int, float]]) -> np.ndarray:
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
    projection = vt[:d].T.copy()
    for j in range(projection.shape[1]):
        col = projection[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            projection[:, j] = -col
    return projection


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
            float(np.mean([len(w) for w in words])),
            len(words) / len(sentences) if sentences else 0.0,
            len(set(lowered)) / len(words),
            sum(ch in _PUNCT for ch in stripped),
            sum(ch.isdigit() for ch in stripped),
            sum(w in STOPWORDS for w in lowered) / len(words),
            max(len(w) for w in words),
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


@dataclass
class FeatureModelSpec:
    """A fitted feature extractor: everything needed to score new text."""

    tfidf_vocab: dict[str, tuple[int, float]]
    tfidf_projection: np.ndarray
    key_ngrams: list[KeyNgram]
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

    def validate(self) -> None:
        if not MIN_CUTOFF <= self.near_match_cutoff <= 1.0:
            raise ValueError(f"cutoff out of range: {self.near_match_cutoff}")
        if len(self.key_ngrams) != len(NGRAM_ORDERS) * NGRAMS_PER_ORDER:
            raise ValueError(f"expected 90 key n-grams, got {len(self.key_ngrams)}")
        for order in NGRAM_ORDERS:
            n = sum(1 for g in self.key_ngrams if g.order == order)
            if n != NGRAMS_PER_ORDER:
                raise ValueError(f"expected 30 n-grams of order {order}, got {n}")
        if self.tfidf_projection.shape[0] != len(self.tfidf_vocab):
            raise ValueError("projection rows disagree with vocabulary size")
        gram = self.tfidf_projection.T @ self.tfidf_projection
        if not np.allclose(gram, np.eye(self.d_t), atol=1e-8):
            raise ValueError("projection columns are not orthonormal")
        mean, sd = self.standardizer
        if mean.shape != (self.feature_dim,) or sd.shape != (self.feature_dim,):
            raise ValueError("standardizer length disagrees with feature dimension")

    def to_artifact(self) -> Artifact:
        vocab_rows = [None] * len(self.tfidf_vocab)
        for term, (idx, idf) in self.tfidf_vocab.items():
            vocab_rows[idx] = [term, fmt_float(idf)]
        ngram_rows = [
            [str(g.order), g.text if g.text is not None else "", fmt_float(g.score)]
            for g in self.key_ngrams
        ]
        mean, sd = self.standardizer
        return Artifact(
            kind="feature-spec",
            meta={
                "cutoff": fmt_float(self.near_match_cutoff),
                "embedding_dim": "none" if self.embedding_dim is None else str(self.embedding_dim),
                "prompt_minutiae": self.prompt_minutiae,
            },
            tables={"vocab": vocab_rows, "key_ngrams": ngram_rows},
            arrays={
                "projection": self.tfidf_projection,
                "std_mean": mean,
                "std_sd": sd,
            },
        )

    @classmethod
    def from_artifact(cls, art: Artifact) -> "FeatureModelSpec":
        art.require(
            meta=("cutoff", "embedding_dim", "prompt_minutiae"),
            tables=("vocab", "key_ngrams"),
            arrays=("projection", "std_mean", "std_sd"),
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
            tfidf_vocab=vocab,
            tfidf_projection=art.arrays["projection"],
            key_ngrams=key_ngrams,
            near_match_cutoff=float(art.meta["cutoff"]),
            standardizer=(art.arrays["std_mean"][0], art.arrays["std_sd"][0]),
            embedding_dim=None if emb == "none" else int(emb),
            prompt_minutiae=art.meta["prompt_minutiae"],
        )
        spec.validate()
        return spec


def _embedding_block(
    responses: list[ScoredResponse], dim: int, embeddings: EmbeddingTable | None
) -> np.ndarray:
    if embeddings is None:
        raise MissingEmbedding("spec expects embeddings but none were provided")
    if embeddings.dim != dim:
        raise MissingEmbedding(
            f"embedding table has dim {embeddings.dim}, spec expects {dim}"
        )
    block = np.empty((len(responses), dim), dtype=float)
    for i, r in enumerate(responses):
        vec = embeddings.rows.get(r.id)
        if vec is None:
            raise MissingEmbedding(f"no embedding for response {r.id!r}")
        block[i] = vec
    return block


def _raw_blocks(
    responses: list[ScoredResponse],
    vocab: dict[str, tuple[int, float]],
    projection: np.ndarray,
    key_ngrams: list[KeyNgram],
    prompt_minutiae: str,
    floor: float,
    embedding_dim: int | None,
    embeddings: EmbeddingTable | None,
) -> tuple:
    """The five blocks' unstandardized rows; the fuzzy block as ratios that reach ``floor``."""
    texts = [r.text for r in responses]
    prompt_subs = minutiae_substrings(prompt_minutiae)
    return (
        None if embedding_dim is None else _embedding_block(responses, embedding_dim, embeddings),
        tfidf_matrix(texts, vocab) @ projection,
        np.array([minutiae_overlap(t, prompt_minutiae, prompt_subs) for t in texts]),
        fuzzy_ratios(texts, [g.text for g in key_ngrams], floor),
        np.array([text_stats(t) for t in texts]),
    )


def _assemble(blocks: tuple, d_t: int, cutoff: float) -> np.ndarray:
    """Concatenate the blocks in feature order, keeping ``d_t`` TF-IDF columns."""
    emb, tfidf, minutiae, fuzzy, stats = blocks
    parts = (emb, tfidf[:, :d_t], minutiae, fuzzy.counts(cutoff), stats)
    return np.concatenate([b for b in parts if b is not None], axis=1)


@dataclass(frozen=True)
class FeatureMatrix:
    """Standardized feature rows in a fixed id order."""

    ids: list[str]
    data: np.ndarray

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def rows_for(self, ids: list[str]) -> np.ndarray:
        index = {rid: i for i, rid in enumerate(self.ids)}
        try:
            sel = [index[rid] for rid in ids]
        except KeyError as exc:
            raise KeyError(f"id {exc.args[0]!r} not in feature matrix") from None
        return self.data[sel]


def fit_feature_model(
    corpus: PromptCorpus,
    d_t: int,
    near_match_cutoff: float,
    embeddings: EmbeddingTable | None = None,
) -> tuple[FeatureModelSpec, FeatureMatrix]:
    """Fit every extractor on the train split; the spec and the corpus's feature rows."""
    builder = CachedFeatureBuilder(corpus, embeddings, d_t_max=d_t, floor=near_match_cutoff)
    return builder.build(d_t, near_match_cutoff)


def extract_features(
    responses: list[ScoredResponse],
    spec: FeatureModelSpec,
    embeddings: EmbeddingTable | None = None,
) -> FeatureMatrix:
    """Apply a fitted spec to any responses, standardizing with train stats."""
    cutoff = spec.near_match_cutoff
    blocks = _raw_blocks(
        responses, spec.tfidf_vocab, spec.tfidf_projection, spec.key_ngrams,
        spec.prompt_minutiae, cutoff, spec.embedding_dim, embeddings,
    )
    raw = _assemble(blocks, spec.d_t, cutoff)
    mean, sd = spec.standardizer
    return FeatureMatrix(ids=[r.id for r in responses], data=apply_standardizer(raw, mean, sd))


def build_features(
    corpus: PromptCorpus,
    spec: FeatureModelSpec,
    embeddings: EmbeddingTable | None = None,
) -> FeatureMatrix:
    """Feature matrix over the whole corpus in train|dev|test order."""
    return extract_features(corpus.all_responses(), spec, embeddings)


class CachedFeatureBuilder:
    """The one feature fitter: fit once at the widest settings, then narrow.

    ``__init__`` fits on the train split and computes every block's rows
    once, at the widest settings ``build`` will be asked for: the
    eigen-projection at ``d_t_max`` columns and the fuzzy window ratios
    that reach ``floor``. ``build(d_t, cutoff)`` narrows from there: it
    slices the leading ``d_t`` eigenvectors (they are nested), thresholds
    the ratios at ``cutoff`` and refits the standardizer on the train
    rows. Tuning fits once at ``floor=MIN_CUTOFF`` for all its trials;
    ``fit_feature_model`` fits at its own d_t and cutoff.
    """

    def __init__(
        self,
        corpus: PromptCorpus,
        embeddings: EmbeddingTable | None = None,
        d_t_max: int = 300,
        floor: float = MIN_CUTOFF,
    ):
        self.embedding_dim = embeddings.dim if embeddings is not None else None
        responses = corpus.all_responses()
        self.ids = [r.id for r in responses]
        self._n_train = len(corpus.train)
        self.vocab, self._projection_full = fit_tfidf_projection(
            [r.text for r in corpus.train], d_t_max
        )
        self.key_ngrams = select_key_ngrams([(r.text, r.score1) for r in corpus.train])
        self.prompt_minutiae = normalize_text(corpus.prompt_text)
        self._blocks = _raw_blocks(
            responses, self.vocab, self._projection_full, self.key_ngrams,
            self.prompt_minutiae, floor, self.embedding_dim, embeddings,
        )

    def build(self, d_t: int, cutoff: float) -> tuple[FeatureModelSpec, FeatureMatrix]:
        d_eff = min(d_t, self._projection_full.shape[1])
        raw = _assemble(self._blocks, d_eff, cutoff)
        mean, sd = fit_standardizer(raw[: self._n_train])
        spec = FeatureModelSpec(
            tfidf_vocab=self.vocab,
            tfidf_projection=self._projection_full[:, :d_eff].copy(),
            key_ngrams=self.key_ngrams,
            near_match_cutoff=cutoff,
            standardizer=(mean, sd),
            embedding_dim=self.embedding_dim,
            prompt_minutiae=self.prompt_minutiae,
        )
        spec.validate()
        return spec, FeatureMatrix(ids=list(self.ids), data=apply_standardizer(raw, mean, sd))
