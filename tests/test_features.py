"""Feature extractors against brute-force oracles and fitted-spec contracts."""
from __future__ import annotations

import dataclasses
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import asas.features
from asas.corpus import EmbeddingTable, ScoredResponse, build_corpus
from asas.errors import InsufficientClasses, MissingEmbedding, RankDeficient
from asas.features import (
    CachedFeatureBuilder,
    FeatureModelSpec,
    MIN_CUTOFF,
    MINUTIAE_LENGTHS,
    NgramTables,
    STOPWORDS,
    apply_standardizer,
    build_features,
    extract_features,
    fit_feature_model,
    fit_standardizer,
    fit_tfidf_projection,
    fit_tfidf_vocab,
    fuzzy_ratios,
    minutiae_overlap,
    minutiae_substrings,
    normalize_text,
    select_key_ngrams,
    text_stats,
    tfidf_matrix,
    top_right_singular_vectors,
    window_ratios,
    with_positive_peaks,
)
from asas.features import _TABLE_CELLS, _matching_totals, _ratio
from asas.learners import MlpModel
from asas.serialize import Artifact
from conftest import PROMPT_TEXT, make_toy_corpus, make_toy_responses
from oracles import (
    exact_window_counts,
    matching_blocks_total,
    minutiae_brute,
    near_match_count,
    normalize_text_per_char,
    positive_peaks_per_column,
    ratio_oracle,
    similarity_ratio,
    text_stats_per_char,
)


class TestNormalizeText:
    def test_strips_space_digit_punctuation(self):
        assert normalize_text("Don't stop! 123") == "dontstop"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_lowercases_and_keeps_order(self):
        assert normalize_text("A b C") == "abc"

    @example("\u01c5ungla \u1f88 \u0130stanbul")  # titlecase letters; İ lowers to i + U+0307
    @example("cafe\u0301 \u0345 \u05d0\u05b7")  # combining marks, alone and after letters
    @example("\U0001d400\U00010400 \U0001f600 \U00020000")  # outside the BMP
    @example("a\ud800b\udfff \udbff\udc00")  # lone and paired surrogate code points
    @given(st.text(st.characters(codec=None, exclude_categories=())))
    @settings(max_examples=300)
    def test_equals_the_per_character_generator(self, s):
        got = normalize_text(s)
        assert got.encode("utf-8", "surrogatepass") == (
            normalize_text_per_char(s).encode("utf-8", "surrogatepass")
        )


class TestMinutiaeOverlap:
    def test_self_overlap_counts_distinct_substrings(self):
        got = minutiae_overlap("abcdefgh", minutiae_substrings("abcdefgh"))
        assert got.tolist() == [4, 3, 2, 1] + [0] * 11

    def test_short_response_is_zero(self):
        assert minutiae_overlap("abcd", minutiae_substrings("abcdefgh")).tolist() == [0] * 15

    def test_disjoint_alphabets_is_zero(self):
        assert minutiae_overlap("aaaaaaaaaa", minutiae_substrings("bbbbbbbbbb")).tolist() == [0] * 15

    def test_fifteen_dimensions_for_lengths_5_to_19(self):
        assert list(MINUTIAE_LENGTHS) == list(range(5, 20))
        assert minutiae_overlap("x", minutiae_substrings("y")).shape == (15,)

    def test_matches_brute_force_on_random_strings(self):
        rng = random.Random(5)
        for _ in range(300):
            r = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            p = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            assert minutiae_overlap(r, minutiae_substrings(p)).tolist() == minutiae_brute(r, p)

    def test_matches_brute_force_up_to_length_19(self):
        # Responses are pieces of the prompt joined by noise, in mixed case
        # with spaces and digits, so common substrings reach every length.
        rng = random.Random(19)
        reached = set()
        for _ in range(200):
            p = "".join(rng.choice("ab") for _ in range(rng.randint(15, 60)))
            pieces = []
            for _ in range(rng.randint(1, 4)):
                start = rng.randrange(len(p))
                pieces.append(p[start:start + rng.randint(1, 30)])
                pieces.append("".join(rng.choice("abAB 7") for _ in range(rng.randint(0, 3))))
            r = "".join(pieces)
            chunks = [p[i:i + 7] for i in range(0, len(p), 7)]
            prompt = " ".join(c.upper() if i % 2 else c for i, c in enumerate(chunks))
            got = minutiae_overlap(r, minutiae_substrings(prompt))
            assert got.tobytes() == np.array(minutiae_brute(r, prompt), dtype=float).tobytes()
            reached |= {length for length, count in zip(MINUTIAE_LENGTHS, got) if count}
        assert reached == set(MINUTIAE_LENGTHS)


class TestSelectKeyNgrams:
    def _toy(self):
        high = ["osmosis moves the water", "the osmosis was seen", "so osmosis happened here"]
        low = ["the water just moved", "it was seen here", "so it just happened"]
        return [(t, 1) for t in high] + [(t, 0) for t in low]

    def test_perfect_separator_ranks_first_with_hand_chi_squared(self):
        selected = select_key_ngrams(self._toy())
        unigrams = [g for g in selected if g.order == 1]
        assert unigrams[0].text == "osmosis"
        # presence 3/3 in class 1, 0/3 in class 0: chi-squared = N = 6
        assert unigrams[0].score == pytest.approx(6.0)

    def test_pads_missing_slots_with_none(self):
        selected = select_key_ngrams(self._toy())
        trigrams = [g for g in selected if g.order == 3]
        assert len(trigrams) == 30
        assert any(g.text is None for g in trigrams)
        real = [g for g in trigrams if g.text is not None]
        assert all(len(g.text.split()) == 3 for g in real)

    def test_exactly_thirty_per_order(self):
        selected = select_key_ngrams(self._toy())
        for order in (1, 2, 3):
            assert sum(1 for g in selected if g.order == order) == 30

    def test_single_class_raises(self):
        with pytest.raises(InsufficientClasses):
            select_key_ngrams([("a b", 1), ("c d", 1)])

    def test_deterministic(self):
        assert select_key_ngrams(self._toy()) == select_key_ngrams(self._toy())

    def test_ties_break_lexicographically(self):
        train = [("zebra apple", 1), ("zebra apple", 1), ("plain text", 0), ("plain text", 0)]
        unigrams = [g for g in select_key_ngrams(train) if g.order == 1]
        perfect = [g.text for g in unigrams if g.score == pytest.approx(4.0)]
        assert perfect == sorted(perfect)


class TestNearMatch:
    def test_cutoff_one_equals_exact_counts(self):
        rng = random.Random(9)
        vocab = ["cell", "cells", "water", "osmosis", "osmsis", "moves"]
        for _ in range(200):
            text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 12)))
            grams = [
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(1, 5))
            ] + [None]
            got = near_match_count(text, grams, cutoff=1.0)
            assert got.tolist() == exact_window_counts(text, grams)

    def test_near_miss_spelling_is_counted(self):
        # ratio("photosynthesys", "photosynthesis") = 2*13/28
        assert similarity_ratio("photosynthesys", "photosynthesis") == pytest.approx(26 / 28)
        counts = near_match_count(
            "the photosynthesys process", ["photosynthesis"], cutoff=0.9
        )
        assert counts.tolist() == [1]

    def test_ratio_matches_reference_matcher(self):
        rng = random.Random(3)
        for _ in range(300):
            a = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
            b = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
            assert similarity_ratio(a, b) == pytest.approx(ratio_oracle(a, b), abs=1e-12)

    def test_empty_response_is_zero(self):
        assert near_match_count("", ["water", "the cell"], 0.7).tolist() == [0, 0]

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            near_match_count("x", ["x"], 0.4)

    def test_window_ratios_length(self):
        assert window_ratios("a b c d", "x y").shape == (3,)
        assert window_ratios("a", "x y").shape == (0,)


# Key words, near-miss spellings of them, and tokens carrying punctuation
# and digits that no key n-gram contains.
_KEY_WORDS = ["osmosis", "membrane", "water", "cell", "the"]
_NEAR_MISSES = ["osmsis", "osmoses", "membrame", "watter", "cells", "teh"]
_NOISE = ["cell,", "h2o!", "42", "(water)", "x"]
_texts = st.lists(
    st.lists(st.sampled_from(_KEY_WORDS + _NEAR_MISSES + _NOISE), max_size=10).map(" ".join),
    min_size=1, max_size=4,
)
_grams = st.lists(
    st.one_of(
        st.none(),
        st.lists(st.sampled_from(_KEY_WORDS + _NEAR_MISSES), min_size=1, max_size=3).map(" ".join),
    ),
    min_size=1, max_size=6,
)
_cutoffs = st.one_of(st.just(MIN_CUTOFF), st.just(1.0), st.floats(MIN_CUTOFF, 1.0))


class TestFuzzyRatios:
    @given(_texts, _grams, _cutoffs)
    @settings(max_examples=300, deadline=None)
    def test_counts_match_brute_force_windows(self, texts, grams, cutoff):
        want = [
            [0 if g is None else int(np.sum(window_ratios(t, g) >= cutoff)) for g in grams]
            for t in texts
        ]
        assert fuzzy_ratios(texts, NgramTables.of(grams), cutoff).counts(cutoff).tolist() == want
        assert fuzzy_ratios(texts, NgramTables.of(grams), MIN_CUTOFF).counts(cutoff).tolist() == want
        assert [near_match_count(t, grams, cutoff).tolist() for t in texts] == want

    def test_kept_ratios_equal_reference_ratios(self):
        texts = ["the osmsis of water", "", "membrame cell"]
        grams = ["osmosis", "membrane cell", None, "the osmosis of water through"]
        fr = fuzzy_ratios(texts, NgramTables.of(grams), MIN_CUTOFF)
        assert fr.ratios.size > 0
        for row, col, ratio in zip(fr.rows, fr.cols, fr.ratios):
            assert ratio in window_ratios(texts[row], grams[col])

    def test_characters_outside_the_bmp_and_lone_surrogates(self):
        texts = ["the \U0001d11e\ud800x water", "\ud800x \ud801x w\u00e4ter"]
        grams = ["\ud800x", "w\u00e4ter", "\U0001d11e\ud800x water"]
        want = [[int(np.sum(window_ratios(t, g) >= MIN_CUTOFF)) for g in grams] for t in texts]
        got = fuzzy_ratios(texts, NgramTables.of(grams), MIN_CUTOFF).counts(MIN_CUTOFF)
        assert got.tolist() == want

    def test_cutoff_below_floor_is_rejected(self):
        fr = fuzzy_ratios(["water"], NgramTables.of(["water"]), 0.8)
        with pytest.raises(ValueError):
            fr.counts(0.7)


def _match(pairs: list[tuple[str, str]]) -> tuple[np.ndarray, np.ndarray]:
    """M and ratio of each (window, n-gram) pair from the engine's matcher,
    every pair matched (floor 0)."""
    tables = NgramTables.of([b for _, b in pairs])
    other = len(tables.alphabet)
    # One trailing character no n-gram holds, so the codes are never empty.
    codes = np.array([tables.alphabet.get(ch, other) for a, _ in pairs for ch in a] + [other])
    lengths = np.array([len(a) for a, _ in pairs])
    starts = np.cumsum(lengths) - lengths
    grams = np.arange(len(pairs))
    matches = _matching_totals(codes, starts, lengths, grams, tables, 0.0)
    return matches, _ratio(matches, lengths + tables.lengths)


# Few letters make repeated characters and tied longest blocks common; the
# others are non-ASCII, one outside the Basic Multilingual Plane.
_short = st.one_of(st.text("ab", max_size=10), st.text("abcé€𝄞 ", max_size=20))
_long = st.text("ab c𝄞", min_size=65, max_size=140)


# A 300-character token holding a 200-character n-gram: one run of 200.
_GRAM_200 = "".join(random.Random(4).choice("abcdefghij") for _ in range(200))


class TestMatcher:
    def _check(self, pairs):
        matches, ratios = _match(pairs)
        want = np.array([similarity_ratio(a, b) for a, b in pairs])
        assert ratios.tobytes() == want.tobytes()
        assert matches.tolist() == [matching_blocks_total(a, b) for a, b in pairs]

    @given(st.lists(st.tuples(_short, _short), min_size=1, max_size=12))
    @example([("", ""), ("", "ab"), ("ab", ""), ("abab", "ba"), ("aaaa", "aa"), ("xyz", "abc")])
    @settings(max_examples=300, deadline=None)
    def test_equals_difflib_and_the_recursive_oracle(self, pairs):
        self._check(pairs)

    @given(st.lists(st.tuples(st.one_of(_short, _long), _long), min_size=1, max_size=4))
    @example([("k" * 60 + _GRAM_200 + "k" * 40, _GRAM_200)])
    @settings(max_examples=40, deadline=None)
    def test_ngrams_over_64_and_127_characters(self, pairs):
        self._check(pairs)


def _mutated(rng: random.Random, s: str, n: int) -> str:
    chars = list(s)
    for _ in range(n):
        chars[rng.randrange(len(chars))] = rng.choice("abcdefghijklmnopqrstuvwxyz")
    return "".join(chars)


class TestLongInputs:
    """Long tokens and n-grams: run lengths past int8, and a pair bigger
    than one chunk's cell budget, which is matched in a chunk of its own."""

    @pytest.mark.parametrize("token_len, gram_len", [(300, 200), (3000, 3000)])
    def test_long_token_against_long_ngram(self, token_len, gram_len, monkeypatch):
        tables = []
        chunk_totals = asas.features._chunk_totals

        def recorded(a, la, b, lb):
            tables.append((a.shape[0] * a.shape[1] * b.shape[1], a.shape[1]))
            return chunk_totals(a, la, b, lb)

        monkeypatch.setattr(asas.features, "_chunk_totals", recorded)
        rng = random.Random(token_len)
        gram = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(gram_len))
        filler = "".join(rng.choice("xyz") for _ in range(token_len - gram_len))
        token = _mutated(rng, gram, gram_len // 50) + filler
        text = f"the {token} and {gram} of it"
        fr = fuzzy_ratios([text], NgramTables.of([gram]), MIN_CUTOFF)
        want = window_ratios(text, gram)
        assert fr.counts(MIN_CUTOFF).tolist() == [[int(np.sum(want >= MIN_CUTOFF))]]
        assert sorted(fr.ratios.tolist()) == sorted(want[want >= MIN_CUTOFF].tolist())
        assert fr.ratios.size == 2
        assert tables and all(cells <= _TABLE_CELLS or pairs == 1 for cells, pairs in tables)


@pytest.fixture(scope="module")
def toy_builder():
    corpus = make_toy_corpus()
    return corpus, CachedFeatureBuilder(corpus, d_t_max=4)


@given(st.floats(MIN_CUTOFF, 1.0))
@settings(max_examples=25, deadline=None)
def test_builder_near_counts_match_direct_path(toy_builder, cutoff):
    corpus, builder = toy_builder
    spec, matrix = builder.build(4, cutoff)
    texts = [r.text for r in corpus.all_responses()]
    direct = fuzzy_ratios(texts, NgramTables.of(spec.ngram_strings()), cutoff).counts(cutoff)
    near = slice(spec.d_t + len(MINUTIAE_LENGTHS), spec.d_t + len(MINUTIAE_LENGTHS) + 90)
    mean, sd = spec.standardizer
    assert np.array_equal(matrix.data[:, near], apply_standardizer(direct, mean[near], sd[near]))


class TestTfidfProjection:
    @given(st.integers(1, 6), st.integers(0, 6), st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_sign_fix_bitwise_equals_the_per_column_loop(self, rows, cols, data):
        # few distinct magnitudes: zero entries, zero columns and tied maxima
        cells = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
        values = data.draw(st.lists(cells, min_size=rows * cols, max_size=rows * cols))
        columns = np.array(values, dtype=float).reshape(rows, cols)
        got, want = with_positive_peaks(columns), positive_peaks_per_column(columns)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_orthogonal_rows_recover_directions(self):
        X = np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
        projection = top_right_singular_vectors(X, 3)
        assert np.allclose(projection, np.eye(3), atol=1e-12)

    def test_columns_orthonormal(self):
        texts = [r.text for r in make_toy_responses(n=30, seed=2)]
        _, projection = fit_tfidf_projection(texts, d_t=5)
        assert np.allclose(projection.T @ projection, np.eye(5), atol=1e-8)

    def test_full_dimension_preserves_row_norms(self):
        texts = ["alpha", "beta", "gamma", "delta"]
        vocab, projection = fit_tfidf_projection(texts, d_t=4)
        assert projection.shape == (4, 4)
        X = tfidf_matrix(texts, vocab)
        assert np.allclose(
            np.linalg.norm(X @ projection, axis=1), np.linalg.norm(X, axis=1), atol=1e-8
        )

    def test_projected_matrix_reproduces_top_spectrum(self):
        texts = [r.text for r in make_toy_responses(n=40, seed=3)]
        vocab, projection = fit_tfidf_projection(texts, d_t=6)
        X = tfidf_matrix(texts, vocab)
        gram_eigs = np.sort(np.linalg.eigvalsh(X.T @ X))[::-1][:6]
        projected = X @ projection
        projected_eigs = np.sort(np.linalg.eigvalsh(projected.T @ projected))[::-1]
        assert np.allclose(projected_eigs, gram_eigs, rtol=1e-6)

    def test_rank_deficient_shrinks_with_warning(self):
        texts = ["one two", "one two", "one two"]
        with pytest.warns(UserWarning, match="shrinking"):
            _, projection = fit_tfidf_projection(texts, d_t=2)
        assert projection.shape[1] == 1

    def test_empty_vocabulary_raises(self):
        with pytest.raises(RankDeficient):
            fit_tfidf_projection(["", "   "], d_t=1)

    def test_smoothed_idf(self):
        vocab = fit_tfidf_vocab(["a b", "a c"])
        # df(a)=2 of N=2: idf = ln(3/3) + 1 = 1; df(b)=1: idf = ln(3/2) + 1
        assert vocab["a"][1] == pytest.approx(1.0)
        assert vocab["b"][1] == pytest.approx(np.log(1.5) + 1)


class TestTextStats:
    def test_empty_is_all_zeros(self):
        assert text_stats("").tolist() == [0.0] * 10
        assert text_stats("   ").tolist() == [0.0] * 10

    def test_hand_computed_vector(self):
        got = text_stats("The cat sat.")
        assert got.tolist() == pytest.approx(
            [12, 3, 1, 10 / 3, 3.0, 1.0, 1, 0, 1 / 3, 4]
        )

    def test_trailing_whitespace_invariance(self):
        s = "Water moves across the membrane!"
        assert text_stats(s).tolist() == text_stats(s + " ").tolist()
        assert text_stats(s).tolist() == text_stats("  " + s).tolist()

    def test_digit_and_punctuation_counts(self):
        got = text_stats("It was 42 degrees, really?!")
        assert got[7] == 2  # digits
        assert got[6] == 3  # , ? !

    def test_stopword_list_is_versioned_at_150_words(self):
        assert len(STOPWORDS) == 150

    @example("")
    @example(" \t\n ")
    @example("x\u00b2 + y\u00b3 = \u0663\u0664, 10\u00bd!")  # digits beyond 0-9, and ½ (not one)
    @example("The cat and the dog... were there; it's all?! (yes)")
    @example("?!. ..")  # no sentence and no letter
    @example("a " * 40 + "supercalifragilistic.")
    @given(st.lists(st.sampled_from(
        list("abT .?!,;'-27\u00b2\u0663\t\n") + [" the ", " and ", " THE ", " was ", " osmosis "]
    )).map("".join))
    @settings(max_examples=300)
    def test_equals_the_per_character_version(self, s):
        assert text_stats(s).tobytes() == text_stats_per_char(s).tobytes()


class TestStandardizer:
    def test_train_columns_standardized(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, size=(50, 4))
        mean, sd = fit_standardizer(X)
        Z = apply_standardizer(X, mean, sd)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-6)

    def test_constant_columns_map_to_zero(self):
        X = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
        mean, sd = fit_standardizer(X)
        Z = apply_standardizer(X, mean, sd)
        assert np.all(Z[:, 0] == 0.0)
        assert np.isfinite(Z).all()

    def test_restandardizing_is_idempotent(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 5, size=(30, 3))
        mean, sd = fit_standardizer(X)
        Z = apply_standardizer(X, mean, sd)
        mean2, sd2 = fit_standardizer(Z)
        assert np.allclose(apply_standardizer(Z, mean2, sd2), Z, atol=1e-9)


def _corpus_with_rank(n: int, k: int = 3, seed: int = 0):
    """Toy corpus whose train tf-idf matrix has rank >= ~n."""
    rng = random.Random(seed)
    pool = []
    for i in range(n):
        filler = " ".join(rng.choice(["the", "water", "moved"]) for _ in range(3))
        pool.append(
            ScoredResponse(
                id=str(i), prompt_id=1, text=f"unique{i} {filler}",
                score1=i % k, score2=i % k,
            )
        )
    return build_corpus(pool, prompt_id=1, dev_fraction=0.1, seed=seed)


class TestBuildFeatures:
    def test_dimension_with_embeddings_matches_stated_range(self):
        corpus = _corpus_with_rank(120)
        rng = np.random.default_rng(0)
        table = EmbeddingTable(
            dim=364,
            rows={r.id: rng.normal(size=364) for r in corpus.all_responses()},
        )
        spec, _ = fit_feature_model(
            corpus, d_t=100, near_match_cutoff=0.8, embeddings=table, prompt_text="the water"
        )
        matrix = build_features(corpus, spec, table)
        assert matrix.dim == 579  # 364 + 100 + 15 + 90 + 10

    def test_dimension_without_embeddings(self):
        corpus = _corpus_with_rank(340)
        spec, _ = fit_feature_model(corpus, d_t=300, near_match_cutoff=0.8, prompt_text="the water")
        matrix = build_features(corpus, spec)
        assert matrix.dim == 415  # 300 + 15 + 90 + 10

    def test_train_block_standardized_and_finite(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=8, near_match_cutoff=0.8)
        matrix = build_features(toy_corpus, spec)
        n_train = len(toy_corpus.train)
        train_block = matrix.data[:n_train]
        assert np.isfinite(matrix.data).all()
        assert np.allclose(train_block.mean(axis=0), 0.0, atol=1e-9)
        sds = train_block.std(axis=0)
        assert np.all((np.abs(sds - 1.0) <= 1e-6) | (sds == 0.0))

    def test_deterministic_extraction(self, toy_corpus):
        spec_a, _ = fit_feature_model(toy_corpus, d_t=8, near_match_cutoff=0.75)
        spec_b, _ = fit_feature_model(toy_corpus, d_t=8, near_match_cutoff=0.75)
        a = build_features(toy_corpus, spec_a)
        b = build_features(toy_corpus, spec_b)
        assert a.ids == b.ids
        assert np.array_equal(a.data, b.data)

    def test_missing_embedding_raises(self, toy_corpus):
        rng = np.random.default_rng(0)
        table = EmbeddingTable(
            dim=16, rows={r.id: rng.normal(size=16) for r in toy_corpus.all_responses()}
        )
        spec, _ = fit_feature_model(toy_corpus, d_t=8, near_match_cutoff=0.8, embeddings=table)
        with pytest.raises(MissingEmbedding):
            build_features(toy_corpus, spec, embeddings=None)
        partial = EmbeddingTable(dim=16, rows={"0": np.zeros(16)})
        with pytest.raises(MissingEmbedding):
            build_features(toy_corpus, spec, embeddings=partial)


    @pytest.mark.filterwarnings("ignore:requested 300 eigenvectors")
    @pytest.mark.parametrize("d_t, cutoff", [(8, 0.8), (300, MIN_CUTOFF), (5, 1.0)])
    def test_fit_rows_equal_extraction_with_the_fitted_spec(self, toy_corpus, d_t, cutoff):
        spec, matrix = fit_feature_model(
            toy_corpus, d_t=d_t, near_match_cutoff=cutoff, prompt_text=PROMPT_TEXT
        )
        again = extract_features(toy_corpus.all_responses(), spec)
        assert matrix.ids == again.ids
        assert np.array_equal(matrix.data, again.data)


class TestSpecSerialization:
    def test_round_trip_preserves_features_bit_exactly(self, toy_corpus):
        spec, _ = fit_feature_model(
            toy_corpus, d_t=6, near_match_cutoff=0.77, prompt_text=PROMPT_TEXT
        )
        again = _reloaded(spec)
        a = extract_features(toy_corpus.dev, spec)
        b = extract_features(toy_corpus.dev, again)
        assert np.array_equal(a.data, b.data)

    def test_validate_rejects_bad_cutoff(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        with pytest.raises(ValueError):
            dataclasses.replace(spec, near_match_cutoff=0.3)

    def test_validate_rejects_wrong_ngram_count(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        with pytest.raises(ValueError):
            dataclasses.replace(spec, key_ngrams=spec.key_ngrams[:-1])

    @pytest.mark.parametrize("text", [" ", "", "two words"])
    def test_validate_rejects_a_key_ngram_whose_tokens_are_not_its_order(self, toy_corpus, text):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        first = spec.key_ngrams[0]
        assert first.order == 1 and first.text is not None
        bad = (dataclasses.replace(first, text=text), *spec.key_ngrams[1:])
        with pytest.raises(ValueError, match="tokens, not its order 1"):
            dataclasses.replace(spec, key_ngrams=bad)

    def test_validate_rejects_key_ngram_slots_out_of_order(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        grams = spec.key_ngrams
        swapped = (grams[30], *grams[1:30], grams[0], *grams[31:])  # still 30 of each order
        with pytest.raises(ValueError, match="^expected 30 key n-grams of order 1, then 30 of 2"):
            dataclasses.replace(spec, key_ngrams=swapped)

    @pytest.mark.parametrize("slot, edit", [
        (0, str.upper),
        (0, lambda t: " " + t),
        (0, lambda t: t + " "),
        (30, lambda t: t.replace(" ", "  ")),  # the first n-gram of order 2
    ], ids=["upper", "lead", "trail", "two-spaces"])
    def test_validate_rejects_a_key_ngram_not_in_token_form(self, toy_corpus, slot, edit):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        grams = list(spec.key_ngrams)
        text = grams[slot].text
        assert text is not None and edit(text) != text
        grams[slot] = dataclasses.replace(grams[slot], text=edit(text))
        with pytest.raises(ValueError, match="is not lower-case tokens one space apart"):
            dataclasses.replace(spec, key_ngrams=grams)

    @pytest.mark.parametrize("term", ["WATER", "wat er", " water", ""])
    def test_validate_rejects_a_vocabulary_term_not_one_token(self, toy_corpus, term):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        vocab = {term if t == "water" else t: v for t, v in spec.tfidf_vocab.items()}
        assert term in vocab
        with pytest.raises(ValueError, match=f"^vocabulary term {term!r} is not one lower-cased"):
            dataclasses.replace(spec, tfidf_vocab=vocab)

    def test_fields_cannot_be_assigned(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.near_match_cutoff = 0.3

    def test_builder_specs_share_no_mutable_field(self, toy_corpus):
        spec, _ = CachedFeatureBuilder(toy_corpus, d_t_max=6).build(4, 0.8)
        for s in (spec, _reloaded(spec)):
            term = next(iter(s.tfidf_vocab))
            with pytest.raises(TypeError):
                s.tfidf_vocab[term] = (0, 1.0)
            with pytest.raises(TypeError):
                s.key_ngrams[0] = s.key_ngrams[1]


class TestCachedFeatureBuilder:
    def test_matches_direct_fit(self, toy_corpus):
        builder = CachedFeatureBuilder(toy_corpus, prompt_text=PROMPT_TEXT, d_t_max=10)
        for d_t, cutoff in [(4, 0.8), (10, 0.6), (7, 1.0)]:
            cached_spec, cached_matrix = builder.build(d_t, cutoff)
            direct_spec, _ = fit_feature_model(
                toy_corpus, d_t=d_t, near_match_cutoff=cutoff, prompt_text=PROMPT_TEXT
            )
            direct_matrix = build_features(toy_corpus, direct_spec)
            assert np.array_equal(cached_spec.tfidf_projection, direct_spec.tfidf_projection)
            assert cached_spec.ngram_strings() == direct_spec.ngram_strings()
            assert np.array_equal(cached_matrix.data, direct_matrix.data)

    def test_rows_equal_the_spec_rows_below_the_rank(self, toy_corpus):
        # tune fits at d_t_max=300 and builds narrower: every trial's rows
        # must be the rows its saved spec gives, not equal only to 1e-15
        with pytest.warns(UserWarning, match="shrinking"):
            builder = CachedFeatureBuilder(toy_corpus, d_t_max=300)
        rank = builder.build(300, 0.8)[0].d_t
        assert rank > 20
        for d_t in range(1, rank):
            spec, matrix = builder.build(d_t, 0.8)
            assert spec.d_t == d_t
            again = extract_features(toy_corpus.all_responses(), spec)
            assert again.ids == matrix.ids
            assert np.array_equal(again.data, matrix.data), d_t

    def test_requested_dim_above_rank_is_clamped(self, toy_corpus):
        with pytest.warns(UserWarning, match="shrinking"):
            builder = CachedFeatureBuilder(toy_corpus, d_t_max=300)
        spec, _ = builder.build(300, 0.8)
        assert spec.d_t <= len(toy_corpus.train)


# --- the scoring state a spec derives once and every answer reuses -----------

_OTHER_PROMPT = "Explain how photosynthesis turns light and carbon dioxide into sugar."
_SWAPS = {"osmosis": "photosynthesis", "membrane": "chlorophyll", "water": "light"}


def _other_corpus():
    """A toy corpus whose key terms and prompt differ from ``make_toy_corpus``'s."""
    def swap(r):
        text = " ".join(_SWAPS.get(w, w) for w in r.text.split())
        return ScoredResponse(r.id, r.prompt_id, text, r.score1, r.score2)

    pool = [swap(r) for r in make_toy_responses(prompt_id=2, n=80, seed=7)]
    return build_corpus(pool, prompt_id=2, dev_fraction=0.25, seed=7)


def _mlp(spec: FeatureModelSpec) -> MlpModel:
    """An untrained MLP that fits ``spec``'s features, to save the spec with."""
    return MlpModel.init(spec.feature_dim, 3, 4, seed=0)


def _reloaded(spec: FeatureModelSpec) -> FeatureModelSpec:
    mlp = _mlp(spec)
    again, loaded = FeatureModelSpec.from_artifact(Artifact.parse(spec.to_artifact(mlp).dump()))
    assert [a.tobytes() for a in loaded.params()] == [a.tobytes() for a in mlp.params()]
    return again


def _one_at_a_time(responses, spec) -> np.ndarray:
    return np.array([extract_features([r], spec).data[0] for r in responses])


def _assert_state_columns_recomputed(spec: FeatureModelSpec, r: ScoredResponse) -> None:
    """The minutiae and fuzzy columns of ``r``'s row, bit for bit as recomputed
    without any state from ``spec``'s prompt and key n-grams."""
    row = extract_features([r], spec).data[0]
    cutoff = spec.near_match_cutoff
    raw = np.array(minutiae_brute(r.text, spec.prompt_minutiae) + [
        0 if g is None else int(np.sum(window_ratios(r.text, g) >= cutoff))
        for g in spec.ngram_strings()
    ], dtype=float)
    cols = slice(spec.d_t, spec.d_t + len(raw))
    mean, sd = spec.standardizer
    want = apply_standardizer(raw, mean[cols], sd[cols])
    assert row[cols].tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def two_specs():
    spec_a, _ = fit_feature_model(
        make_toy_corpus(), d_t=8, near_match_cutoff=0.75, prompt_text=PROMPT_TEXT
    )
    spec_b, _ = fit_feature_model(
        _other_corpus(), d_t=6, near_match_cutoff=0.9, prompt_text=_OTHER_PROMPT
    )
    return spec_a, spec_b


_answers = st.lists(
    st.lists(
        st.sampled_from(_KEY_WORDS + _NEAR_MISSES + _NOISE + list(_SWAPS.values())), max_size=14
    ).map(" ".join),
    min_size=1, max_size=8,
)


class TestScoringState:
    @given(_answers, st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_reused_spec_scores_like_a_fresh_spec_and_the_batch(self, two_specs, texts, rnd):
        spec = two_specs[0]
        answers = [ScoredResponse(str(i), 1, t) for i, t in enumerate(texts)]
        order = list(answers)
        rnd.shuffle(order)
        reused = _one_at_a_time(order, spec)
        fresh = np.array([extract_features([r], _reloaded(spec)).data[0] for r in order])
        assert reused.tobytes() == fresh.tobytes()

        batch = extract_features(order, spec).data
        # Every column but the TF-IDF projection is bit-identical to the batch;
        # the projection is one BLAS product, whose rounding depends on how
        # many rows it multiplies.
        d_t = spec.d_t
        assert reused[:, d_t:].tobytes() == batch[:, d_t:].tobytes()
        assert np.allclose(reused[:, :d_t], batch[:, :d_t], rtol=0, atol=1e-12)

    def test_alternating_specs_do_not_share_state(self, two_specs):
        spec_a, spec_b = two_specs
        assert spec_a.ngram_strings() != spec_b.ngram_strings()
        assert spec_a.prompt_minutiae != spec_b.prompt_minutiae
        answers = make_toy_corpus().all_responses()[:12] + _other_corpus().all_responses()[:12]
        for r in answers:
            for spec in (spec_a, spec_b):
                _assert_state_columns_recomputed(spec, r)

    def test_replaced_ngrams_and_prompt_score_as_their_own(self, two_specs):
        spec_a, spec_b = two_specs
        _one_at_a_time(make_toy_corpus().dev, spec_a)  # spec_a has derived its state
        spec = dataclasses.replace(
            spec_a, key_ngrams=spec_b.key_ngrams, prompt_minutiae=spec_b.prompt_minutiae
        )
        answers = make_toy_corpus().all_responses()[:12] + _other_corpus().all_responses()[:12]
        for r in answers:
            _assert_state_columns_recomputed(spec, r)

    def test_builder_spec_and_loaded_spec_score_alike(self, toy_corpus):
        builder = CachedFeatureBuilder(toy_corpus, prompt_text=PROMPT_TEXT, d_t_max=10)
        for d_t, cutoff in [(10, 0.8), (6, MIN_CUTOFF), (3, 1.0)]:
            built, _ = builder.build(d_t, cutoff)
            loaded = _reloaded(built)
            for r in toy_corpus.test:
                a = extract_features([r], built).data
                b = extract_features([r], loaded).data
                assert a.tobytes() == b.tobytes()

    def test_threads_score_with_one_spec(self, two_specs):
        spec = _reloaded(two_specs[0])  # derives its tables while the threads score
        answers = make_toy_corpus().all_responses() + _other_corpus().all_responses()
        batches = [answers[k:k + 16] for k in range(0, len(answers), 16)]
        want = [extract_features(rs, two_specs[0]).data for rs in batches]
        offsets = range(0, len(batches), 2)

        def score(offset: int) -> list[np.ndarray]:
            order = batches[offset:] + batches[:offset]
            return [extract_features(rs, spec).data for rs in order * 2]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so their calls interleave
        try:
            with ThreadPoolExecutor(max_workers=len(offsets)) as pool:
                results = list(pool.map(score, offsets, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for offset, rows in zip(offsets, results):
            order = want[offset:] + want[:offset]
            assert [r.tobytes() for r in rows] == [w.tobytes() for w in order * 2]

    def test_scoring_leaves_the_artifact_unchanged(self, two_specs, toy_corpus):
        spec = two_specs[0]
        before = spec.to_artifact(_mlp(spec)).dump()
        _one_at_a_time(toy_corpus.all_responses(), spec)
        extract_features(toy_corpus.all_responses(), spec)
        assert spec.to_artifact(_mlp(spec)).dump() == before
