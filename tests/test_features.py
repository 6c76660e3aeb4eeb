"""Feature extractors against brute-force oracles and fitted-spec contracts."""
from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asas.corpus import EmbeddingTable, ScoredResponse, build_corpus
from asas.errors import InsufficientClasses, MissingEmbedding, RankDeficient
from asas.features import (
    CachedFeatureBuilder,
    FeatureModelSpec,
    MIN_CUTOFF,
    MINUTIAE_LENGTHS,
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
    near_match_count,
    normalize_text,
    select_key_ngrams,
    similarity_ratio,
    text_stats,
    tfidf_matrix,
    top_right_singular_vectors,
    window_ratios,
)
from asas.serialize import Artifact
from conftest import make_toy_corpus, make_toy_responses
from oracles import exact_window_counts, minutiae_brute, ratio_oracle


class TestNormalizeText:
    def test_strips_space_digit_punctuation(self):
        assert normalize_text("Don't stop! 123") == "dontstop"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_lowercases_and_keeps_order(self):
        assert normalize_text("A b C") == "abc"


class TestMinutiaeOverlap:
    def test_self_overlap_counts_distinct_substrings(self):
        got = minutiae_overlap("abcdefgh", "abcdefgh")
        assert got.tolist() == [4, 3, 2, 1] + [0] * 11

    def test_short_response_is_zero(self):
        assert minutiae_overlap("abcd", "abcdefgh").tolist() == [0] * 15

    def test_disjoint_alphabets_is_zero(self):
        assert minutiae_overlap("aaaaaaaaaa", "bbbbbbbbbb").tolist() == [0] * 15

    def test_fifteen_dimensions_for_lengths_5_to_19(self):
        assert list(MINUTIAE_LENGTHS) == list(range(5, 20))
        assert minutiae_overlap("x", "y").shape == (15,)

    def test_matches_brute_force_on_random_strings(self):
        rng = random.Random(5)
        for _ in range(300):
            r = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            p = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
            assert minutiae_overlap(r, p).tolist() == minutiae_brute(r, p)


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
        assert fuzzy_ratios(texts, grams, cutoff).counts(cutoff).tolist() == want
        assert fuzzy_ratios(texts, grams, MIN_CUTOFF).counts(cutoff).tolist() == want
        assert [near_match_count(t, grams, cutoff).tolist() for t in texts] == want

    def test_kept_ratios_equal_reference_ratios(self):
        texts = ["the osmsis of water", "", "membrame cell"]
        grams = ["osmosis", "membrane cell", None, "the osmosis of water through"]
        fr = fuzzy_ratios(texts, grams, MIN_CUTOFF)
        assert fr.ratios.size > 0
        for row, col, ratio in zip(fr.rows, fr.cols, fr.ratios):
            assert ratio in window_ratios(texts[row], grams[col])

    def test_cutoff_below_floor_is_rejected(self):
        fr = fuzzy_ratios(["water"], ["water"], 0.8)
        with pytest.raises(ValueError):
            fr.counts(0.7)


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
    direct = fuzzy_ratios(texts, spec.ngram_strings(), cutoff).counts(cutoff)
    near = slice(spec.d_t + len(MINUTIAE_LENGTHS), spec.d_t + len(MINUTIAE_LENGTHS) + 90)
    mean, sd = spec.standardizer
    assert np.array_equal(matrix.data[:, near], apply_standardizer(direct, mean[near], sd[near]))


class TestTfidfProjection:
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
    return build_corpus(pool, prompt_id=1, dev_fraction=0.1, seed=seed, prompt_text="the water")


class TestBuildFeatures:
    def test_dimension_with_embeddings_matches_stated_range(self):
        corpus = _corpus_with_rank(120)
        rng = np.random.default_rng(0)
        table = EmbeddingTable(
            dim=364,
            rows={r.id: rng.normal(size=364) for r in corpus.all_responses()},
        )
        spec, _ = fit_feature_model(corpus, d_t=100, near_match_cutoff=0.8, embeddings=table)
        matrix = build_features(corpus, spec, table)
        assert matrix.dim == 579  # 364 + 100 + 15 + 90 + 10

    def test_dimension_without_embeddings(self):
        corpus = _corpus_with_rank(340)
        spec, _ = fit_feature_model(corpus, d_t=300, near_match_cutoff=0.8)
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

    def test_rows_for_selects_by_id(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        matrix = build_features(toy_corpus, spec)
        dev_ids = [r.id for r in toy_corpus.dev]
        rows = matrix.rows_for(dev_ids)
        assert rows.shape == (len(dev_ids), matrix.dim)
        assert np.array_equal(rows[0], matrix.data[matrix.ids.index(dev_ids[0])])


    @pytest.mark.filterwarnings("ignore:requested 300 eigenvectors")
    @pytest.mark.parametrize("d_t, cutoff", [(8, 0.8), (300, MIN_CUTOFF), (5, 1.0)])
    def test_fit_rows_equal_extraction_with_the_fitted_spec(self, toy_corpus, d_t, cutoff):
        spec, matrix = fit_feature_model(toy_corpus, d_t=d_t, near_match_cutoff=cutoff)
        again = extract_features(toy_corpus.all_responses(), spec)
        assert matrix.ids == again.ids
        assert np.array_equal(matrix.data, again.data)


class TestSpecSerialization:
    def test_round_trip_preserves_features_bit_exactly(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=6, near_match_cutoff=0.77)
        art = Artifact.parse(spec.to_artifact().dump())
        again = FeatureModelSpec.from_artifact(art)
        a = extract_features(toy_corpus.dev, spec)
        b = extract_features(toy_corpus.dev, again)
        assert np.array_equal(a.data, b.data)

    def test_validate_rejects_bad_cutoff(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        spec.near_match_cutoff = 0.3
        with pytest.raises(ValueError):
            spec.validate()

    def test_validate_rejects_wrong_ngram_count(self, toy_corpus):
        spec, _ = fit_feature_model(toy_corpus, d_t=4, near_match_cutoff=0.8)
        spec.key_ngrams = spec.key_ngrams[:-1]
        with pytest.raises(ValueError):
            spec.validate()


class TestCachedFeatureBuilder:
    def test_matches_direct_fit(self, toy_corpus):
        builder = CachedFeatureBuilder(toy_corpus, d_t_max=10)
        for d_t, cutoff in [(4, 0.8), (10, 0.6), (7, 1.0)]:
            cached_spec, cached_matrix = builder.build(d_t, cutoff)
            direct_spec, _ = fit_feature_model(toy_corpus, d_t=d_t, near_match_cutoff=cutoff)
            direct_matrix = build_features(toy_corpus, direct_spec)
            assert np.allclose(
                cached_spec.tfidf_projection, direct_spec.tfidf_projection, atol=1e-10
            )
            assert cached_spec.ngram_strings() == direct_spec.ngram_strings()
            assert np.allclose(cached_matrix.data, direct_matrix.data, atol=1e-10)

    def test_requested_dim_above_rank_is_clamped(self, toy_corpus):
        with pytest.warns(UserWarning, match="shrinking"):
            builder = CachedFeatureBuilder(toy_corpus, d_t_max=300)
        spec, _ = builder.build(300, 0.8)
        assert spec.d_t <= len(toy_corpus.train)
