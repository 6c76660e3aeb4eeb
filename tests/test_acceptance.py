"""Acceptance gate: one test per criterion, at the stated tolerance.

Criteria needing the public dataset skip cleanly when it is absent; set
ASAS_DATA_DIR (or place data/train.tsv) to enable them. The end-to-end
feature-model run is additionally marked slow.
"""
from __future__ import annotations

import random
import time

import numpy as np
import pytest

from asas.corpus import (
    ColumnMap,
    build_corpus,
    corpus_stats,
    parse_dataset,
    parse_score_table,
    prompt_seed,
)
from asas.ensemble import fit_ensemble, score_ensemble
from asas.features import (
    CachedFeatureBuilder,
    minutiae_overlap,
    minutiae_substrings,
)
from asas.hyperopt import (
    Uniform,
    feature_search_space,
    run_study,
    sample_prior,
)
from asas.learners import (
    MlpModel,
    TrainConfig,
    bce_loss_grad,
    logreg_objective,
    mlp_forward,
    train_early_stop,
)
from asas.metrics import qwk, smd
from conftest import (
    data_dir,
    make_toy_corpus,
    noisy_member,
    perfect_member,
    requires_dataset,
)
from oracles import (
    central_difference,
    exact_window_counts,
    iter_joint_histograms,
    minutiae_brute,
    near_match_count,
    qwk_exact,
)


def test_qwk_matches_exact_oracle_exhaustively():
    """Exhaustive agreement with the rational-arithmetic oracle.

    Kappa depends on a label-vector pair only through its joint
    histogram, so enumerating every histogram with n <= 6 and k <= 4
    covers every vector pair in that range; vector order is covered by
    the permutation identity asserted alongside.
    """
    start = time.monotonic()
    rng = random.Random(0)
    checked = 0
    for k in (2, 3, 4):
        for n in range(1, 7):
            for a, b in iter_joint_histograms(k, n):
                expected = float(qwk_exact(a, b, k))
                assert abs(qwk(a, b, k) - expected) <= 1e-12
                checked += 1
                if checked % 5000 == 0:
                    order = list(range(len(a)))
                    rng.shuffle(order)
                    shuffled = qwk([a[i] for i in order], [b[i] for i in order], k)
                    assert abs(shuffled - expected) <= 1e-12
    elapsed = time.monotonic() - start
    assert checked == 79825
    assert elapsed < 60.0
    print(f"qwk oracle equivalence: {checked} pairs, {elapsed:.1f}s")


def test_metric_identities_over_ten_thousand_vectors():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(2500):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 40))
        a = rng.integers(0, k, size=n)
        b = rng.integers(0, k, size=n)
        assert qwk(a, a, k) == 1.0
        assert abs(qwk(a, b, k) - qwk(b, a, k)) <= 1e-12
        assert smd(a.tolist(), a.tolist()) == 0.0
        try:
            forward = smd(a, b)
        except Exception:
            continue
        assert abs(forward + smd(b, a)) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"metric identities: 10000 vectors, {elapsed:.1f}s")


def test_gradient_checks_against_central_differences():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        logits = rng.normal(0, 2, size=(3, 4))
        labels = rng.integers(0, 4, size=3).tolist()
        _, grad = bce_loss_grad(logits, labels)
        numeric = central_difference(
            lambda flat: bce_loss_grad(flat.reshape(3, 4), labels)[0], logits.flatten().copy()
        ).reshape(3, 4)
        worst = max(worst, float(np.max(np.abs(grad - numeric) / (np.abs(numeric) + 1e-10))))
    for _ in range(100):
        X = rng.normal(size=(10, 4))
        y = rng.integers(0, 3, size=10)
        W = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        l2 = float(rng.uniform(0.0, 0.5))
        _, grad_w, grad_b = logreg_objective(W, b, X, y, l2)
        num_w = central_difference(
            lambda flat: logreg_objective(flat.reshape(4, 3), b, X, y, l2)[0],
            W.flatten().copy(),
        ).reshape(4, 3)
        num_b = central_difference(
            lambda flat: logreg_objective(W, flat, X, y, l2)[0], b.copy()
        )
        worst = max(worst, float(np.max(np.abs(grad_w - num_w) / (np.abs(num_w) + 1e-10))))
        worst = max(worst, float(np.max(np.abs(grad_b - num_b) / (np.abs(num_b) + 1e-10))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-5
    assert elapsed < 10.0
    print(f"gradient checks: worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_tpe_benchmark_beats_prior_sampling():
    start = time.monotonic()
    space = {"x": Uniform(0.0, 1.0)}

    def objective(params):
        return -(params["x"] - 0.3) ** 2

    tpe_best, prior_best, hits = [], [], 0
    for seed in range(100):
        tpe = run_study(space, objective, 20, seed)
        tpe_best.append(tpe.best.objective)
        if abs(tpe.best.params["x"] - 0.3) <= 0.15:
            hits += 1
        prior = run_study(
            space, objective, 20, seed,
            suggest_fn=lambda s, h, sd: sample_prior(s, sd),
        )
        prior_best.append(prior.best.objective)
    elapsed = time.monotonic() - start
    assert hits >= 80
    assert np.median(tpe_best) >= np.median(prior_best)
    assert elapsed < 60.0
    print(
        f"tpe benchmark: {hits}/100 hits, medians {np.median(tpe_best):.2e} (tpe) "
        f"vs {np.median(prior_best):.2e} (prior), {elapsed:.1f}s"
    )


def test_feature_extractors_match_brute_force_oracles():
    start = time.monotonic()
    rng = random.Random(123)
    for _ in range(2000):
        response = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        prompt = "".join(rng.choice("abc") for _ in range(rng.randint(0, 12)))
        got = minutiae_overlap(response, minutiae_substrings(prompt))
        assert got.tolist() == minutiae_brute(response, prompt)

    vocab = ["cell", "cells", "water", "osmosis", "moves", "salt", "the"]
    for _ in range(1000):
        text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 10)))
        grams: list[str | None] = [
            " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4))
        ]
        grams.append(None)
        got = near_match_count(text, grams, cutoff=1.0)
        assert got.tolist() == exact_window_counts(text, grams)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"feature oracles: 2000 minutiae pairs + 1000 corpora, {elapsed:.1f}s")


def test_ensemble_stacking_contract():
    corpus = make_toy_corpus()
    ids = [r.id for r in corpus.all_responses()]
    gold = np.array([r.score1 for r in corpus.all_responses()])
    dev_ids = [r.id for r in corpus.dev]
    dev_gold = corpus.labels(corpus.dev)
    k = corpus.num_classes

    oracle = perfect_member("oracle", ids, gold, k)
    spec = fit_ensemble([oracle], corpus)
    pred, _ = score_ensemble(spec, [oracle], dev_ids)
    assert qwk(dev_gold, pred, k) == 1.0

    members = [
        noisy_member(f"m{i}", ids, gold, k, seed=100 + i, strength=0.8 + 0.2 * i)
        for i in range(3)
    ]
    singles = []
    for member in members:
        single_pred, _ = score_ensemble(fit_ensemble([member], corpus), [member], dev_ids)
        singles.append(qwk(dev_gold, single_pred, k))
    stacked_spec = fit_ensemble(members, corpus)
    stacked_pred, _ = score_ensemble(stacked_spec, members, dev_ids)
    stacked = qwk(dev_gold, stacked_pred, k)
    assert stacked >= max(singles) - 0.02

    test_ids = [r.id for r in corpus.test]
    first, _ = score_ensemble(stacked_spec, members, test_ids)
    again_spec = fit_ensemble(members, corpus)
    again, _ = score_ensemble(again_spec, members, test_ids)
    assert np.array_equal(first, again)
    golden = [0, 1, 2, 0, 1, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 0, 0, 2, 0, 1]
    assert first.tolist() == golden
    print(
        f"ensemble contract: perfect member 1.0, stacked {stacked:.3f} "
        f"vs best single {max(singles):.3f}, golden outputs stable"
    )


def _load_real_pool():
    root = data_dir()
    return parse_dataset((root / "train.tsv").read_bytes())


@requires_dataset
def test_human_irr_reproduction():
    start = time.monotonic()
    pool = _load_real_pool()
    expected = {1: 0.936, 7: 0.973}
    got = {}
    for pid, target in expected.items():
        corpus = build_corpus(
            pool, prompt_id=pid, dev_fraction=0.2, seed=prompt_seed(7, pid)
        )
        stats = corpus_stats(corpus)
        got[pid] = stats.dev_qwk
        assert abs(stats.dev_qwk - target) <= 0.03
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"human irr: prompt 1 {got[1]:.3f}, prompt 7 {got[7]:.3f}, {elapsed:.1f}s")


def _load_real_test(root):
    candidates = sorted(root.glob("public_leaderboard*.tsv"))
    solutions = sorted(root.glob("*solution*.csv")) + sorted(root.glob("*solution*.tsv"))
    if not candidates or not solutions:
        pytest.skip("test split files not provided (public_leaderboard*.tsv + *solution*)")
    scores = parse_score_table(solutions[0].read_bytes(), "id", "essay_score")
    return parse_dataset(
        candidates[0].read_bytes(), ColumnMap(score1="", score2=""), solution=scores
    )


@requires_dataset
@pytest.mark.slow
def test_feature_model_end_to_end():
    from asas.corpus import load_embeddings

    root = data_dir()
    pool = _load_real_pool()
    test = _load_real_test(root)
    space = feature_search_space()
    per_prompt = {}
    for pid in range(1, 11):
        emb_path = root / f"embeddings_{pid}.tsv"
        embeddings = load_embeddings(emb_path.read_bytes()) if emb_path.is_file() else None
        corpus = build_corpus(
            pool, prompt_id=pid, dev_fraction=0.2, seed=prompt_seed(7, pid), test=test
        )
        builder = CachedFeatureBuilder(corpus, embeddings)
        # the builder's rows are in train|dev|test order
        n_train, n_dev = len(corpus.train), len(corpus.dev)
        train, dev = slice(0, n_train), slice(n_train, n_train + n_dev)

        def objective(params):
            _, matrix = builder.build(int(params["tfidf_dim"]), float(params["cutoff"]))
            result = train_early_stop(
                MlpModel.init(matrix.dim, 256, corpus.num_classes, seed=7),
                matrix.data[train], corpus.labels(corpus.train),
                matrix.data[dev], corpus.labels(corpus.dev),
                TrainConfig(
                    learning_rate=float(params["learning_rate"]),
                    batch_size=int(params["batch_size"]),
                    epochs=20,
                    seed=7,
                ),
            )
            return result.best_dev_qwk

        study = run_study(space, objective, n_trials=20, seed=7)
        best = study.best.params
        _, matrix = builder.build(int(best["tfidf_dim"]), float(best["cutoff"]))
        result = train_early_stop(
            MlpModel.init(matrix.dim, 256, corpus.num_classes, seed=7),
            matrix.data[train], corpus.labels(corpus.train),
            matrix.data[dev], corpus.labels(corpus.dev),
            TrainConfig(
                learning_rate=float(best["learning_rate"]),
                batch_size=int(best["batch_size"]),
                epochs=20,
                seed=7,
            ),
        )
        pred = np.argmax(mlp_forward(result.model, matrix.data[n_train + n_dev:]), axis=1)
        per_prompt[pid] = qwk(corpus.labels(corpus.test), pred, corpus.num_classes)
        print(f"prompt {pid}: test QWK {per_prompt[pid]:.3f}")
    mean_qwk = float(np.mean(list(per_prompt.values())))
    print(f"feature model end-to-end: mean test QWK {mean_qwk:.3f}")
    assert mean_qwk >= 0.65
