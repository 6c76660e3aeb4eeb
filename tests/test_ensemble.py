"""Stacking: design assembly, head fitting, subset selection, evaluation."""
from __future__ import annotations

import struct

import numpy as np
import pytest

from asas.corpus import LogProbMatrix, load_logprobs, dump_logprobs
from asas.ensemble import (
    EnsembleSpec,
    assemble,
    evaluate_run,
    fit_ensemble,
    mean_report,
    score_ensemble,
    select_best_subset,
)
from asas.errors import (
    AsasError,
    CoverageGap,
    HeaderMismatch,
    KMismatch,
    MalformedRow,
    SingleClass,
    TooFewCandidates,
)
from asas.mathutil import log_softmax
from asas.metrics import EvalReport, qwk, smd, accuracy
from asas.serialize import Artifact
from conftest import make_toy_corpus, noisy_member, perfect_member
from oracles import qwk_exact


@pytest.fixture(scope="module")
def corpus():
    return make_toy_corpus()


def _ids(corpus):
    return [r.id for r in corpus.all_responses()]


def _gold(corpus):
    return np.array([r.score1 for r in corpus.all_responses()])


class TestAssemble:
    def test_shape_two_members(self, corpus):
        ids = _ids(corpus)[:4]
        members = [
            noisy_member(f"m{i}", _ids(corpus), _gold(corpus), 3, seed=i) for i in range(2)
        ]
        design = assemble(members, ids)
        assert design.shape == (4, 6)
        assert np.array_equal(design[:, :3], [members[0].rows[r] for r in ids])
        assert np.array_equal(design[:, 3:], [members[1].rows[r] for r in ids])

    def test_coverage_gap_names_id_and_member(self, corpus):
        member = noisy_member("holey", _ids(corpus), _gold(corpus), 3, seed=0)
        del member.rows[_ids(corpus)[2]]
        with pytest.raises(CoverageGap, match="holey"):
            assemble([member], _ids(corpus)[:5])
        try:
            assemble([member], _ids(corpus)[:5])
        except CoverageGap as exc:
            assert _ids(corpus)[2] in str(exc)

    @pytest.mark.parametrize("late, early", [("m0", "m1"), ("m1", "m0")])
    def test_the_first_gap_in_id_order_is_named(self, corpus, late, early):
        ids = _ids(corpus)[:6]
        members = {
            name: noisy_member(name, _ids(corpus), _gold(corpus), 3, seed=i)
            for i, name in enumerate(["m0", "m1"])
        }
        del members[late].rows[ids[4]]
        del members[early].rows[ids[1]]
        with pytest.raises(CoverageGap, match=f"^member '{early}' has no row for id '{ids[1]}'$"):
            assemble(list(members.values()), ids)

    def test_a_gap_of_both_members_at_one_id_names_the_first_member(self, corpus):
        ids = _ids(corpus)[:3]
        members = [noisy_member(n, _ids(corpus), _gold(corpus), 3, seed=0) for n in ("a", "b")]
        for m in members:
            del m.rows[ids[2]]
        with pytest.raises(CoverageGap, match=f"^member 'a' has no row for id '{ids[2]}'$"):
            assemble(members, ids)

    def test_no_ids_give_an_empty_design(self, corpus):
        members = [noisy_member(n, _ids(corpus), _gold(corpus), 3, seed=0) for n in ("a", "b")]
        assert assemble(members, []).shape == (0, 6)

    def test_k_mismatch(self, corpus):
        a = noisy_member("a", _ids(corpus), _gold(corpus), 3, seed=0)
        b = LogProbMatrix(
            model_name="b", prompt_id=1, k=2,
            rows={rid: np.log([0.5, 0.5]) for rid in _ids(corpus)},
        )
        with pytest.raises(KMismatch):
            assemble([a, b], _ids(corpus)[:2])

    def test_prompt_mismatch(self, corpus):
        a = noisy_member("a", _ids(corpus), _gold(corpus), 3, seed=0)
        b = noisy_member("b", _ids(corpus), _gold(corpus), 3, seed=1, prompt_id=2)
        with pytest.raises(KMismatch):
            assemble([a, b], _ids(corpus)[:2])

    def test_single_member_design_is_that_matrix(self, corpus):
        member = noisy_member("m", _ids(corpus), _gold(corpus), 3, seed=5)
        ids = _ids(corpus)[:7]
        design = assemble([member], ids)
        assert np.array_equal(design, np.array([member.rows[r] for r in ids]))


class TestFitEnsemble:
    def test_perfect_member_reaches_dev_qwk_one(self, corpus):
        member = perfect_member("oracle", _ids(corpus), _gold(corpus), 3)
        spec = fit_ensemble([member], corpus)
        dev_ids = [r.id for r in corpus.dev]
        pred, _ = score_ensemble(spec, [member], dev_ids)
        assert qwk(corpus.labels(corpus.dev), pred, 3) == 1.0

    def test_duplicated_member_matches_single(self, corpus):
        member = noisy_member("m0", _ids(corpus), _gold(corpus), 3, seed=100, strength=0.8)
        twin = LogProbMatrix(model_name="m0twin", prompt_id=1, k=3, rows=dict(member.rows))
        dev_ids = [r.id for r in corpus.dev]
        dev_gold = corpus.labels(corpus.dev)
        single_pred, _ = score_ensemble(fit_ensemble([member], corpus), [member], dev_ids)
        double_pred, _ = score_ensemble(
            fit_ensemble([member, twin], corpus), [member, twin], dev_ids
        )
        single_qwk = qwk(dev_gold, single_pred, 3)
        double_qwk = qwk(dev_gold, double_pred, 3)
        assert abs(single_qwk - double_qwk) <= 1e-9

    def test_a_member_named_twice_is_refused(self, corpus):
        # scoring looks members up by name, so it would stack the last one twice
        members = [noisy_member("m", _ids(corpus), _gold(corpus), 3, seed=i) for i in range(2)]
        with pytest.raises(HeaderMismatch, match=r"^duplicate member names: \['m', 'm'\]$"):
            fit_ensemble(members, corpus)

    def test_uniform_members_predict_majority_class(self, corpus):
        uniform = LogProbMatrix(
            model_name="uniform", prompt_id=1, k=3,
            rows={rid: np.full(3, -np.log(3)) for rid in _ids(corpus)},
        )
        spec = fit_ensemble([uniform], corpus)
        dev_ids = [r.id for r in corpus.dev]
        pred, _ = score_ensemble(spec, [uniform], dev_ids)
        majority = np.bincount(corpus.labels(corpus.dev)).argmax()
        assert set(pred.tolist()) == {int(majority)}

    def test_single_class_dev_rejected(self, corpus):
        import dataclasses

        degenerate = dataclasses.replace(
            corpus,
            dev=[dataclasses.replace(r, score1=1) for r in corpus.dev],
        )
        member = noisy_member("m", _ids(corpus), _gold(corpus), 3, seed=0)
        with pytest.raises(SingleClass):
            fit_ensemble([member], degenerate)

    def test_dev_missing_one_class_still_scores_full_range(self, corpus):
        import dataclasses

        # dev shows only classes 0 and 1; the head must still emit k=3
        narrowed = dataclasses.replace(
            corpus,
            dev=[dataclasses.replace(r, score1=min(r.score1, 1)) for r in corpus.dev],
        )
        member = noisy_member("m", _ids(corpus), _gold(corpus), 3, seed=2)
        spec = fit_ensemble([member], narrowed)
        pred, logprobs = score_ensemble(spec, [member], [r.id for r in corpus.test])
        assert logprobs.shape[1] == 3
        assert set(pred.tolist()) <= {0, 1, 2}

    @pytest.mark.parametrize("missing", [0, 2])
    def test_dev_missing_a_class_ends_in_a_finite_head(self, corpus, missing):
        import dataclasses

        # the absent class's bias has no minimiser, so the fit must stop on
        # its gradient with every number finite
        narrowed = dataclasses.replace(
            corpus,
            dev=[
                dataclasses.replace(r, score1=1 if r.score1 == missing else r.score1)
                for r in corpus.dev
            ],
        )
        members = [
            perfect_member("p", _ids(corpus), _gold(corpus), 3),
            noisy_member("m", _ids(corpus), _gold(corpus), 3, seed=2),
        ]
        spec = fit_ensemble(members, narrowed)
        assert np.isfinite(spec.head.weights).all() and np.isfinite(spec.head.bias).all()
        assert spec.head.converged
        _, logprobs = score_ensemble(spec, members, [r.id for r in corpus.test])
        assert np.isfinite(logprobs).all()

    def test_stacked_dev_qwk_within_tolerance_of_best_single(self, corpus):
        members = [
            noisy_member(f"m{i}", _ids(corpus), _gold(corpus), 3, seed=100 + i,
                         strength=0.8 + 0.2 * i)
            for i in range(3)
        ]
        dev_ids = [r.id for r in corpus.dev]
        dev_gold = corpus.labels(corpus.dev)
        singles = []
        for m in members:
            pred, _ = score_ensemble(fit_ensemble([m], corpus), [m], dev_ids)
            singles.append(qwk(dev_gold, pred, 3))
        stacked_pred, _ = score_ensemble(fit_ensemble(members, corpus), members, dev_ids)
        stacked = qwk(dev_gold, stacked_pred, 3)
        assert stacked >= max(singles) - 0.02

    def test_complementary_specialists_stack_above_both(self, corpus):
        ids, gold = _ids(corpus), _gold(corpus)

        def specialist(name, classes, seed):
            rng = np.random.default_rng(seed)
            rows = {}
            for rid, g in zip(ids, gold):
                logits = rng.normal(0.0, 0.3, size=3)
                if g in classes:
                    logits[g] += 4.0
                rows[rid] = log_softmax(logits)
            return LogProbMatrix(model_name=name, prompt_id=1, k=3, rows=rows)

        low = specialist("low_expert", {0, 1}, seed=11)
        high = specialist("high_expert", {2}, seed=12)
        dev_ids = [r.id for r in corpus.dev]
        dev_gold = corpus.labels(corpus.dev)
        solo = []
        for m in (low, high):
            pred = np.argmax(np.array([m.rows[r] for r in dev_ids]), axis=1)
            solo.append(qwk(dev_gold, pred, 3))
        stacked_pred, _ = score_ensemble(
            fit_ensemble([low, high], corpus), [low, high], dev_ids
        )
        stacked = qwk(dev_gold, stacked_pred, 3)
        assert stacked > max(solo)

    def test_fit_reads_only_dev_rows(self, corpus):
        accessed: set[str] = set()

        class LoggingRows(dict):
            def get(self, key, default=None):
                accessed.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                accessed.add(key)
                return super().__getitem__(key)

        member = noisy_member("m", _ids(corpus), _gold(corpus), 3, seed=0)
        logged = LogProbMatrix(
            model_name="m", prompt_id=1, k=3, rows=LoggingRows(member.rows)
        )
        fit_ensemble([logged], corpus)
        assert accessed == {r.id for r in corpus.dev}


class TestScoreEnsemble:
    def _fixture(self, corpus):
        members = [
            noisy_member(f"m{i}", _ids(corpus), _gold(corpus), 3, seed=100 + i,
                         strength=0.8 + 0.2 * i)
            for i in range(3)
        ]
        return members, fit_ensemble(members, corpus)

    def test_golden_test_predictions(self, corpus):
        members, spec = self._fixture(corpus)
        test_ids = [r.id for r in corpus.test]
        pred, _ = score_ensemble(spec, members, test_ids)
        golden = [0, 1, 2, 0, 1, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 0, 0, 2, 0, 1]
        assert pred.tolist() == golden

    def test_stable_across_refits(self, corpus):
        members, spec = self._fixture(corpus)
        members2, spec2 = self._fixture(corpus)
        test_ids = [r.id for r in corpus.test]
        a, lp_a = score_ensemble(spec, members, test_ids)
        b, lp_b = score_ensemble(spec2, members2, test_ids)
        assert np.array_equal(a, b)
        assert np.array_equal(lp_a, lp_b)

    def test_single_id(self, corpus):
        members, spec = self._fixture(corpus)
        pred, logprobs = score_ensemble(spec, members, [corpus.test[0].id])
        assert pred.shape == (1,)
        assert 0 <= pred[0] < 3
        assert logprobs.shape == (1, 3)

    def test_permutation_of_ids_permutes_outputs(self, corpus):
        members, spec = self._fixture(corpus)
        ids = [r.id for r in corpus.test]
        pred, _ = score_ensemble(spec, members, ids)
        rev_pred, _ = score_ensemble(spec, members, ids[::-1])
        assert np.array_equal(rev_pred, pred[::-1])

    def test_missing_member_is_coverage_gap(self, corpus):
        members, spec = self._fixture(corpus)
        with pytest.raises(CoverageGap, match="m2"):
            score_ensemble(spec, members[:2], [corpus.test[0].id])

    def test_score_reads_only_requested_ids(self, corpus):
        accessed: set[str] = set()

        class LoggingRows(dict):
            def get(self, key, default=None):
                accessed.add(key)
                return super().get(key, default)

        member = noisy_member("m", _ids(corpus), _gold(corpus), 3, seed=0)
        spec = fit_ensemble([member], corpus)
        logged = LogProbMatrix(
            model_name="m", prompt_id=1, k=3, rows=LoggingRows(member.rows)
        )
        wanted = [r.id for r in corpus.test[:5]]
        accessed.clear()
        score_ensemble(spec, [logged], wanted)
        assert accessed == set(wanted)

    def test_renormalization_makes_raw_shifts_irrelevant(self, corpus):
        members, spec = self._fixture(corpus)
        test_ids = [r.id for r in corpus.test]
        baseline, _ = score_ensemble(spec, members, test_ids)
        shifted_member = load_logprobs(
            dump_logprobs(
                LogProbMatrix(
                    model_name="m0", prompt_id=1, k=3,
                    rows={rid: vec + 123.0 for rid, vec in members[0].rows.items()},
                )
            )
        )
        shifted, _ = score_ensemble(spec, [shifted_member] + members[1:], test_ids)
        assert np.array_equal(shifted, baseline)


class TestEnsembleSpecSerialization:
    def test_round_trip_preserves_predictions_bit_exactly(self, corpus):
        members = [
            noisy_member(f"m{i}", _ids(corpus), _gold(corpus), 3, seed=i) for i in range(2)
        ]
        spec = fit_ensemble(members, corpus)
        again = EnsembleSpec.from_artifact(Artifact.parse(spec.to_artifact().dump()))
        assert again.members == spec.members
        assert again.k == spec.k and again.prompt_id == spec.prompt_id
        ids = _ids(corpus)
        pred_a, lp_a = score_ensemble(spec, members, ids)
        pred_b, lp_b = score_ensemble(again, members, ids)
        assert np.array_equal(pred_a, pred_b)
        assert np.array_equal(lp_a, lp_b)

    @pytest.mark.parametrize("fault, error", [
        ("nan weight", MalformedRow),
        ("meta k 7", HeaderMismatch),
        ("head one column short", HeaderMismatch),
        ("member named twice", HeaderMismatch),
    ])
    def test_malformed_head_is_rejected_when_loaded(self, corpus, fault, error):
        members = [
            noisy_member(f"m{i}", _ids(corpus), _gold(corpus), 3, seed=i) for i in range(2)
        ]
        art = fit_ensemble(members, corpus).to_artifact()
        weights = art.arrays["head_weights"].copy()
        if fault == "nan weight":
            weights[0, 0] = np.nan
        elif fault == "meta k 7":
            art.meta["k"] = "7"
        elif fault == "member named twice":
            art.tables["members"] = [["m0"], ["m0"]]
        else:
            weights = weights[:, :-1]
        art.arrays["head_weights"] = weights
        with pytest.raises(error):
            EnsembleSpec.from_artifact(Artifact.parse(art.dump()))

    def _text(self, corpus) -> str:
        members = [
            noisy_member(f"m{i}", _ids(corpus), _gold(corpus), 3, seed=i) for i in range(2)
        ]
        return fit_ensemble(members, corpus).to_artifact().dump()

    @pytest.mark.parametrize("block", ["head_weights", "head_bias"])
    @pytest.mark.parametrize("bits", [
        0x7FF8000000000000, 0xFFF00000DEADBEEF, 0x7FF0000000000000, 0xFFF0000000000000,
    ], ids=["nan", "negative-signalling-nan", "inf", "-inf"])
    def test_a_non_finite_value_written_as_hex_is_refused(self, corpus, block, bits):
        lines = self._text(corpus).splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines) if ln.startswith(f"[matrix {block} ")) + 1
        lines[at] = struct.pack("<Q", bits).hex() + lines[at][16:]
        with pytest.raises(MalformedRow, match=f"block {block} holds a value that is not a finite"):
            EnsembleSpec.from_artifact(Artifact.parse("".join(lines), "ensemble-spec"))

    def test_an_older_format_file_says_to_refit(self, corpus):
        # The version line is read before any block, so only it needs to be v1.
        text = self._text(corpus).replace("#asas-artifact v2 kind=", "#asas-artifact v1 kind=")
        names = "file was written in the older asas-artifact v1 format and must be refit"
        with pytest.raises(HeaderMismatch, match=f"^{names}$"):
            EnsembleSpec.from_artifact(Artifact.parse(text, "ensemble-spec"))


def _member_predicting(name, corpus, wrong):
    """A member sure of every gold label except on the first ``wrong`` dev rows,
    where it is sure of the next class; its rows cover the dev split only."""
    gold = corpus.labels(corpus.dev)
    pred = gold.copy()
    pred[:wrong] = (pred[:wrong] + 1) % corpus.num_classes
    return perfect_member(name, [r.id for r in corpus.dev], pred, corpus.num_classes)


class TestSelectBestSubset:
    def _dev_qwk(self, member, corpus):
        pred = np.argmax(assemble([member], [r.id for r in corpus.dev]), axis=1)
        return qwk(corpus.labels(corpus.dev), pred, corpus.num_classes)

    def test_keeps_the_best_m_in_members_order(self, corpus):
        members = [_member_predicting(f"w{wrong}", corpus, wrong) for wrong in (4, 8, 0, 2)]
        scores = [self._dev_qwk(mem, corpus) for mem in members]
        assert scores[2] > scores[3] > scores[0] > scores[1]
        chosen = select_best_subset(members, corpus, 2)
        assert [mem.model_name for mem in chosen] == ["w0", "w2"]
        chosen = select_best_subset(members, corpus, 3)
        assert [mem.model_name for mem in chosen] == ["w4", "w0", "w2"]
        assert select_best_subset(members, corpus, 4) == members

    def test_ties_break_by_name(self, corpus):
        members = [
            _member_predicting(name, corpus, wrong)
            for name, wrong in (("zed", 2), ("weak", 6), ("abc", 2))
        ]
        assert [mem.model_name for mem in select_best_subset(members, corpus, 1)] == ["abc"]
        assert [mem.model_name for mem in select_best_subset(members, corpus, 2)] == [
            "zed", "abc"
        ]

    def test_none_keeps_every_member_unranked(self, corpus):
        members = [_member_predicting(f"w{wrong}", corpus, wrong) for wrong in (6, 0)]
        assert select_best_subset(members, corpus, None) == members

    @pytest.mark.parametrize("m", [0, 3])
    def test_m_outside_one_to_the_member_count(self, corpus, m):
        members = [_member_predicting(f"w{wrong}", corpus, wrong) for wrong in (6, 0)]
        with pytest.raises(TooFewCandidates, match=f"asked for {m} of 2 candidates"):
            select_best_subset(members, corpus, m)

    @pytest.mark.parametrize("m", [None, 1])
    def test_duplicate_names(self, corpus, m):
        members = [_member_predicting("m0", corpus, wrong) for wrong in (6, 0)]
        with pytest.raises(AsasError, match=r"duplicate member names: \['m0', 'm0'\]"):
            select_best_subset(members, corpus, m)

    def test_a_member_missing_a_dev_row(self, corpus):
        members = [_member_predicting(f"w{wrong}", corpus, wrong) for wrong in (6, 0)]
        del members[1].rows[corpus.dev[3].id]
        with pytest.raises(CoverageGap, match="'w0'"):
            select_best_subset(members, corpus, 1)


class TestEvaluateRun:
    def test_perfect_predictions(self):
        gold = [0, 1, 2, 1, 0]
        report = evaluate_run(gold, gold, k=3, prompt_id=4)
        assert report.qwk == 1.0
        assert report.smd == 0.0
        assert report.accuracy == 1.0
        assert report.n == 5
        assert report.flags == frozenset()

    def test_matches_metric_oracles(self):
        rng = np.random.default_rng(3)
        gold = rng.integers(0, 3, size=40)
        pred = rng.integers(0, 3, size=40)
        report = evaluate_run(pred, gold, k=3, prompt_id=1)
        assert report.qwk == pytest.approx(
            float(qwk_exact(gold.tolist(), pred.tolist(), 3)), abs=1e-12
        )
        assert report.smd == pytest.approx(smd(gold, pred))
        assert report.accuracy == pytest.approx(accuracy(gold, pred))

    def test_mean_row_is_arithmetic_mean(self):
        rng = np.random.default_rng(4)
        reports = [
            EvalReport(
                prompt_id=p,
                qwk=float(rng.uniform(0, 1)),
                smd=float(rng.uniform(-0.2, 0.2)),
                accuracy=float(rng.uniform(0, 1)),
                n=int(rng.integers(10, 100)),
            )
            for p in range(1, 11)
        ]
        mean = mean_report(reports)
        assert mean.prompt_id == -1
        assert mean.qwk == pytest.approx(np.mean([r.qwk for r in reports]), abs=1e-12)
        assert mean.smd == pytest.approx(np.mean([r.smd for r in reports]), abs=1e-12)
        assert mean.accuracy == pytest.approx(
            np.mean([r.accuracy for r in reports]), abs=1e-12
        )
        assert mean.n == sum(r.n for r in reports)
