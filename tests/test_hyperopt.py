"""Parzen-estimator search: startup rules, densities, studies, benchmark."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asas.errors import AllTrialsFailed, HeaderMismatch, MalformedRow, NonFiniteLoss
from asas.hyperopt import (
    BANDWIDTH_FLOOR_FRACTION,
    StudyResult,
    TrialRecord,
    Uniform,
    _Parzen,
    feature_search_space,
    read_study_log,
    run_study,
    sample_prior,
    study_log,
    suggest,
)


def _completed(index, params, objective):
    return TrialRecord(trial_index=index, params=params, objective=objective, status="completed")


def _space_1d():
    return {"x": Uniform(0.0, 1.0)}


def _mixed_space():
    return {
        "batch_size": Uniform(6, 12, scale="int"),
        "learning_rate": Uniform(5e-6, 1e-4, scale="log"),
        "cutoff": Uniform(0.5, 1.0),
    }


@st.composite
def _params(draw):
    """A parameter of any scale with bounds drawn for that scale."""
    scale = draw(st.sampled_from(["linear", "log", "int"]))
    if scale == "int":
        lo = draw(st.integers(-1000, 1000))
        return Uniform(lo, lo + draw(st.integers(1, 1000)), scale="int")
    if scale == "log":
        lo = draw(st.floats(1e-8, 1e3))
        return Uniform(lo, lo * draw(st.floats(1.5, 1e4)), scale="log")
    lo = draw(st.floats(-1e6, 1e6))
    return Uniform(lo, lo + draw(st.floats(1e-3, 1e6)))


class TestDistributions:
    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            Uniform(0.0, 1.0, scale="log")
        with pytest.raises(ValueError):
            Uniform(5, 5, scale="int")
        with pytest.raises(ValueError):
            Uniform(1.5, 3, scale="int")

    def test_int_untransform_rounds_and_clamps(self):
        dist = Uniform(6, 12, scale="int")
        assert dist.untransform(7.4) == 7
        assert dist.untransform(-3.0) == 6
        assert dist.untransform(99.0) == 12

    def test_log_untransform_clamps_to_bounds(self):
        dist = Uniform(1e-5, 1e-3, scale="log")
        assert dist.untransform(math.log(1e-9)) == 1e-5
        assert dist.untransform(math.log(1.0)) == 1e-3

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="scale must be linear, log or int"):
            Uniform(0.0, 1.0, scale="logit")


class TestSuggest:
    def test_no_history_samples_the_prior(self):
        space = _mixed_space()
        assert suggest(space, [], seed=42) == sample_prior(space, seed=42)

    def test_four_completed_trials_still_prior(self):
        space = _space_1d()
        history = [_completed(i, {"x": 0.5}, 1.0) for i in range(4)]
        assert suggest(space, history, seed=7) == sample_prior(space, seed=7)
        history.append(_completed(4, {"x": 0.6}, 1.0))
        assert suggest(space, history, seed=7) != sample_prior(space, seed=7)

    def test_failed_trials_do_not_count_toward_startup(self):
        space = _space_1d()
        history = [
            TrialRecord(i, {"x": 0.5}, objective=math.nan, status="failed")
            for i in range(10)
        ]
        assert suggest(space, history, seed=3) == sample_prior(space, seed=3)

    def test_concentrates_on_good_region(self):
        space = _space_1d()
        good_xs = [0.28, 0.29, 0.30, 0.31, 0.32]
        bad_xs = [0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95,
                  0.62, 0.68, 0.72, 0.78, 0.88, 0.93, 0.97]
        history = [
            _completed(i, {"x": x}, objective=1.0 - (x - 0.3) ** 2)
            for i, x in enumerate(good_xs)
        ] + [
            _completed(5 + i, {"x": x}, objective=-1.0 - x)
            for i, x in enumerate(bad_xs)
        ]
        xs = np.array(good_xs)
        bandwidth = max(
            1.06 * xs.std() * xs.size ** -0.2, BANDWIDTH_FLOOR_FRACTION * 1.0
        )
        lo, hi = min(good_xs) - bandwidth, max(good_xs) + bandwidth
        for seed in range(100):
            got = suggest(space, history, seed)["x"]
            assert lo <= got <= hi

    def test_always_in_bounds_and_integral(self):
        space = _mixed_space()
        rng = np.random.default_rng(0)
        history = []
        for i in range(30):
            params = sample_prior(space, seed=int(rng.integers(2**31)))
            history.append(_completed(i, params, objective=float(rng.normal())))
        for seed in range(50):
            got = suggest(space, history, seed)
            assert isinstance(got["batch_size"], int)
            assert 6 <= got["batch_size"] <= 12
            assert 5e-6 <= got["learning_rate"] <= 1e-4
            assert 0.5 <= got["cutoff"] <= 1.0


class TestParzen:
    def test_density_strictly_positive_on_support(self):
        density = _Parzen(np.array([0.2, 0.21]), lo_t=0.0, hi_t=1.0)
        for x in np.linspace(0.0, 1.0, 101):
            assert math.isfinite(density.logpdf(float(x)))

    def test_bandwidth_floor_applies_to_degenerate_samples(self):
        density = _Parzen(np.array([0.5, 0.5, 0.5]), lo_t=0.0, hi_t=1.0)
        assert density.bandwidths[0] == pytest.approx(BANDWIDTH_FLOOR_FRACTION)

    def test_prior_kernel_sits_at_midpoint_with_prior_width(self):
        density = _Parzen(np.array([0.1]), lo_t=0.0, hi_t=2.0)
        assert density.centers[-1] == pytest.approx(1.0)
        assert density.bandwidths[-1] == pytest.approx(2.0)


class TestRunStudy:
    def test_deterministic_for_fixed_seed(self):
        space = _space_1d()
        f = lambda p: -(p["x"] - 0.3) ** 2
        a = run_study(space, f, 20, seed=5)
        b = run_study(space, f, 20, seed=5)
        assert a.trials == b.trials
        assert a.best == b.best

    def test_failed_trials_recorded_and_excluded(self):
        space = _space_1d()

        def flaky(params):
            if params["x"] > 0.5:
                raise NonFiniteLoss("simulated failure")
            return params["x"]

        result = run_study(space, flaky, 30, seed=11)
        failed = [t for t in result.trials if t.status == "failed"]
        completed = [t for t in result.trials if t.status == "completed"]
        assert failed and completed
        assert all(t.params["x"] > 0.5 for t in failed)
        assert result.best.objective == max(t.objective for t in completed)
        assert result.best.status == "completed"

    def test_all_trials_failed(self):
        def broken(params):
            raise NonFiniteLoss("always down")

        with pytest.raises(AllTrialsFailed):
            run_study(_space_1d(), broken, 5, seed=0)

    def test_a_bug_in_the_objective_propagates(self):
        calls = []

        def buggy(params):
            calls.append(params)
            return {"qwk": params["x"]}["kappa"]

        with pytest.raises(KeyError, match="kappa"):
            run_study(_space_1d(), buggy, 5, seed=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("error", [np.linalg.LinAlgError, ZeroDivisionError])
    def test_a_numeric_error_in_the_objective_propagates(self, error):
        calls = []

        def failing(params):
            calls.append(params)
            raise error("not a pipeline error")

        with pytest.raises(error, match="not a pipeline error"):
            run_study(_space_1d(), failing, 5, seed=11)
        assert len(calls) == 1

    def test_resume_matches_uninterrupted_run(self):
        space = _space_1d()
        f = lambda p: -(p["x"] - 0.3) ** 2
        full = run_study(space, f, 20, seed=9)
        first = run_study(space, f, 10, seed=9)
        resumed = run_study(space, f, 10, seed=9, history=first.trials)
        assert resumed.trials == full.trials

    def test_feature_study_covers_all_four_parameters(self):
        space = feature_search_space()
        assert set(space) == {"batch_size", "learning_rate", "tfidf_dim", "cutoff"}
        assert (space["tfidf_dim"].lo, space["tfidf_dim"].hi) == (100, 300)
        assert (space["cutoff"].lo, space["cutoff"].hi) == (0.5, 1.0)
        assert (space["learning_rate"].lo, space["learning_rate"].hi) == (5e-6, 1e-4)
        assert (space["batch_size"].lo, space["batch_size"].hi) == (6, 12)
        result = run_study(space, lambda p: p["cutoff"], 20, seed=2)
        assert len(result.trials) == 20
        for t in result.trials:
            assert 100 <= t.params["tfidf_dim"] <= 300
            assert isinstance(t.params["tfidf_dim"], int)

    def test_quadratic_benchmark_smoke(self):
        space = _space_1d()
        f = lambda p: -(p["x"] - 0.3) ** 2
        hits = 0
        for seed in range(20):
            best = run_study(space, f, 20, seed).best
            hits += abs(best.params["x"] - 0.3) <= 0.15
        assert hits >= 16


class TestStudyLog:
    def test_round_trip(self):
        space = _mixed_space()

        def f(params):
            if params["batch_size"] == 7:
                raise NonFiniteLoss("unlucky batch")
            return params["cutoff"]

        result = run_study(space, f, 15, seed=4)
        text = "#asas\tversion=test\tseed=4\n" + study_log(space, result)
        again = read_study_log(text, space)
        assert len(again) == len(result.trials)
        for orig, back in zip(result.trials, again):
            assert back.trial_index == orig.trial_index
            assert back.status == orig.status
            assert back.params == orig.params
            if orig.status == "completed":
                assert back.objective == orig.objective
            else:
                assert math.isnan(back.objective)

    def test_read_rejects_wrong_space(self):
        space = _space_1d()
        result = run_study(space, lambda p: p["x"], 6, seed=0)
        text = study_log(space, result)
        with pytest.raises(HeaderMismatch, match="^log columns .* do not match space"):
            read_study_log(text, _mixed_space())

    @pytest.mark.parametrize("row, fault", [
        ("0\t6", "expected 7 cells, got 2"),  # a killed run's truncated last line
        ("0\t8\t1e-05\t150\t0.8\t0.5\tbogus", "unknown trial status 'bogus'"),
        ("0\t8\t1e-05\tx\t0.8\t0.5\tcompleted", "is not a number"),
        ("0\t8\t1e-05\t150\t0.8\tnope\tfailed", "is not a number"),
    ])
    def test_read_names_a_malformed_row(self, row, fault):
        space = feature_search_space()
        columns = "\t".join(["trial", *space, "objective", "status"])
        text = f"#asas\tversion=test\tseed=4\n{columns}\n{row}\n"
        with pytest.raises(MalformedRow, match=f"line 3: .*{fault}"):
            read_study_log(text, space)

    def test_log_resumes_study(self):
        space = _space_1d()
        f = lambda p: -(p["x"] - 0.3) ** 2
        full = run_study(space, f, 12, seed=6)
        first = run_study(space, f, 6, seed=6)
        history = read_study_log(study_log(space, first), space)
        resumed = run_study(space, f, 6, seed=6, history=history)
        assert [t.params for t in resumed.trials] == [t.params for t in full.trials]

    def test_feature_study_log_is_pinned(self):
        """TPE's exact suggestions on the feature space, a failed trial included.
        A change that moves any of them must re-record this text and say why."""

        def objective(p):
            if p["batch_size"] == 11:
                raise NonFiniteLoss("batch 11 diverges")
            lr_miss = abs(math.log10(p["learning_rate"]) + 4.5)
            return p["cutoff"] - lr_miss - abs(p["tfidf_dim"] - 220) / 200

        space = feature_search_space()
        text = study_log(space, run_study(space, objective, 12, seed=3))
        assert text == (
            "trial\tbatch_size\tlearning_rate\ttfidf_dim\tcutoff\tobjective\tstatus\n"
            "0\t11\t8.154085939089926e-06\t194\t0.7909021580749143\tnan\tfailed\n"
            "1\t12\t8.548235936177811e-06\t188\t0.9780828623016038\t0.2499593627339766\tcompleted\n"
            "2\t9\t3.0150317980572867e-05\t145\t0.9169746287700036\t0.521266525560599\tcompleted\n"
            "3\t9\t6.841263239055138e-05\t299\t0.7451675677137682\t0.015031266125709375\tcompleted\n"
            "4\t9\t7.496231752765961e-06\t269\t0.9016760206601012\t0.031519025353000885\tcompleted\n"
            "5\t7\t3.477385095415184e-05\t110\t0.8626456211289713\t0.2713928327888544\tcompleted\n"
            "6\t6\t4.0173108616042324e-05\t110\t0.5\t-0.1539354389648857\tcompleted\n"
            "7\t6\t3.298885443587224e-05\t109\t0.8587114508050826\t0.28534421621813577\tcompleted\n"
            "8\t9\t3.557283472112874e-05\t100\t0.921990767435048\t0.27087229289614234\tcompleted\n"
            "9\t6\t2.9471162589591648e-05\t100\t0.8841483685783715\t0.25354563697954824\tcompleted\n"
            "10\t6\t3.218000650053407e-05\t109\t0.8531907404306753\t0.2906046129378387\tcompleted\n"
            "11\t6\t3.236504813845422e-05\t110\t0.941986346991704\t0.3819100896853529\tcompleted\n"
        )

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(_params(), min_size=1, max_size=4),
        st.lists(st.booleans(), min_size=1, max_size=12),
        st.integers(0, 2**32 - 1),
    )
    def test_read_then_write_gives_the_same_text(self, params, fails, seed):
        space = {f"p{i}": dist for i, dist in enumerate(params)}
        assume(not all(fails))
        outcomes = iter(fails)

        def objective(p):
            if next(outcomes):
                raise NonFiniteLoss("drawn to fail")
            return sum(space[n].transform(v) for n, v in p.items())

        text = study_log(space, run_study(space, objective, len(fails), seed))
        trials = read_study_log(text, space)
        assert study_log(space, StudyResult(trials, trials[0])) == text
