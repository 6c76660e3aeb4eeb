"""Agreement statistics against exact-arithmetic oracles and identities."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asas.errors import DegenerateDistribution, LabelOutOfRange, LengthMismatch
from asas.metrics import (
    SMD_VIOLATION,
    EvalReport,
    accuracy,
    criteria_flags,
    qwk,
    smd,
)
from oracles import iter_joint_histograms, qwk_add_at_reference, qwk_exact


@st.composite
def label_pairs(draw, max_n=30, max_k=5):
    k = draw(st.integers(2, max_k))
    n = draw(st.integers(1, max_n))
    a = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return a, b, k


class TestQwk:
    @given(label_pairs(max_n=60, max_k=8))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bincount_counts_give_the_bytes_of_add_at_counts(self, pair):
        a, b, k = pair
        got, want = qwk(a, b, k), qwk_add_at_reference(a, b, k)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_perfect_agreement_is_one(self):
        assert qwk([0, 1, 2, 1], [0, 1, 2, 1], 3) == 1.0
        assert qwk([2, 2], [2, 2], 4) == 1.0

    def test_perfect_disagreement_two_classes(self):
        # ObsW = 1 (all mass off-diagonal), ExpW = 0.5 (uniform marginals)
        assert qwk([0, 1], [1, 0], 2) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_exact_oracle_on_small_histograms(self):
        for k in (2, 3):
            for n in range(1, 5):
                for a, b in iter_joint_histograms(k, n):
                    assert qwk(a, b, k) == pytest.approx(
                        float(qwk_exact(a, b, k)), abs=1e-12
                    )

    def test_degenerate_denominator_convention(self):
        # both raters constant on the same label: no expected disagreement
        assert qwk([1, 1, 1], [1, 1, 1], 3) == 1.0
        # constant but different labels: observed == expected disagreement
        assert qwk([0, 0], [1, 1], 2) == 0.0

    @given(label_pairs())
    @settings(max_examples=200)
    def test_symmetry(self, pair):
        a, b, k = pair
        assert qwk(a, b, k) == pytest.approx(qwk(b, a, k), abs=1e-12)

    @given(label_pairs())
    @settings(max_examples=200)
    def test_label_reversal_invariance(self, pair):
        a, b, k = pair
        ra = [k - 1 - x for x in a]
        rb = [k - 1 - x for x in b]
        assert qwk(a, b, k) == pytest.approx(qwk(ra, rb, k), abs=1e-12)

    @given(label_pairs())
    @settings(max_examples=200)
    def test_at_most_one_with_equality_iff_agreement(self, pair):
        a, b, k = pair
        value = qwk(a, b, k)
        assert value <= 1.0
        assert (value == 1.0) == (a == b)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            qwk([0, 1], [0], 2)
        with pytest.raises(LengthMismatch):
            qwk([], [], 2)
        with pytest.raises(LabelOutOfRange):
            qwk([0, 2], [0, 1], 2)
        with pytest.raises(LabelOutOfRange):
            qwk([0, -1], [0, 1], 2)
        with pytest.raises(LabelOutOfRange, match="non-integer"):
            qwk([0, 1], [0, 0.5], 2)
        assert qwk([0.0, 1.0], [0, 1], 2) == 1.0  # integral floats are labels

    def test_a_pair_wrong_in_two_ways_reports_its_shapes_first(self):
        with pytest.raises(LengthMismatch):
            qwk([0, 5], [0], 3)
        with pytest.raises(LengthMismatch):
            qwk([[0, 5]], [[0, 1]], 3)


class TestSmd:
    def test_identical_is_zero(self):
        assert smd([0, 1, 2], [0, 1, 2]) == 0.0

    def test_unit_shift_with_unit_sd(self):
        assert smd([0, 2, 0, 2], [1, 3, 1, 3]) == pytest.approx(1.0)

    def test_degenerate_distribution(self):
        with pytest.raises(DegenerateDistribution):
            smd([0, 0], [1, 1])
        assert smd([1, 1], [1, 1]) == 0.0

    @given(label_pairs())
    @settings(max_examples=200)
    def test_antisymmetry(self, pair):
        a, b, _ = pair
        try:
            forward = smd(a, b)
        except DegenerateDistribution:
            return
        assert forward == pytest.approx(-smd(b, a), abs=1e-12)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_self_is_zero(self, a):
        assert smd(a, a) == 0.0


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0, 1, 2], [0, 1, 2]) == 1.0

    def test_half(self):
        assert accuracy([0, 1, 2, 2], [0, 1, 0, 0]) == 0.5

    @given(label_pairs(max_n=6, max_k=4))
    @settings(max_examples=200)
    def test_matches_count_oracle(self, pair):
        a, b, _ = pair
        expected = sum(1 for x, y in zip(a, b) if x == y) / len(a)
        assert accuracy(a, b) == pytest.approx(expected)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            accuracy([0], [0, 1])


@pytest.mark.parametrize("stat", [accuracy, smd, lambda a, b: qwk(a, b, 3)])
@pytest.mark.parametrize("a, b", [([0], [0, 1]), ([], []), ([[0, 1]], [[0, 1]]), (0, 0)])
def test_every_statistic_refuses_a_pair_that_is_not_two_equal_vectors(stat, a, b):
    with pytest.raises(LengthMismatch):
        stat(a, b)


class TestCriteriaFlags:
    @pytest.mark.parametrize("smd_value, flags", [
        (0.0, set()),
        (0.15, set()),
        (-0.15, set()),
        (0.151, {SMD_VIOLATION}),
        (-0.151, {SMD_VIOLATION}),
    ])
    def test_the_smd_limit_is_exclusive_on_both_sides(self, smd_value, flags):
        assert criteria_flags(smd_value) == frozenset(flags)


class TestEvalReportTsv:
    def test_round_trip(self):
        report = EvalReport(
            prompt_id=3, qwk=0.75, smd=0.01, accuracy=0.8, n=42,
            flags=frozenset({SMD_VIOLATION}),
        )
        again = EvalReport.from_tsv_row(report.to_tsv_row())
        assert again.prompt_id == 3
        assert again.qwk == pytest.approx(0.75)
        assert again.flags == frozenset({SMD_VIOLATION})

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.integers(-3, 10**6),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        st.integers(0, 10**9),
        st.frozensets(st.sampled_from([SMD_VIOLATION, "Other"])),
    )
    def test_reading_a_row_then_writing_it_gives_the_same_row(self, prompt, stats, n, flags):
        row = EvalReport(prompt, *stats, n=n, flags=flags).to_tsv_row()
        assert EvalReport.from_tsv_row(row).to_tsv_row() == row

    def test_mean_row_renders_as_mean(self):
        row = EvalReport(prompt_id=-1, qwk=0.5, smd=0.0, accuracy=0.5, n=10).to_tsv_row()
        assert row.startswith("mean\t")
        assert EvalReport.from_tsv_row(row).prompt_id == -1

    @pytest.mark.parametrize("row, says", [
        ("1\tnan\t0.0\t0.5\t10\t-", "qwk nan is not finite"),
        ("1\t0.5\tinf\t0.5\t10\t-", "smd inf is not finite"),
        ("1\t0.5\t0.0\t-inf\t10\t-", "acc -inf is not finite"),
        ("mean\t0.5\t0.0\t0.5\t-3\t-", "n -3 is negative"),
        ("-3\t0.5\t0.0\t0.5\t10\t-", "prompt -3 is negative"),
    ], ids=["qwk", "smd", "acc", "n", "prompt"])
    def test_a_row_no_run_writes_is_rejected(self, row, says):
        with pytest.raises(ValueError, match=says):
            EvalReport.from_tsv_row(row)
