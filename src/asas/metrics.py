"""Agreement and calibration statistics for scored responses.

Implements quadratic weighted kappa (the chance-corrected agreement
statistic used throughout automated scoring), standardized mean
difference and exact-match accuracy, and flags a report whose |SMD|
exceeds 0.15, the deployment limit on a scoring engine's bias.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistribution, LabelOutOfRange, LengthMismatch

SMD_LIMIT = 0.15
SMD_VIOLATION = "SmdViolation"


def as_labels(values, k: int, name: str = "labels") -> np.ndarray:
    """``values`` as int64 labels; LabelOutOfRange unless each is an integer
    in [0, k). An empty vector passes."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and not np.all(arr == np.rint(arr)):  # "iu": an integer dtype
        raise LabelOutOfRange(f"{name} contains non-integer labels")
    if arr.size and (arr.min() < 0 or arr.max() >= k):
        raise LabelOutOfRange(f"{name} must lie in [0, {k})")
    return arr.astype(np.int64, copy=False)


def _paired(a, b) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as arrays; LengthMismatch unless both are 1-D, non-empty
    and of one length."""
    av, bv = np.asarray(a), np.asarray(b)
    if av.ndim != 1 or av.size == 0 or av.shape != bv.shape:
        raise LengthMismatch(f"not two non-empty 1-D vectors of one length: {av.shape}, {bv.shape}")
    return av, bv


def qwk(a, b, k: int) -> float:
    """Quadratic weighted kappa between two integer label vectors.

    With ``observed[i, j]`` the fraction of items rated i by the first
    scorer and j by the second, ``expected`` the outer product of the two
    marginal distributions and weights ``(i - j)^2 / (k - 1)^2``, returns
    1 - (sum w*observed) / (sum w*expected). When the expected weighted
    disagreement is zero the statistic is defined as 1.0 on exact
    agreement and 0.0 otherwise, so sweeps never produce NaN.
    """
    if k < 2:
        raise LabelOutOfRange("need at least two classes")
    av, bv = (as_labels(v, k, name) for v, name in zip(_paired(a, b), "ab"))
    observed = np.bincount(av * k + bv, minlength=k * k).reshape(k, k) / av.size
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0))
    idx = np.arange(k, dtype=float)
    weights = (idx[:, None] - idx[None, :]) ** 2 / (k - 1) ** 2
    weighted_obs = float(np.sum(weights * observed))
    weighted_exp = float(np.sum(weights * expected))
    if weighted_exp == 0.0:
        return 1.0 if weighted_obs == 0.0 else 0.0
    return 1.0 - weighted_obs / weighted_exp


def smd(human, machine) -> float:
    """Standardized mean difference, machine minus human.

    The denominator is the pooled standard deviation
    sqrt((var(human) + var(machine)) / 2) with population variances.
    """
    h, m = (v.astype(float) for v in _paired(human, machine))
    pooled = np.sqrt((h.var() + m.var()) / 2.0)
    diff = m.mean() - h.mean()
    if pooled == 0.0:
        if diff == 0.0:
            return 0.0
        raise DegenerateDistribution("both distributions are constant but means differ")
    return float(diff / pooled)


def accuracy(a, b) -> float:
    """Fraction of exact label matches."""
    av, bv = _paired(a, b)
    return float(np.mean(av == bv))


@dataclass(frozen=True)
class EvalReport:
    """Per-prompt evaluation summary with its deployment flags."""

    prompt_id: int
    qwk: float
    smd: float
    accuracy: float
    n: int
    flags: frozenset[str] = frozenset()

    TSV_HEADER = "prompt\tqwk\tsmd\tacc\tn\tflags"

    def to_tsv_row(self) -> str:
        prompt = "mean" if self.prompt_id < 0 else str(self.prompt_id)
        flags = ",".join(sorted(self.flags)) if self.flags else "-"
        return f"{prompt}\t{self.qwk:.6f}\t{self.smd:.6f}\t{self.accuracy:.6f}\t{self.n}\t{flags}"

    @classmethod
    def from_tsv_row(cls, row: str) -> "EvalReport":
        """The report a row of ``to_tsv_row`` renders; ValueError unless its
        prompt is ``mean`` or a non-negative id, its three statistics are
        finite and its ``n`` is not negative."""
        prompt, qwk_s, smd_s, acc_s, n_s, flags_s = row.rstrip("\n").split("\t")
        flags = frozenset() if flags_s == "-" else frozenset(flags_s.split(","))
        report = cls(
            prompt_id=-1 if prompt == "mean" else int(prompt),
            qwk=float(qwk_s),
            smd=float(smd_s),
            accuracy=float(acc_s),
            n=int(n_s),
            flags=flags,
        )
        for name, value in (("qwk", report.qwk), ("smd", report.smd), ("acc", report.accuracy)):
            if not np.isfinite(value):
                raise ValueError(f"{name} {value} is not finite")
        if report.prompt_id < 0 and prompt != "mean":
            raise ValueError(f"prompt {prompt} is negative")
        if report.n < 0:
            raise ValueError(f"n {report.n} is negative")
        return report


def criteria_flags(smd_value: float) -> frozenset[str]:
    """The deployment flags a report earns: SmdViolation when |SMD| exceeds 0.15."""
    return frozenset({SMD_VIOLATION}) if abs(smd_value) > SMD_LIMIT else frozenset()
