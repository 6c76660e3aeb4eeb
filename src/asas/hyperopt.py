"""Tree-structured Parzen Estimator search over training hyperparameters.

Sequential model-based optimization: completed trials are split into a
good set (top gamma fraction by objective) and the rest; per parameter,
1-D Parzen densities l (good) and g (rest) are fitted with Gaussian
kernels in the transformed space, and the next point is the candidate
drawn from l that maximizes the density ratio l/g. The first few trials
sample the prior directly. The objective is maximized (dev QWK here).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllTrialsFailed, AsasError, HeaderMismatch, MalformedRow
from .features import MIN_CUTOFF
from .mathutil import logsumexp
from .serialize import data_rows, fmt_float

N_STARTUP = 5
GAMMA = 0.25
N_CANDIDATES = 24
# Kernel bandwidths never shrink below this fraction of the prior width.
# A tighter floor lets the good-set density collapse onto the incumbent
# and stall refinement; 10% keeps the sampler ahead of prior sampling on
# the quadratic benchmark while still exploiting.
BANDWIDTH_FLOOR_FRACTION = 0.10


@dataclass(frozen=True)
class Uniform:
    """A parameter drawn uniformly from [lo, hi]: over its values (``linear``),
    over their logarithms (``log``) or over the integers (``int``)."""

    lo: float
    hi: float
    scale: str = "linear"

    def __post_init__(self):
        if self.scale not in ("linear", "log", "int"):
            raise ValueError(f"scale must be linear, log or int, got {self.scale!r}")
        if self.scale == "int" and (int(self.lo) != self.lo or int(self.hi) != self.hi):
            raise ValueError("integer bounds must be integral")
        if not self.lo < self.hi or (self.scale == "log" and not 0 < self.lo):
            need = "0 < lo < hi" if self.scale == "log" else "lo < hi"
            raise ValueError(f"need {need}, got [{self.lo}, {self.hi}]")

    def transform(self, x: float) -> float:
        return math.log(x) if self.scale == "log" else float(x)

    def untransform(self, t: float) -> float | int:
        if self.scale == "int":
            return int(min(max(round(t), self.lo), self.hi))
        x = math.exp(t) if self.scale == "log" else t
        return float(min(max(x, self.lo), self.hi))

    def bounds_t(self) -> tuple[float, float]:
        return self.transform(self.lo), self.transform(self.hi)

    def sample_prior(self, rng: np.random.Generator) -> float | int:
        if self.scale == "int":
            return int(rng.integers(self.lo, self.hi + 1))
        return self.untransform(rng.uniform(*self.bounds_t()))


def feature_search_space() -> dict[str, Uniform]:
    """Batch size, learning rate (log scale), TF-IDF dimension and fuzzy cutoff."""
    return {
        "batch_size": Uniform(6, 12, scale="int"),
        "learning_rate": Uniform(5e-6, 1e-4, scale="log"),
        "tfidf_dim": Uniform(100, 300, scale="int"),
        "cutoff": Uniform(MIN_CUTOFF, 1.0),
    }


@dataclass(frozen=True)
class TrialRecord:
    trial_index: int
    params: dict[str, float | int]
    objective: float
    status: str  # "completed" | "failed"


@dataclass(frozen=True)
class StudyResult:
    trials: list[TrialRecord]
    best: TrialRecord


class _Parzen:
    """1-D Gaussian kernel mixture plus one prior-wide smoothing kernel.

    Bandwidths follow Scott's rule 1.06 * sd * n^(-1/5), floored at a
    fixed fraction of the prior width; the extra kernel sits at the
    prior midpoint with the prior width as bandwidth, so the density is
    strictly positive on the whole support.
    """

    def __init__(self, samples_t: np.ndarray, lo_t: float, hi_t: float):
        width = hi_t - lo_t
        n = samples_t.size
        bw = max(1.06 * samples_t.std() * n ** (-0.2), BANDWIDTH_FLOOR_FRACTION * width)
        self.centers = np.append(samples_t, (lo_t + hi_t) / 2.0)
        self.bandwidths = np.append(np.full(n, bw), width)
        self.lo_t = lo_t
        self.hi_t = hi_t

    def logpdf(self, x: float) -> float:
        z = (x - self.centers) / self.bandwidths
        comps = -0.5 * z * z - np.log(self.bandwidths * math.sqrt(2 * math.pi))
        return float(logsumexp(comps) - math.log(self.centers.size))

    def sample(self, rng: np.random.Generator) -> float:
        i = int(rng.integers(self.centers.size))
        draw = rng.normal(self.centers[i], self.bandwidths[i])
        return float(min(max(draw, self.lo_t), self.hi_t))


def sample_prior(space: dict[str, Uniform], seed: int) -> dict[str, float | int]:
    """Draw each parameter independently from its prior."""
    rng = np.random.default_rng(seed)
    return {name: dist.sample_prior(rng) for name, dist in space.items()}


def suggest(
    space: dict[str, Uniform], history: list[TrialRecord], seed: int
) -> dict[str, float | int]:
    """Propose the next parameter vector.

    Prior sampling until 5 completed trials exist; afterwards the
    Parzen-ratio rule over 24 candidates drawn from the good density.
    """
    completed = [t for t in history if t.status == "completed"]
    if len(completed) < N_STARTUP:
        return sample_prior(space, seed)

    rng = np.random.default_rng(seed)
    ranked = sorted(completed, key=lambda t: (-t.objective, t.trial_index))
    n_good = math.ceil(GAMMA * len(ranked))
    good, rest = ranked[:n_good], ranked[n_good:]

    densities: dict[str, tuple[_Parzen, _Parzen]] = {}
    for name, dist in space.items():
        lo_t, hi_t = dist.bounds_t()
        good_t = np.array([dist.transform(t.params[name]) for t in good])
        rest_t = np.array([dist.transform(t.params[name]) for t in rest])
        densities[name] = (_Parzen(good_t, lo_t, hi_t), _Parzen(rest_t, lo_t, hi_t))

    best_cand, best_score = None, -math.inf
    for _ in range(N_CANDIDATES):
        cand: dict[str, float | int] = {}
        score = 0.0
        for name, dist in space.items():
            l_density, g_density = densities[name]
            cand[name] = dist.untransform(l_density.sample(rng))
            x_t = dist.transform(cand[name])
            score += l_density.logpdf(x_t) - g_density.logpdf(x_t)
        if score > best_score:
            best_cand, best_score = cand, score
    assert best_cand is not None
    return best_cand


def run_study(
    space: dict[str, Uniform],
    objective_fn,
    n_trials: int,
    seed: int,
    suggest_fn=suggest,
    history: list[TrialRecord] | None = None,
) -> StudyResult:
    """Sequential suggest/evaluate loop, deterministic for a fixed seed.

    An objective evaluation that raises ``AsasError`` is recorded as a
    failed trial and excluded from later density fits; any other exception
    is a bug and propagates. ``history`` resumes a study from previously
    logged trials.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    trials: list[TrialRecord] = list(history or [])
    start = len(trials)
    trial_seeds = np.random.SeedSequence(seed).generate_state(start + n_trials)
    for i in range(start, start + n_trials):
        params = suggest_fn(space, trials, int(trial_seeds[i]))
        try:
            objective, status = float(objective_fn(params)), "completed"
        except AsasError:
            objective, status = math.nan, "failed"
        trials.append(TrialRecord(trial_index=i, params=params, objective=objective, status=status))
    completed = [t for t in trials if t.status == "completed"]
    if not completed:
        raise AllTrialsFailed(f"all {len(trials)} trials failed")
    best = max(completed, key=lambda t: (t.objective, -t.trial_index))
    return StudyResult(trials=trials, best=best)


def study_log(space: dict[str, Uniform], result: StudyResult) -> str:
    """Render a study as a resumable TSV log."""
    names = list(space)
    lines = ["trial\t" + "\t".join(names) + "\tobjective\tstatus"]
    for t in result.trials:
        cells = [str(t.trial_index)]
        cells += [repr(t.params[n]) for n in names]
        cells.append(fmt_float(t.objective))
        cells.append(t.status)
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def read_study_log(text: str, space: dict[str, Uniform]) -> list[TrialRecord]:
    """Parse a study log back into trial records; a malformed row, such as a
    killed run's truncated last line, raises ``MalformedRow`` naming its line,
    and a log whose columns are not ``space``'s parameters ``HeaderMismatch``."""
    rows = zip(*data_rows(text))
    _, head = next(rows, (0, None))
    if head is None:
        return []
    names = head.split("\t")[1:-2]
    if names != list(space):
        raise HeaderMismatch(f"log columns {names} do not match space {list(space)}")
    trials = []
    for line_no, row in rows:
        cells = row.split("\t")
        if len(cells) != len(names) + 3:
            raise MalformedRow(f"line {line_no}: expected {len(names) + 3} cells, got {len(cells)}")
        if cells[-1] not in ("completed", "failed"):
            raise MalformedRow(f"line {line_no}: unknown trial status {cells[-1]!r}")
        try:
            params = {
                name: int(cell) if space[name].scale == "int" else float(cell)
                for name, cell in zip(names, cells[1:-2])
            }
            trials.append(TrialRecord(int(cells[0]), params, float(cells[-2]), cells[-1]))
        except ValueError:
            raise MalformedRow(f"line {line_no}: a cell of {row!r} is not a number") from None
    return trials
