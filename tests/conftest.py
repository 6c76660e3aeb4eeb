"""Shared fixtures: deterministic toy corpora and ensemble members."""
from __future__ import annotations

import importlib.util
import os
from pathlib import Path

# asas first: it pins BLAS to one thread, which holds only if set before numpy loads,
# so the tests run numpy as the commands do.
import asas  # noqa: F401
import numpy as np
import pytest

from asas.corpus import PromptCorpus, build_corpus, LogProbMatrix
from asas.mathutil import log_softmax

# The toy corpus is the one scripts/make_toy_data.py writes, loaded by path.
_spec = importlib.util.spec_from_file_location(
    "make_toy_data", Path(__file__).resolve().parents[1] / "scripts" / "make_toy_data.py"
)
_toy = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_toy)
PROMPT_TEXT = _toy.PROMPT_TEXT
make_toy_responses = _toy.synth_responses


def make_toy_corpus(
    prompt_id: int = 1,
    n_train_pool: int = 80,
    n_test: int = 20,
    k: int = 3,
    seed: int = 0,
    dev_fraction: float = 0.25,
) -> PromptCorpus:
    pool = make_toy_responses(prompt_id=prompt_id, n=n_train_pool, k=k, seed=seed)
    test = make_toy_responses(
        prompt_id=prompt_id, n=n_test, k=k, seed=seed + 1, start_id=10_000
    )
    return build_corpus(
        pool,
        prompt_id=prompt_id,
        dev_fraction=dev_fraction,
        seed=seed,
        test=test,
    )


@pytest.fixture
def toy_corpus() -> PromptCorpus:
    return make_toy_corpus()


def noisy_member(
    name: str,
    ids: list[str],
    gold: np.ndarray,
    k: int,
    seed: int,
    strength: float = 2.0,
    prompt_id: int = 1,
) -> LogProbMatrix:
    """Member whose log-probs lean toward gold with seeded noise."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 1.0, size=(len(ids), k))
    logits[np.arange(len(ids)), gold] += strength
    logprobs = log_softmax(logits, axis=1)
    return LogProbMatrix(
        model_name=name,
        prompt_id=prompt_id,
        k=k,
        rows={rid: logprobs[i] for i, rid in enumerate(ids)},
    )


def perfect_member(
    name: str, ids: list[str], gold: np.ndarray, k: int, prompt_id: int = 1
) -> LogProbMatrix:
    """Member that puts almost all mass on the gold class."""
    logits = np.full((len(ids), k), -30.0)
    logits[np.arange(len(ids)), gold] = 0.0
    logprobs = log_softmax(logits, axis=1)
    return LogProbMatrix(
        model_name=name,
        prompt_id=prompt_id,
        k=k,
        rows={rid: logprobs[i] for i, rid in enumerate(ids)},
    )


def data_dir() -> Path | None:
    """Directory holding the real public dataset, if provided locally."""
    root = Path(os.environ.get("ASAS_DATA_DIR", "data"))
    if (root / "train.tsv").is_file():
        return root
    return None


requires_dataset = pytest.mark.skipif(
    data_dir() is None,
    reason="public dataset not provided locally (set ASAS_DATA_DIR or place data/train.tsv)",
)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    lines = []
    for status in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(status, []):
            if getattr(report, "when", "call") not in ("call", "setup"):
                continue
            nodeid = report.nodeid
            if "test_acceptance.py" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, status.upper()))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, status in sorted(set(lines)):
            terminalreporter.write_line(f"ACCEPTANCE {name}: {status}")



# Matrix blocks that are not what Artifact.dump writes, each with the start of
# the HeaderMismatch that names its block and row: a row of the right length
# holding spaces (bytes.fromhex would skip them and decode 7 bytes), an
# upper-case row (bytes.fromhex reads it), a non-ASCII character, a row one
# character short or long, rows of zero columns, and an upper-case row before
# a short one (rows are checked in file order, so the first is named).
_ONE = "000000000000f03f"  # 1.0
_NOT_HEX = "matrix x row 2 is not lowercase hex"
BAD_HEX_BLOCKS = {
    "spaced": (f"[matrix x 2 1]\n{_ONE}\n0000 0000 00f03f\n", _NOT_HEX),
    "upper": (f"[matrix x 2 1]\n{_ONE}\n000000000000F03F\n", _NOT_HEX),
    "non-ascii": (f"[matrix x 2 1]\n{_ONE}\n000000000000f03\u00e9\n", _NOT_HEX),
    "short": (f"[matrix x 2 1]\n{_ONE}\n{_ONE[:-1]}\n", "matrix x row 2 has 15 characters"),
    "long": (f"[matrix x 2 1]\n{_ONE}\n{_ONE}0\n", "matrix x row 2 has 17 characters"),
    "no-columns": ("[matrix x 2 0]\n\n\n", "matrix x row 1 has no columns"),
    "upper-then-short": (
        f"[matrix x 2 1]\n000000000000F03F\n{_ONE[:-1]}\n", "matrix x row 1 is not lowercase hex"
    ),
}
