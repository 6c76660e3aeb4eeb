#!/usr/bin/env python3
"""Generate a small synthetic workspace to exercise the full pipeline.

Writes toydata/, or the directory given, with a two-prompt training
file, a labeled test file, prompt text, three member log-probability
files, a low-dimensional embedding table, and a config file, then prints
a command sequence that runs every pipeline stage on it.
"""
from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

import numpy as np

from asas.corpus import LogProbMatrix, ScoredResponse, dump_logprobs, serialize_dataset
from asas.mathutil import log_softmax

PROMPT_TEXT = (
    "When salt is dissolved in water the concentration gradient drives "
    "diffusion across the membrane until equilibrium is reached. "
    "Describe how osmosis moves water through a semipermeable membrane "
    "and explain what happens to the cells in the experiment."
)

FILLERS = (
    "the water was in a cup and it did move because they put salt on it "
    "so then some of them went to look at what would happen after that"
).split()

KEY_WORDS = {
    1: "osmosis membrane water concentration".split(),
    2: "diffusion gradient equilibrium semipermeable".split(),
}


def synth_responses(
    prompt_id: int = 1,
    n: int = 80,
    k: int = 3,
    seed: int = 0,
    start_id: int = 0,
    second_read: bool = True,
) -> list[ScoredResponse]:
    """Seeded responses whose key-term usage tracks the score. Without
    ``second_read`` score2 is None and no random number is drawn for it."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        score = i % k
        words = [rng.choice(FILLERS) for _ in range(rng.randint(8, 16))]
        for level in range(1, score + 1):
            words += rng.sample(KEY_WORDS[min(level, 2)], 2)
        rng.shuffle(words)
        score2 = score if second_read else None
        if second_read and rng.random() < 0.1:
            score2 = max(0, min(k - 1, score + rng.choice([-1, 1])))
        out.append(
            ScoredResponse(
                id=str(start_id + i), prompt_id=prompt_id,
                text=" ".join(words) + ".", score1=score, score2=score2,
            )
        )
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", default="toydata", help="workspace directory")
    out = Path(parser.parse_args().out)
    out.mkdir(parents=True, exist_ok=True)

    pool = synth_responses(1, 80, 3, seed=0) + synth_responses(2, 70, 3, seed=1, start_id=5000)
    test = synth_responses(1, 24, 3, seed=2, start_id=9000)
    (out / "train.tsv").write_bytes(serialize_dataset(pool))
    (out / "test.tsv").write_bytes(serialize_dataset(test))
    (out / "prompt_1.txt").write_text(PROMPT_TEXT)

    prompt1 = [r for r in pool if r.prompt_id == 1] + test
    ids = [r.id for r in prompt1]
    gold = np.array([r.score1 for r in prompt1])
    rng = np.random.default_rng(7)
    for i, strength in enumerate([1.0, 1.4, 1.8]):
        logits = rng.normal(0.0, 1.0, size=(len(ids), 3))
        logits[np.arange(len(ids)), gold] += strength
        rows = {rid: vec for rid, vec in zip(ids, log_softmax(logits, axis=1))}
        member = LogProbMatrix(model_name=f"member{i}", prompt_id=1, k=3, rows=rows)
        (out / f"member_{i}.tsv").write_bytes(dump_logprobs(member))

    emb_rng = np.random.default_rng(11)
    lines = ["#dim=16"]
    for r in prompt1:
        vec = emb_rng.normal(size=16) + r.score1
        lines.append(r.id + "\t" + "\t".join(repr(float(v)) for v in vec))
    (out / "embeddings_1.tsv").write_text("\n".join(lines) + "\n")

    (out / "asas.conf").write_text(
        f"data = {out / 'train.tsv'}\n"
        f"test = {out / 'test.tsv'}\n"
        "dev_frac = 0.2\n"
        "seed = 7\n"
    )

    print(f"wrote toy workspace to {out}/")
    print("try:")
    print(f"  asas stats --config {out / 'asas.conf'}")
    print(f"  asas tune --config {out / 'asas.conf'} --prompt 1 --trials 5 "
          f"--epochs 5 --prompt-text {out / 'prompt_1.txt'} --out {out / 'run'}")
    print(f"  asas ensemble --config {out / 'asas.conf'} --prompt 1 --m 2 "
          f"--members {out}/member_*.tsv {out / 'run' / 'predictions.tsv'} "
          f"--out {out / 'ens'}")
    print(f"  asas report --out {out / 'table.tsv'} {out / 'ens' / 'report_test.tsv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
