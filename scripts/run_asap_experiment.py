#!/usr/bin/env python3
"""Full experiment driver for the public short-answer dataset.

Expects a data directory (default ./data, or $ASAS_DATA_DIR) holding:

    train.tsv                     the public training file
    public_leaderboard*.tsv       test texts (optional, for test scoring)
    *solution*.csv                test scores to join by id (optional)
    embeddings_<prompt>.tsv       precomputed sentence vectors (optional)
    prompt_<prompt>.txt           prompt/passage text (optional)

Prints corpus statistics (`asas stats`). Then, for each prompt, runs the
20-trial search over learning rate / batch size / TF-IDF dimension /
fuzzy cutoff and saves the best trial's feature model with its
log-probabilities in the member format, `predictions.tsv` (`asas tune`);
with a test file it stacks that member and scores the test split
(`asas ensemble`, which writes `report_test.tsv` when the test labels are
known). Writes everything under the output directory and finishes with a
per-prompt report table plus the mean row (`asas report`).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from asas.cli import main as cli_main


def find_one(root: Path, patterns: list[str]) -> Path | None:
    for pattern in patterns:
        hits = sorted(root.glob(pattern))
        if hits:
            return hits[0]
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=os.environ.get("ASAS_DATA_DIR", "data"))
    parser.add_argument("--out", default="runs")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--prompts", type=int, nargs="*", default=list(range(1, 11)))
    args = parser.parse_args()

    root = Path(args.data_dir)
    train_path = root / "train.tsv"
    if not train_path.is_file():
        print(f"no dataset at {train_path}; nothing to do", file=sys.stderr)
        return 2
    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)

    common = ["--data", str(train_path), "--seed", str(args.seed)]
    test_path = find_one(root, ["public_leaderboard*.tsv"])
    if test_path is not None:
        common += ["--test", str(test_path)]
        solution_path = find_one(root, ["*solution*.csv", "*solution*.tsv"])
        if solution_path is not None:
            common += ["--solution", str(solution_path)]
    code = cli_main(["stats", *common])
    if code != 0:
        return code

    report_files = []
    for pid in args.prompts:
        started = time.monotonic()
        run_dir = out_root / f"prompt_{pid}"
        cmd = ["tune", *common, "--prompt", str(pid), "--trials", str(args.trials),
               "--out", str(run_dir)]
        emb = root / f"embeddings_{pid}.tsv"
        if emb.is_file():
            cmd += ["--embeddings", str(emb)]
        prompt_text = root / f"prompt_{pid}.txt"
        if prompt_text.is_file():
            cmd += ["--prompt-text", str(prompt_text)]
        code = cli_main(cmd)
        if code != 0:
            print(f"prompt {pid}: tune failed with exit {code}", file=sys.stderr)
            return code

        if test_path is not None:
            ens_dir = run_dir / "ensemble"
            report_test = ens_dir / "report_test.tsv"
            report_test.unlink(missing_ok=True)  # a previous run's report is not this one's
            code = cli_main(["ensemble", *common, "--prompt", str(pid),
                             "--members", str(run_dir / "predictions.tsv"), "--out", str(ens_dir)])
            if code != 0:
                return code
            if report_test.is_file():
                report_files.append(str(report_test))
        print(f"prompt {pid} done in {time.monotonic() - started:.0f}s")

    if report_files:
        return cli_main(["report", "--out", str(out_root / "report.tsv"), *report_files])
    return 0


if __name__ == "__main__":
    sys.exit(main())
