#!/usr/bin/env python3
"""Full experiment driver for the public short-answer dataset.

Expects a data directory (default ./data, or $ASAS_DATA_DIR) holding:

    train.tsv                     the public training file
    public_leaderboard*.tsv       test texts (optional, for test scoring)
    *solution*.csv                test scores to join by id (optional)
    embeddings_<prompt>.tsv       precomputed sentence vectors (optional)
    prompt_<prompt>.txt           prompt/passage text (optional)

Makes one `asas` call per stage over every prompt in train.tsv: `stats`;
`tune --all-prompts`, the 20-trial search, which saves each prompt's best
feature model and its member file under `<out>/prompt_<id>/`; with a test
file, `ensemble --all-prompts` on those members (`<out>/ensemble/prompt_<id>/`);
and `report` over every `report_test.tsv` written (the test labels are
needed). When any embeddings or prompt-text file exists, each prompt needs
its own: a missing one exits 2 naming it.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from asas.cli import main as cli_main


def find_one(root: Path, patterns: list[str]) -> Path | None:
    """The first file, in name order, that the first matching pattern finds."""
    return next((hit for pattern in patterns for hit in sorted(root.glob(pattern))), None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=os.environ.get("ASAS_DATA_DIR", "data"))
    parser.add_argument("--out", default="runs")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trials", type=int, default=20)
    args = parser.parse_args()

    root = Path(args.data_dir)
    train_path = root / "train.tsv"
    if not train_path.is_file():
        print(f"no dataset at {train_path}; nothing to do", file=sys.stderr)
        return 2
    out_root = Path(args.out)

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

    tune = ["tune", *common, "--all-prompts", "--trials", str(args.trials), "--out", str(out_root)]
    for flag, name in (("--embeddings", "embeddings_{prompt}.tsv"),
                       ("--prompt-text", "prompt_{prompt}.txt")):
        if any(root.glob(name.replace("{prompt}", "*"))):
            tune += [flag, str(root / name)]
    code = cli_main(tune)
    if code != 0 or test_path is None:
        return code

    ens_root = out_root / "ensemble"
    for stale in ens_root.glob("prompt_*/report_test.tsv"):
        stale.unlink()  # a previous run's report is not this one's
    code = cli_main(["ensemble", *common, "--all-prompts", "--members",
                     str(out_root / "prompt_{prompt}" / "predictions.tsv"), "--out", str(ens_root)])
    reports = sorted(map(str, ens_root.glob("prompt_*/report_test.tsv")))
    if code != 0 or not reports:
        return code
    return cli_main(["report", "--out", str(out_root / "report.tsv"), *reports])


if __name__ == "__main__":
    sys.exit(main())
