"""Four properties of the commands' outputs, checked on the toy workspace.

(a) The model ``tune`` keeps is the one ``train-features`` fits at the kept
    trial's logged parameters: ``model.txt``, ``predictions.tsv``,
    ``history.tsv`` and ``report_dev.tsv`` are equal. ``--lr`` and
    ``--cutoff`` are given as the reprs ``study.tsv`` logs.
(b) Prompt 2's rows in ``--data``, interleaved with prompt 1's, change none
    of prompt 1's ``train-features`` and ``predict`` outputs.
(c) CRLF line endings, a UTF-8 byte-order mark, and '#' comment and blank
    lines between the rows of ``--data`` and ``--test`` change none of the
    ``train-features`` and ``predict`` outputs.
(d) Values in a config file write the same ``train-features`` and
    ``ensemble`` files as the same values given as flags, which override a
    config file that holds other values.

Files are compared line by line, except the ``#asas`` header line, which
names the command's inputs. As in ``tests/digest_ledger.py``, the commands
run in a fresh interpreter, where ``asas`` pins one BLAS thread before
numpy loads; run alone, this file prints the pairs of files that differ:

    PYTHONPATH=src python tests/test_properties_cli.py
"""
from __future__ import annotations

import asas  # noqa: F401  (first: it pins one BLAS thread before numpy loads)

import importlib.util
import json
import os
import shlex
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import pytest

from asas.cli import COMMANDS, main
from asas.corpus import parse_dataset, serialize_dataset

ROOT = Path(__file__).resolve().parents[1]
RUN_FILES = ("model.txt", "predictions.tsv", "history.tsv", "report_dev.tsv")
FEATURES = "--prompt-text toydata/prompt_1.txt --embeddings toydata/embeddings_1.tsv"


def _asas(command: str) -> None:
    if main(shlex.split(command)) != 0:
        raise SystemExit(f"asas {command} failed")


def _lines(path: str | Path) -> list[str]:
    """The file's lines without its '#asas' header."""
    return [ln for ln in Path(path).read_text().splitlines() if not ln.startswith("#asas")]


def _differ(a: str, b: str, names) -> list[str]:
    """``a/name != b/name`` for each of ``names`` whose two files differ."""
    return [f"{a}/{n} != {b}/{n}" for n in names if _lines(f"{a}/{n}") != _lines(f"{b}/{n}")]


def kept_trial_is_train_features() -> list[str]:
    _asas(f"tune --config toydata/asas.conf --prompt 1 --trials 4 --epochs 3 {FEATURES} --out tune")
    head, *rows = (line.split("\t") for line in _lines("tune/study.tsv"))
    completed = [dict(zip(head, row)) for row in rows if row[-1] == "completed"]
    # the lowest-index trial of the highest objective
    kept = max(completed, key=lambda t: (float(t["objective"]), -int(t["trial"])))
    _asas(
        f"train-features --config toydata/asas.conf --prompt 1 --epochs 3 {FEATURES}"
        f" --lr {kept['learning_rate']} --batch {kept['batch_size']}"
        f" --tfidf-dim {kept['tfidf_dim']} --cutoff {kept['cutoff']} --out fixed"
    )
    return _differ("tune", "fixed", RUN_FILES)


def other_prompts_change_nothing() -> list[str]:
    rows = parse_dataset(Path("toydata/train.tsv").read_bytes())
    ones, twos = ([r for r in rows if r.prompt_id == pid] for pid in (1, 2))
    # prompt 2's rows and prompt 1's alternate, prompt 2's first
    mixed = [r for pair in zip_longest(twos, ones) for r in pair if r is not None]
    Path("both.tsv").write_bytes(serialize_dataset(mixed))
    Path("one.tsv").write_bytes(serialize_dataset(ones))
    for out in ("both", "one"):
        given = f"--data {out}.tsv --test toydata/test.tsv --prompt 1 {FEATURES}"
        _asas(f"train-features {given} --epochs 3 --out {out}")
        _asas(f"predict {given} --model {out}/model.txt --out {out}/predict.tsv")
    return _differ("both", "one", (*RUN_FILES, "predict.tsv"))


def line_endings_and_comments_change_nothing() -> list[str]:
    for name in ("train", "test"):
        head, *rows = Path(f"toydata/{name}.tsv").read_text().splitlines()
        noisy = [head]
        for i, row in enumerate(rows):
            noisy += [row, f"# after row {i}" if i % 2 else ""]
        text = "\ufeff" + "\r\n".join(noisy) + "\r\n"
        Path(f"noisy_{name}.tsv").write_bytes(text.encode())
    for out, data, test in (("plain", "toydata/train.tsv", "toydata/test.tsv"),
                            ("noisy", "noisy_train.tsv", "noisy_test.tsv")):
        given = f"--data {data} --test {test} --prompt 1 {FEATURES}"
        _asas(f"train-features {given} --epochs 3 --out {out}")
        _asas(f"predict {given} --model {out}/model.txt --out {out}/predict.tsv")
    return _differ("noisy", "plain", (*RUN_FILES, "predict.tsv"))


def config_equals_flags() -> list[str]:
    values = {
        "data": "toydata/train.tsv", "test": "toydata/test.tsv", "prompt": "1",
        "dev_frac": "0.25", "seed": "11", "epochs": "3", "lr": "0.002", "batch": "6",
        "hidden": "32", "tfidf_dim": "20", "cutoff": "0.9",
        "prompt_text": "toydata/prompt_1.txt", "embeddings": "toydata/embeddings_1.tsv",
        "members": "toydata/member_0.tsv toydata/member_1.tsv toydata/member_2.tsv", "m": "2",
    }
    Path("values.conf").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    listed = {c: entry[2].split() for c, entry in COMMANDS.items()}
    for command, out in (("train-features", "train"), ("ensemble", "ens")):
        flags = " ".join(f"--{k.replace('_', '-')} {v}" for k, v in values.items()
                         if k in listed[command])
        _asas(f"{command} --config values.conf --out conf_{out}")
        # over the workspace's config, whose dev_frac and seed differ
        _asas(f"{command} --config toydata/asas.conf {flags} --out flag_{out}")
    ens_files = ("ensemble.txt", "report_dev.tsv", "predictions.tsv", "report_test.tsv")
    return [*_differ("conf_train", "flag_train", RUN_FILES),
            *_differ("conf_ens", "flag_ens", ens_files)]


PROPERTIES = {
    "a": kept_trial_is_train_features,
    "b": other_prompts_change_nothing,
    "c": line_endings_and_comments_change_nothing,
    "d": config_equals_flags,
}


def run() -> dict[str, list[str]]:
    """Each property's pairs of files that differ, on a fresh toy workspace."""
    spec = importlib.util.spec_from_file_location(
        "make_toy_data", ROOT / "scripts" / "make_toy_data.py"
    )
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet  # the commands' progress lines
        argv, sys.argv = sys.argv, ["make_toy_data.py", "toydata"]
        os.chdir(tmp)
        try:
            if toy.main() != 0:
                raise SystemExit("make_toy_data.py failed")
            differ = {}
            for key, prop in PROPERTIES.items():
                try:
                    differ[key] = prop()
                except SystemExit as exc:  # a command failed: the property does not hold
                    differ[key] = [str(exc)]
            return differ
        finally:
            sys.stdout, sys.argv = stdout, argv
            os.chdir(ROOT)


@pytest.fixture(scope="module")
def differ() -> dict[str, list[str]]:
    src = str(Path(asas.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tune_keeps_what_train_features_fits_at_the_kept_params(differ):
    assert differ["a"] == []


def test_another_prompts_rows_leave_a_prompts_outputs_equal(differ):
    assert differ["b"] == []


def test_line_endings_and_comment_lines_leave_the_outputs_equal(differ):
    assert differ["c"] == []


def test_config_values_write_what_the_same_flags_write(differ):
    assert differ["d"] == []


if __name__ == "__main__":
    print(json.dumps(run()))
