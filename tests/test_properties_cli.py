"""Six properties of the commands' outputs, checked on the toy workspace.

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
(e) ``--all-prompts`` with ``{prompt}`` paths writes for each prompt the
    files that ``--prompt p`` writes on the expanded paths, headers
    included: ``train-features``, ``predict`` and ``ensemble``, with prompt 2
    given its own prompt text and member files.
(f) ``predict`` with ``tune``'s ``model.txt`` and the same ``--data`` and
    ``--test`` gives every row of ``tune``'s ``predictions.tsv``, each value
    within 1e-9.

Files are compared line by line, except the ``#asas`` header line, which
names the command's inputs; (e) compares them byte for byte. As in
``tests/digest_ledger.py``, the commands run in a fresh interpreter, where
``asas`` pins one BLAS thread before numpy loads; run alone, this file
prints the pairs of files that differ:

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

import numpy as np
import pytest

from asas.cli import COMMANDS, main
from asas.corpus import (
    LogProbMatrix, dump_logprobs, load_logprobs, parse_dataset, serialize_dataset,
)
from asas.mathutil import log_softmax

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


def _same_files(a: str, b: str) -> list[str]:
    """``a/name != b/name`` for each file of either directory that the other
    lacks or holds other bytes of."""
    names = sorted({p.name for d in (a, b) for p in Path(d).iterdir()})
    return [f"{a}/{n} != {b}/{n}" for n in names
            if not (Path(a, n).is_file() and Path(b, n).is_file())
            or Path(a, n).read_bytes() != Path(b, n).read_bytes()]


def all_prompts_is_each_prompt() -> list[str]:
    rows = parse_dataset(Path("toydata/train.tsv").read_bytes())
    rows += parse_dataset(Path("toydata/test.tsv").read_bytes())
    Path("toydata/prompt_2.txt").write_text("Explain how a gradient drives diffusion.")
    rng = np.random.default_rng(3)
    for pid in (1, 2):
        own = [r for r in rows if r.prompt_id == pid]
        for i in range(2):
            logits = rng.normal(size=(len(own), 3))
            logits[np.arange(len(own)), [r.score1 for r in own]] += 1.0 + i
            logprobs = dict(zip((r.id for r in own), log_softmax(logits, axis=1)))
            member = LogProbMatrix(f"member{i}", pid, 3, logprobs)
            Path(f"mem{i}_{pid}.tsv").write_bytes(dump_logprobs(member))
    given = "--data toydata/train.tsv --test toydata/test.tsv"
    commands = {  # {p} stands for the prompt's part of each per-prompt path
        "tf": "train-features {given} --prompt-text toydata/prompt_{p}.txt --epochs 3",
        "pred": "predict {given} --prompt-text toydata/prompt_{p}.txt"
                " --model tf_all/prompt_{p}/model.txt",
        "ens": "ensemble {given} --members mem0_{p}.tsv mem1_{p}.tsv",
    }
    differ = []
    for name, command in commands.items():
        _asas(command.format(given=given, p="{prompt}") + f" --all-prompts --out {name}_all")
        for pid in (1, 2):
            out = f"{name}_{pid}" + ("/predictions.tsv" if name == "pred" else "")
            _asas(command.format(given=given, p=pid) + f" --prompt {pid} --out {out}")
            differ += _same_files(f"{name}_all/prompt_{pid}", f"{name}_{pid}")
    return differ


def predict_gives_tunes_rows() -> list[str]:
    _asas(f"tune --config toydata/asas.conf --prompt 1 --trials 2 --epochs 3 {FEATURES}"
          " --out tuned")
    _asas(f"predict --config toydata/asas.conf --prompt 1 {FEATURES} --model tuned/model.txt"
          " --out predicted.tsv")
    kept, again = (load_logprobs(Path(p).read_bytes()).rows
                   for p in ("tuned/predictions.tsv", "predicted.tsv"))
    if kept.keys() != again.keys():
        return [f"ids differ: {sorted(kept.keys() ^ again.keys())}"]
    return [f"row {rid} differs by {gap}" for rid in kept
            if (gap := float(np.max(np.abs(kept[rid] - again[rid])))) > 1e-9]


PROPERTIES = {
    "a": kept_trial_is_train_features,
    "b": other_prompts_change_nothing,
    "c": line_endings_and_comments_change_nothing,
    "d": config_equals_flags,
    "e": all_prompts_is_each_prompt,
    "f": predict_gives_tunes_rows,
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


def test_all_prompts_writes_what_each_prompt_alone_writes(differ):
    assert differ["e"] == []


def test_predict_with_tunes_model_gives_tunes_rows(differ):
    assert differ["f"] == []


if __name__ == "__main__":
    print(json.dumps(run()))
