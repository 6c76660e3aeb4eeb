"""Hostile inputs: any input file cut short, or with one byte replaced, ends in
an exit code (0, 2, 3 or 4), never an escaped exception, and a failed
command leaves its --out untouched."""
from __future__ import annotations

import contextlib
import io
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asas.cli import main
from asas.corpus import dump_logprobs, serialize_dataset
from conftest import PROMPT_TEXT, make_toy_responses, noisy_member

_TRAIN = ["--prompt", "1", "--epochs", "1", "--hidden", "8", "--tfidf-dim", "8"]
# bytes that carry a format's structure, drawn beside any byte at all
_STRUCTURE = b"\t\n\r#,=.-+0e\xff"


def _quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A valid file of each input kind, and a command that reads it. In each
    command the kind's file is named by its path and --out by "OUT"."""
    d = tmp_path_factory.mktemp("hostile")
    pool = make_toy_responses(prompt_id=1, n=40, k=3, seed=0)
    test = make_toy_responses(prompt_id=1, n=12, k=3, seed=2, start_id=9_000)
    ids = [r.id for r in pool + test]
    gold = np.array([r.score1 for r in pool + test])
    rng = np.random.default_rng(0)
    contents = {
        "train.tsv": serialize_dataset(pool).decode(),
        "test.tsv": serialize_dataset(test).decode(),
        "unscored.tsv": "Id\tEssaySet\tEssayText\n"
        + "".join(f"{r.id}\t{r.prompt_id}\t{r.text}\n" for r in test),
        "solution.csv": "id,essay_score\n" + "".join(f"{r.id},{r.score1}\n" for r in test),
        "prompt.txt": PROMPT_TEXT,
        "embeddings.tsv": "#dim=3\n" + "".join(
            rid + "\t" + "\t".join(repr(float(v)) for v in rng.normal(size=3)) + "\n"
            for rid in ids
        ),
    }
    for i in range(2):
        member = noisy_member(f"m{i}", ids, gold, 3, seed=40 + i)
        contents[f"m{i}.tsv"] = dump_logprobs(member).decode()
    f = {name: str(d / name) for name in [*contents, "ens.conf", "run/model.txt"]}
    for name, text in contents.items():
        (d / name).write_text(text)
    (d / "ens.conf").write_text(
        f"data = {f['train.tsv']}\ntest = {f['test.tsv']}\nprompt = 1\n"
        f"members = {f['m0.tsv']} {f['m1.tsv']}\nm = 1\ndev_frac = 0.25\nseed = 3\n"
    )
    assert main([
        "train-features", "--data", f["train.tsv"], "--prompt-text", f["prompt.txt"],
        "--embeddings", f["embeddings.tsv"], *_TRAIN, "--out", str(d / "run"),
    ]) == 0
    ensemble = [
        "ensemble", "--data", f["train.tsv"], "--prompt", "1",
        "--members", f["m0.tsv"], f["m1.tsv"], "--out", "OUT",
    ]
    stack = [*ensemble, "--test", f["test.tsv"]]
    train = [
        "train-features", "--data", f["train.tsv"], "--prompt-text", f["prompt.txt"],
        *_TRAIN, "--out", "OUT",
    ]
    predict = [
        "predict", "--data", f["train.tsv"], "--test", f["test.tsv"], "--prompt", "1",
        "--embeddings", f["embeddings.tsv"], "--model", f["run/model.txt"], "--out", "OUT",
    ]
    report = str(d / "run" / "report_dev.tsv")
    commands = {
        "dataset": (f["train.tsv"], train),
        "test": (f["test.tsv"], stack),
        "solution": (
            f["solution.csv"],
            [*ensemble, "--test", f["unscored.tsv"], "--solution", f["solution.csv"]],
        ),
        "config": (f["ens.conf"], ["ensemble", "--config", f["ens.conf"], "--out", "OUT"]),
        "prompt text": (f["prompt.txt"], train),
        "embeddings": (f["embeddings.tsv"], predict),
        "members": (f["m0.tsv"], stack),
        "model": (f["run/model.txt"], predict),
        "report": (report, ["report", "--out", "OUT", report]),
    }
    for kind, (_, argv) in commands.items():
        assert _quiet_main([str(d / f"valid {kind}") if a == "OUT" else a for a in argv]) == 0
    return d, commands, itertools.count()


@pytest.mark.parametrize("kind", [
    "dataset", "test", "solution", "config", "prompt text", "embeddings", "members", "model",
    "report",
])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_cut_or_changed_file_ends_in_an_exit_code(workspace, kind, data):
    root, commands, runs = workspace
    path, argv = commands[kind]
    valid = Path(path).read_bytes()
    at = data.draw(st.integers(0, len(valid) - 1), label="at")
    if data.draw(st.booleans(), label="cut"):
        hostile = valid[:at]
    else:
        byte = data.draw(st.sampled_from(_STRUCTURE) | st.integers(0, 255), label="byte")
        hostile = valid[:at] + bytes([byte]) + valid[at + 1:]
    n = next(runs)
    mutated, out = root / f"hostile_{n}", root / f"out_{n}"
    mutated.write_bytes(hostile)
    code = _quiet_main([
        str(mutated) if a == path else str(out) if a == "OUT" else a for a in argv
    ])
    assert code in (0, 2, 3, 4)
    if code != 0:
        assert not out.exists()
