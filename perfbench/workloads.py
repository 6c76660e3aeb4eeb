"""The three benchmark workloads: their set-up, timed repetition and output checks.

Every command goes through ``asas.cli.main`` in this process; one-answer
scoring calls ``features.extract_features`` -> ``learners.mlp_forward``
(or ``ensemble.score_ensemble`` with the saved stacker on ``stack``)
through the module attributes, so a traced run sees those calls too. Inputs come from gen.py; the program
always gets ``--seed 7``. Command, loop and set-up times are wall times
at reference speed (speed.py).
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import time
from pathlib import Path

import numpy as np

import asas.cli
import asas.ensemble
import asas.features
import asas.learners
from asas.corpus import load_embeddings, load_logprobs, parse_dataset
from asas.ensemble import EnsembleSpec
from asas.hyperopt import feature_search_space, read_study_log
from asas.mathutil import log_softmax
from asas.metrics import qwk
from asas.serialize import Artifact
from speed import SpeedClock

PROGRAM_SEED = "7"
K = 4
PROBE_ANSWERS = 200  # one-answer scorings per repetition: >= 10 samples beyond p95


class Bench:
    """Operation tally and artifact digests of one run."""

    def __init__(self, layout: dict, work: Path):
        self.layout = layout
        self.sizes = layout["sizes"]
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None
        self.tracer = None  # set while a traced repetition runs
        self.clock = SpeedClock()

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, what: str, fn) -> None:
        """Run one output check; an exception counts as a failed check."""
        try:
            ok = bool(fn())
        except Exception as exc:  # a broken artifact is a finding, not a crash
            ok = False
            what = f"{what}: {type(exc).__name__}: {exc}"
        self.op(ok, what)

    def cli(self, argv: list) -> float:
        """Run one `asas` command in-process; return its wall time at reference speed."""
        argv = [str(a) for a in argv]
        sink = io.StringIO()
        span = (self.tracer.span("cli." + argv[0].replace("-", "_"))
                if self.tracer else contextlib.nullcontext())
        start = self.clock.start()
        with span, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = asas.cli.main(argv)
        wall = self.clock.stop(start)
        self.op(code == 0, f"asas {argv[0]} exited {code}: {sink.getvalue().strip()[-300:]}")
        return wall

    def record_digests(self, paths: list[Path]) -> None:
        """Digest every artifact; a digest that moves between repetitions fails."""
        now = {
            str(p): hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else "missing"
            for p in paths
        }
        if self.digests is not None:
            for name, value in now.items():
                self.op(self.digests.get(name) == value, f"digest of {name} changed between repetitions")
        self.digests = now


def dataset_rows(path: str) -> list[tuple[str, int, int | None, str]]:
    """(id, prompt, score or None, text) of a dataset file gen.py wrote."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    labelled = "Score1" in lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        cells = line.split("\t")
        rows.append((cells[0], int(cells[1]), int(cells[2]) if labelled else None, cells[-1]))
    return rows


def _mean_qwk(table: Path) -> float:
    for line in table.read_text(encoding="utf-8").splitlines():
        if line.startswith("mean\t"):
            return float(line.split("\t")[1])
    raise ValueError(f"no mean row in {table}")


def _one_at_a_time(b: Bench, items: list, fn) -> tuple[list[float], list]:
    """Call ``fn`` on each item in a closed loop; unscaled latencies and the results.

    The first item also runs once untimed before the loop: the cold first
    call after a model load belongs to set-up, not to the steady latency.
    A reference job of the speed clock that lands inside a call is taken
    out of that call's latency.
    """
    fn(items[0])
    raw, results = [], []
    for item in items:
        start, ticks = time.perf_counter(), b.clock.ticks_s()
        results.append(fn(item))
        raw.append(time.perf_counter() - start - (b.clock.ticks_s() - ticks))
    return raw, results


def _probe_feature_model(b: Bench, model_path: Path, answers, embeddings) -> tuple[list[float], dict, float]:
    """Load the model and score answers one at a time (extract -> forward -> log-softmax).

    Returns per-answer latencies and the segment's wall time, both at
    reference speed, and the scores by answer id.
    """
    start = b.clock.start()
    spec, mlp = asas.cli.load_feature_model(model_path)

    def score(r):
        feats = asas.features.extract_features([r], spec, embeddings)
        return log_softmax(asas.learners.mlp_forward(mlp, feats.data), axis=1)[0]

    raw, rows = _one_at_a_time(b, answers, score)
    wall = b.clock.stop(start)
    return [x * b.clock.factor for x in raw], {r.id: row for r, row in zip(answers, rows)}, wall


def _check_probe(b: Bench, rows: dict, batch: Path) -> None:
    """One-answer scores are finite and equal to the batch command's rows."""
    for rid, row in rows.items():
        b.op(bool(np.all(np.isfinite(row))), f"one-answer score of {rid} is not finite")
    predicted = load_logprobs(batch.read_bytes()).rows
    b.check("one-answer scores match the batch", lambda: all(
        np.allclose(row, predicted[rid], rtol=0, atol=1e-9) for rid, row in rows.items()))


# --- tune: tune -> predict -> ensemble --m 2 -> report ------------------------


def tune_rep(b: Bench) -> dict:
    lay, w = b.layout, b.work
    common = ["--data", lay["data"], "--test", lay["test"], "--prompt", "1", "--seed", PROGRAM_SEED]
    model, features_tsv = w / "run" / "model.txt", w / "run" / "features.tsv"
    answers = parse_dataset(Path(lay["test"]).read_bytes()) + parse_dataset(Path(lay["data"]).read_bytes())
    answers = answers[:PROBE_ANSWERS]
    half = len(answers) // 2
    embeddings = load_embeddings(Path(lay["embeddings"]).read_bytes())
    walls = {"tune": b.cli(["tune", *common, "--embeddings", lay["embeddings"],
                            "--prompt-text", lay["prompt_text"], "--trials", b.sizes["tune_trials"],
                            "--epochs", b.sizes["tune_epochs"], "--out", w / "run"])}
    # The one-answer probe is split around predict, so slow spells of the
    # machine weigh on its percentiles about as much as on wall_s.
    latencies, rows, _ = _probe_feature_model(b, model, answers[:half], embeddings)
    walls["predict"] = b.cli(["predict", *common, "--model", model, "--embeddings", lay["embeddings"],
                              "--prompt-text", lay["prompt_text"], "--out", features_tsv])
    more, more_rows, _ = _probe_feature_model(b, model, answers[half:], embeddings)
    walls["ensemble"] = b.cli(["ensemble", *common, "--m", "2",
                               "--members", *lay["members"], features_tsv, "--out", w / "ens"])
    walls["report"] = b.cli(["report", "--seed", PROGRAM_SEED, "--out", w / "table.tsv",
                             w / "ens" / "report_test.tsv"])
    _check_probe(b, rows | more_rows, features_tsv)
    n_rows = len(load_logprobs(features_tsv.read_bytes()).rows)
    return {"wall": sum(walls.values()), "commands": walls, "latencies": latencies + more,
            "rows_per_s": n_rows / walls["predict"]}


def tune_checks(b: Bench, rep: dict) -> float:
    w = b.work
    train_ids = {r[0] for r in dataset_rows(b.layout["data"])}
    test_ids = {r[0] for r in dataset_rows(b.layout["test"])}
    study = read_study_log((w / "run" / "study.tsv").read_text(encoding="utf-8"), feature_search_space())
    b.op(len(study) == b.sizes["tune_trials"], f"study.tsv holds {len(study)} trials")
    for t in study:
        b.op(t.status == "completed", f"TPE trial {t.trial_index} {t.status}")
    b.check("model.txt reloads", lambda: asas.cli.load_feature_model(w / "run" / "model.txt"))
    b.check("features.tsv covers train, dev and test", lambda: set(
        load_logprobs((w / "run" / "features.tsv").read_bytes()).rows) == train_ids | test_ids)
    b.check("ensemble.txt reloads with 2 members", lambda: len(
        Artifact.load(w / "ens" / "ensemble.txt", "ensemble-spec").tables["members"]) == 2)
    b.check("ensemble predictions cover the test split", lambda: set(
        load_logprobs((w / "ens" / "predictions.tsv").read_bytes()).rows) == test_ids)
    b.record_digests([
        w / "run" / "study.tsv", w / "run" / "model.txt", w / "run" / "history.tsv",
        w / "run" / "report_dev.tsv", w / "run" / "features.tsv", w / "ens" / "ensemble.txt",
        w / "ens" / "report_dev.tsv", w / "ens" / "predictions.tsv", w / "ens" / "report_test.tsv",
        w / "table.tsv",
    ])
    return _mean_qwk(w / "table.tsv")


# --- score: fit once (set-up), then score fresh answers -----------------------


def score_setup(b: Bench) -> float:
    """Fit the model with fixed hyperparameters and load it; return the wall time at reference speed."""
    lay, w = b.layout, b.work
    wall = b.cli(["train-features", "--data", lay["data"], "--prompt", "1", "--seed", PROGRAM_SEED,
                  "--prompt-text", lay["prompt_text"], "--tfidf-dim", "100", "--cutoff", "0.8",
                  "--lr", "0.01", "--batch", "8", "--epochs", "20", "--out", w / "model"])
    start = b.clock.start()
    b.check("model.txt reloads", lambda: asas.cli.load_feature_model(w / "model" / "model.txt"))
    return wall + b.clock.stop(start)


def score_rep(b: Bench) -> dict:
    lay, w = b.layout, b.work
    model, predictions = w / "model" / "model.txt", w / "predictions.tsv"
    answers = parse_dataset(Path(lay["fresh"]).read_bytes())
    predict_wall = b.cli(["predict", "--data", lay["fresh"], "--prompt", "1", "--seed", PROGRAM_SEED,
                          "--model", model, "--prompt-text", lay["prompt_text"], "--out", predictions])
    latencies, rows, loop_wall = _probe_feature_model(b, model, answers, None)
    _check_probe(b, rows, predictions)
    batch = load_logprobs(predictions.read_bytes()).rows
    b.check("predict covers every fresh answer", lambda: set(batch) == {r.id for r in answers})
    return {"wall": loop_wall + predict_wall, "commands": {"predict": predict_wall},
            "latencies": latencies, "rows_per_s": len(batch) / predict_wall,
            "labels": {rid: int(np.argmax(row)) for rid, row in rows.items()}}


def score_checks(b: Bench, rep: dict) -> float:
    gold = {r[0]: r[2] for r in dataset_rows(b.layout["fresh"])}
    ids = sorted(gold)
    b.record_digests([
        b.work / "model" / "model.txt", b.work / "model" / "history.tsv",
        b.work / "model" / "report_dev.tsv", b.work / "predictions.tsv",
    ])
    return qwk([gold[i] for i in ids], [rep["labels"][i] for i in ids], K)


# --- stack: ensemble --m 3 per prompt, then one report ------------------------


def stack_rep(b: Bench) -> dict:
    lay, w = b.layout, b.work
    prompts = range(1, len(lay["members"]) + 1)
    walls, rows, latencies = {}, 0, []
    for p in prompts:
        out = w / "ens" / f"p{p}"
        walls[f"ensemble_{p}"] = b.cli([
            "ensemble", "--data", lay["data"], "--test", lay["test"], "--solution", lay["solution"],
            "--prompt", p, "--seed", PROGRAM_SEED, "--m", "3", "--members", *lay["members"][p - 1],
            "--out", out])
        batch = load_logprobs((out / "predictions.tsv").read_bytes()).rows
        rows += len(batch)
        # One-answer scoring with this prompt's saved stacker, spread over the
        # repetition like the ensemble calls, and checked against the batch.
        spec = EnsembleSpec.from_artifact(Artifact.load(out / "ensemble.txt", "ensemble-spec"))
        members = [load_logprobs(Path(m).read_bytes()) for m in lay["members"][p - 1]]
        ids = list(batch)[:PROBE_ANSWERS]
        start = b.clock.start()
        raw, labels = _one_at_a_time(b, ids, lambda rid: asas.ensemble.score_ensemble(spec, members, [rid])[0])
        b.clock.stop(start)
        latencies += [x * b.clock.factor for x in raw]
        for rid, label in zip(ids, labels):
            b.op(int(label[0]) == int(batch[rid].argmax()), f"stacker score of {rid} differs from the batch")
    ensemble_wall = sum(walls.values())
    walls["report"] = b.cli(["report", "--seed", PROGRAM_SEED, "--out", w / "table.tsv",
                             *[w / "ens" / f"p{p}" / "report_test.tsv" for p in prompts]])
    return {"wall": sum(walls.values()), "commands": walls, "latencies": latencies,
            "rows_per_s": rows / ensemble_wall}


def stack_checks(b: Bench, rep: dict) -> float:
    w = b.work
    test_ids: dict[int, set] = {}
    for rid, prompt, _, _ in dataset_rows(b.layout["test"]):
        test_ids.setdefault(prompt, set()).add(rid)
    artifacts = [w / "table.tsv"]
    for p in range(1, len(b.layout["members"]) + 1):
        out = w / "ens" / f"p{p}"
        b.check(f"prompt {p} ensemble.txt reloads with 3 members", lambda: len(
            Artifact.load(out / "ensemble.txt", "ensemble-spec").tables["members"]) == 3)
        b.check(f"prompt {p} predictions cover its test rows", lambda: set(
            load_logprobs((out / "predictions.tsv").read_bytes()).rows) == test_ids[p])
        artifacts += [out / n for n in ("ensemble.txt", "report_dev.tsv", "predictions.tsv", "report_test.tsv")]
    rows = [ln for ln in (w / "table.tsv").read_text(encoding="utf-8").splitlines()
            if ln and not ln.startswith(("#", "prompt\t"))]
    b.op(len(rows) == len(b.layout["members"]) + 1, f"report table has {len(rows)} rows")
    b.record_digests(artifacts)
    return _mean_qwk(w / "table.tsv")


# name -> (set-up or None, timed repetition, output checks returning the QWK)
WORKLOADS = {
    "tune": (None, tune_rep, tune_checks),
    "score": (score_setup, score_rep, score_checks),
    "stack": (None, stack_rep, stack_checks),
}
