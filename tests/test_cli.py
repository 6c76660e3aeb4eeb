"""End-to-end command wiring: exit codes, artifacts, determinism."""
from __future__ import annotations

import argparse
from collections import Counter
import inspect
import io
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import asas.cli
import asas.features
import asas.learners
from asas.cli import OPTIONS, load_config_file, main, load_feature_model
from asas.corpus import (
    ScoredResponse,
    build_corpus,
    dump_logprobs,
    load_logprobs,
    parse_dataset,
    prompt_seed,
    serialize_dataset,
)
from asas.ensemble import EnsembleSpec
from asas.errors import AsasError, HeaderMismatch, NonFiniteLoss
from asas.features import FeatureModelSpec
from asas.hyperopt import Uniform
from asas.mathutil import logsumexp
from asas.metrics import EvalReport
from asas.serialize import Artifact, artifact_header, digest
from conftest import make_toy_responses, noisy_member, PROMPT_TEXT


@pytest.fixture
def workspace(tmp_path):
    """Toy dataset (2 prompts), labeled test file, prompt text."""
    pool = make_toy_responses(prompt_id=1, n=60, k=3, seed=0)
    pool += make_toy_responses(prompt_id=2, n=50, k=3, seed=1, start_id=5_000)
    test = make_toy_responses(prompt_id=1, n=16, k=3, seed=2, start_id=9_000)
    data = tmp_path / "train.tsv"
    data.write_bytes(serialize_dataset(pool))
    test_file = tmp_path / "test.tsv"
    test_file.write_bytes(serialize_dataset(test))
    prompt_file = tmp_path / "prompt.txt"
    prompt_file.write_text(PROMPT_TEXT)
    return {
        "dir": tmp_path,
        "data": data,
        "test": test_file,
        "prompt_text": prompt_file,
        "pool": pool,
        "test_rows": test,
    }


def _member_files(workspace, n_members=3, drop_id=None):
    """Write member log-prob files covering every id of prompt 1."""
    rows = [r for r in workspace["pool"] if r.prompt_id == 1] + workspace["test_rows"]
    ids = [r.id for r in rows]
    gold = np.array([r.score1 for r in rows])
    paths = []
    for i in range(n_members):
        member = noisy_member(f"m{i}", ids, gold, 3, seed=40 + i, strength=0.9 + 0.3 * i)
        if drop_id is not None and i == 0:
            del member.rows[drop_id]
        path = workspace["dir"] / f"member_{i}.tsv"
        path.write_bytes(dump_logprobs(member))
        paths.append(str(path))
    return paths


class TestIngestAndStats:
    def test_ingest_prints_counts(self, workspace, capsys):
        assert main(["ingest", "--data", str(workspace["data"])]) == 0
        out = capsys.readouterr().out
        assert "1\t60" in out and "2\t50" in out
        assert out.startswith("#asas\tversion=")

    def test_stats_writes_per_prompt_rows(self, workspace, capsys):
        out_file = workspace["dir"] / "stats.tsv"
        code = main([
            "stats", "--data", str(workspace["data"]),
            "--dev-frac", "0.2", "--seed", "7", "--out", str(out_file),
        ])
        assert code == 0
        body = out_file.read_text()
        lines = [ln for ln in body.splitlines() if ln and not ln.startswith("#")]
        assert lines[0].startswith("prompt\t")
        assert len(lines) == 3  # header + one row per prompt
        assert lines[1].split("\t")[0] == "1"
        assert lines[2].split("\t")[0] == "2"

    def test_stats_without_prompt_leaves_the_options_unchanged(self, workspace, capsys):
        args = asas.cli.build_parser().parse_args(["stats", "--data", str(workspace["data"])])
        ctx = asas.cli._Ctx(args)
        before = dict(vars(ctx))
        asas.cli.cmd_stats(ctx)
        assert len(capsys.readouterr().out.splitlines()) == 4  # header, columns, two prompts
        assert vars(ctx).keys() == before.keys()
        assert all(vars(ctx)[name] is value for name, value in before.items())
        assert ctx.prompt is None and ctx.all_prompts is False

    def test_stats_out_creates_its_directory(self, workspace):
        out_file = workspace["dir"] / "nodir" / "stats.tsv"
        assert main(["stats", "--data", str(workspace["data"]), "--out", str(out_file)]) == 0
        assert out_file.read_text().splitlines()[1].startswith("prompt\t")

    def test_missing_file_exits_2_naming_path(self, workspace, capsys):
        code = main(["stats", "--data", str(workspace["dir"] / "absent.tsv")])
        assert code == 2
        assert "absent.tsv" in capsys.readouterr().err

    def test_stats_matches_library_split(self, workspace, capsys):
        main([
            "stats", "--data", str(workspace["data"]),
            "--prompt", "1", "--dev-frac", "0.25", "--seed", "3",
        ])
        out = capsys.readouterr().out
        row = [ln for ln in out.splitlines() if ln.startswith("1\t")][0]
        corpus = build_corpus(
            [r for r in workspace["pool"] if r.prompt_id == 1],
            prompt_id=1, dev_fraction=0.25, seed=prompt_seed(3, 1),
        )
        n_train, n_dev = int(row.split("\t")[1]), int(row.split("\t")[2])
        assert (n_train, n_dev) == (len(corpus.train), len(corpus.dev))


class TestIngestOut:
    def test_canonical_output_parses_back_identically(self, workspace):
        out_file = workspace["dir"] / "canonical.tsv"
        assert main([
            "ingest", "--data", str(workspace["data"]), "--out", str(out_file),
        ]) == 0
        assert parse_dataset(out_file.read_bytes()) == workspace["pool"]


class TestSplit:
    def test_all_prompts_writes_one_directory_each(self, workspace):
        out_dir = workspace["dir"] / "allsplits"
        assert main([
            "split", "--data", str(workspace["data"]), "--all-prompts",
            "--dev-frac", "0.2", "--seed", "5", "--out", str(out_dir),
        ]) == 0
        for pid, total in [(1, 60), (2, 50)]:
            train = parse_dataset((out_dir / f"prompt_{pid}" / "train.tsv").read_bytes())
            dev = parse_dataset((out_dir / f"prompt_{pid}" / "dev.tsv").read_bytes())
            assert len(train) + len(dev) == total

    def test_writes_disjoint_partition(self, workspace):
        out_dir = workspace["dir"] / "splits"
        code = main([
            "split", "--data", str(workspace["data"]), "--prompt", "1",
            "--dev-frac", "0.2", "--seed", "5", "--out", str(out_dir),
        ])
        assert code == 0
        train = parse_dataset((out_dir / "train.tsv").read_bytes())
        dev = parse_dataset((out_dir / "dev.tsv").read_bytes())
        assert len(train) + len(dev) == 60
        assert not {r.id for r in train} & {r.id for r in dev}


    def test_bad_row_of_a_split_file_names_the_file_and_its_line(self, workspace, capsys):
        out_dir = workspace["dir"] / "split_bad"
        assert main([
            "split", "--data", str(workspace["data"]), "--prompt", "1", "--out", str(out_dir),
        ]) == 0
        train = out_dir / "train.tsv"
        lines = train.read_text().splitlines(keepends=True)
        assert lines[0].startswith("#asas\t")  # line 1 is the artifact header comment
        lines[4] = lines[4].rstrip("\n") + "\textra\n"
        train.write_text("".join(lines))
        assert main(["ingest", "--data", str(train)]) == 2
        assert f"asas: {train}: row 5: expected 5 fields, got 6" in capsys.readouterr().err


class TestTrainPredict:
    def test_train_features_emits_model_and_report(self, workspace, capsys):
        out_dir = workspace["dir"] / "feat"
        code = main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--seed", "3", "--epochs", "4", "--tfidf-dim", "10",
            "--cutoff", "0.8", "--lr", "0.002", "--batch", "8",
            "--prompt-text", str(workspace["prompt_text"]),
            "--out", str(out_dir),
        ])
        assert code == 0
        spec, mlp = load_feature_model(out_dir / "model.txt")
        assert spec.d_t == 10
        report_lines = (out_dir / "report_dev.tsv").read_text().splitlines()
        assert report_lines[0].startswith("#asas\tversion=")
        assert "seed=3" in report_lines[0]
        report = EvalReport.from_tsv_row(report_lines[2])
        assert report.prompt_id == 1
        history = (out_dir / "history.tsv").read_text()
        assert history.count("\n") == 4 + 2  # header comment + columns + 4 epochs

    def test_predict_emits_loadable_renormalized_logprobs(self, workspace):
        model_dir = workspace["dir"] / "feat2"
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--seed", "3", "--epochs", "2", "--tfidf-dim", "6",
            "--out", str(model_dir),
        ]) == 0
        pred_file = workspace["dir"] / "features.logprobs.tsv"
        assert main([
            "predict", "--model", str(model_dir / "model.txt"),
            "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--prompt", "1", "--seed", "3", "--out", str(pred_file),
        ]) == 0
        matrix = load_logprobs(pred_file.read_bytes())
        assert matrix.model_name == "features"
        assert matrix.k == 3
        expected_ids = {r.id for r in workspace["pool"] if r.prompt_id == 1}
        expected_ids |= {r.id for r in workspace["test_rows"]}
        assert set(matrix.rows) == expected_ids
        stacked = np.array(list(matrix.rows.values()))
        assert np.max(np.abs(logsumexp(stacked, axis=1))) <= 1e-6

    def test_truncated_model_exits_2(self, workspace, capsys):
        model_dir = workspace["dir"] / "feat3"
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--seed", "3", "--epochs", "1", "--tfidf-dim", "6", "--out", str(model_dir),
        ]) == 0
        text = (model_dir / "model.txt").read_text()
        lines = text.splitlines(keepends=True)
        cuts = {
            f"after line {n}": "".join(lines[:n])
            for n in (1, 2, 3, 5, 10, len(lines) // 2, len(lines) - 2, len(lines) - 1)
        }
        cuts["inside the last number"] = text[:-3]
        cut_file = workspace["dir"] / "cut_model.txt"
        for where, cut_text in cuts.items():
            cut_file.write_text(cut_text)
            assert main([
                "predict", "--model", str(cut_file), "--data", str(workspace["data"]),
                "--prompt", "1", "--out", str(workspace["dir"] / "cut.tsv"),
            ]) == 2, f"model cut {where}"
            assert "asas:" in capsys.readouterr().err

    def test_fuzzy_ratios_run_once_per_prompt(self, workspace, monkeypatch):
        calls = []
        real = asas.features.fuzzy_ratios

        def counted(*args, **kwargs):
            calls.append(len(args[0]))
            return real(*args, **kwargs)

        monkeypatch.setattr(asas.features, "fuzzy_ratios", counted)
        assert main([
            "train-features", "--data", str(workspace["data"]), "--all-prompts",
            "--seed", "3", "--epochs", "1", "--tfidf-dim", "6",
            "--out", str(workspace["dir"] / "once"),
        ]) == 0
        assert calls == [60, 50]  # each prompt's train and dev rows, in one pass

    def test_spec_state_is_built_once_per_spec(self, workspace, monkeypatch):
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--seed", "3", "--epochs", "1", "--tfidf-dim", "6",
            "--prompt-text", str(workspace["prompt_text"]), "--out", str(workspace["dir"] / "st"),
        ]) == 0
        calls = {"_gram_tables": 0, "minutiae_substrings": 0}
        for name in calls:
            real = getattr(asas.features, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(asas.features, name, counted)
        spec, _ = load_feature_model(workspace["dir"] / "st" / "model.txt")
        assert calls == {"_gram_tables": 0, "minutiae_substrings": 0}  # derived when it scores
        answers = [r for r in workspace["pool"] if r.prompt_id == 1][:50]
        for r in answers:
            asas.features.extract_features([r], spec)
        assert calls == {"_gram_tables": 1, "minutiae_substrings": 1}
        # tune: each prompt's builder builds one for its scoring pass; the
        # trials' specs never score, so they build none
        assert main([
            "tune", "--data", str(workspace["data"]), "--all-prompts", "--seed", "3",
            "--trials", "3", "--epochs", "1", "--out", str(workspace["dir"] / "st_tune"),
        ]) == 0
        assert calls == {"_gram_tables": 3, "minutiae_substrings": 3}

    def _two_models(self, workspace):
        paths = []
        for name, cutoff in (("a", "0.8"), ("b", "0.5")):
            out = workspace["dir"] / f"model_{name}"
            assert main([
                "train-features", "--data", str(workspace["data"]), "--prompt", "1",
                "--seed", "3", "--epochs", "2", "--tfidf-dim", "6", "--cutoff", cutoff,
                "--lr", "0.05", "--out", str(out),
            ]) == 0
            paths.append(out / "model.txt")
        return paths

    def _predict(self, workspace, model, out):
        return main([
            "predict", "--model", str(model), "--data", str(workspace["data"]),
            "--prompt", "1", "--seed", "3", "--out", str(out),
        ])

    def test_predict_reads_the_model_once(self, workspace, monkeypatch):
        model, _ = self._two_models(workspace)
        opened = []
        real_open = io.open

        def counted_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and os.path.abspath(file) == str(model):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counted_open)
        monkeypatch.setattr("builtins.open", counted_open)
        out = workspace["dir"] / "once.tsv"
        assert self._predict(workspace, model, out) == 0
        assert len(opened) == 1
        header = out.read_text().splitlines()[1]
        assert f"{model}:{digest(model.read_bytes())}" in header

    def test_predict_uses_the_bytes_its_header_names(self, workspace, monkeypatch):
        model, other = self._two_models(workspace)
        want = workspace["dir"] / "want.tsv"
        assert self._predict(workspace, model, want) == 0
        original = model.read_bytes()
        real_read = asas.cli._Ctx.read_input

        def read_then_replace(ctx, path):
            data = real_read(ctx, path)
            if str(path) == str(model):
                model.write_bytes(other.read_bytes())  # replaced right after the read
            return data

        monkeypatch.setattr(asas.cli._Ctx, "read_input", read_then_replace)
        got = workspace["dir"] / "got.tsv"
        assert self._predict(workspace, model, got) == 0
        assert model.read_bytes() != original
        assert got.read_bytes() == want.read_bytes()

    def test_failed_rename_keeps_previous_model(self, workspace, monkeypatch):
        out_dir = workspace["dir"] / "atomic"
        base = [
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--epochs", "2", "--tfidf-dim", "6", "--out", str(out_dir),
        ]
        assert main(base + ["--seed", "3"]) == 0
        before = (out_dir / "model.txt").read_bytes()

        def refuse(src, dst):
            raise OSError(f"rename refused: {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        assert main(base + ["--seed", "4"]) == 2
        assert (out_dir / "model.txt").read_bytes() == before
        assert not list(out_dir.glob("*.tmp"))


def _files_under(root: Path) -> dict[str, bytes]:
    """The bytes of every file under ``root``, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestCommitStep:
    """A command writes its files, or a prompt's, together: a write that fails
    part-way exits 2 and leaves every file as it was, with no ``.tmp`` left."""

    @pytest.mark.parametrize("command, args", [
        ("train-features", ["--prompt", "1", "--epochs", "2", "--tfidf-dim", "6"]),
        ("tune", ["--prompt", "1", "--trials", "2", "--epochs", "2"]),
        ("split", ["--all-prompts"]),
        ("ensemble", ["--all-prompts", "--members"]),  # the members follow
    ], ids=["train-features", "tune", "split", "ensemble"])
    def test_the_kth_failed_write_leaves_every_file_as_it_was(
        self, workspace, monkeypatch, command, args
    ):
        if command == "ensemble":
            args = args + _per_prompt_members(workspace) + ["--test", str(workspace["test"])]

        def run(out, seed):
            return main([command, "--data", str(workspace["data"]), *args,
                         "--out", str(out), "--seed", seed])

        out, fresh = workspace["dir"] / "out", workspace["dir"] / "fresh"
        assert run(out, "3") == 0
        before = _files_under(out)
        real, tmp_writes, fail_at = Path.write_bytes, [], [None]

        def write_bytes(path, data):
            if path.name.endswith(".tmp"):
                tmp_writes.append(path)
                if len(tmp_writes) == fail_at[0]:
                    raise OSError(f"no space left writing {path.name}")
            return real(path, data)

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        assert run(workspace["dir"] / "counted", "4") == 0
        assert len(tmp_writes) == len(before) >= 4
        for k in range(1, len(before) + 1):
            for where, was in ((out, before), (fresh, {})):
                tmp_writes.clear()
                fail_at[0] = k
                assert run(where, "4") == 2, k
                assert _files_under(where) == was, k
        fail_at[0] = None
        assert run(out, "4") == 0
        after = _files_under(out)
        assert after.keys() == before.keys()
        assert all(after[name] != before[name] for name in after)


class TestTrainingOptions:
    @pytest.fixture
    def built(self, monkeypatch):
        """The arguments, defaults included, of each CachedFeatureBuilder made."""
        built = []
        real_init = asas.features.CachedFeatureBuilder.__init__

        def counted_init(self, *args, **kwargs):
            bound = inspect.signature(real_init).bind(self, *args, **kwargs)
            bound.apply_defaults()
            built.append(bound.arguments)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(asas.features.CachedFeatureBuilder, "__init__", counted_init)
        return built

    @pytest.mark.parametrize("command, flag", [
        ("train-features", "--lr"),
        ("train-features", "--batch"),
        ("train-features", "--epochs"),
        ("train-features", "--hidden"),
        ("train-features", "--tfidf-dim"),
        ("tune", "--epochs"),
        ("tune", "--hidden"),
        ("tune", "--trials"),
    ])
    def test_a_value_below_one_exits_2_before_featurising(
        self, workspace, built, capsys, command, flag
    ):
        out = workspace["dir"] / "bad"
        assert main([
            command, "--data", str(workspace["data"]), "--prompt", "1", "--epochs", "2",
            *(["--trials", "2"] if command == "tune" else []), flag, "0", "--out", str(out),
        ]) == 2
        assert f"{flag} must be positive, got 0" in capsys.readouterr().err
        assert not built and not out.exists()

    def test_an_infinite_learning_rate_exits_2_before_featurising(
        self, workspace, built, capsys
    ):
        out = workspace["dir"] / "bad_lr"
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--epochs", "2", "--lr", "inf", "--out", str(out),
        ]) == 2
        assert "--lr must be finite, got inf" in capsys.readouterr().err
        assert not built and not out.exists()

    @pytest.mark.parametrize("cutoff", ["0.3", "1.5", "nan"])
    def test_a_cutoff_outside_its_range_exits_2_before_featurising(
        self, workspace, built, capsys, cutoff
    ):
        out = workspace["dir"] / "bad_cutoff"
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--cutoff", cutoff, "--out", str(out),
        ]) == 2
        assert f"--cutoff must be in [0.5, 1.0], got {float(cutoff)}" in capsys.readouterr().err
        assert not built and not out.exists()

    @pytest.mark.parametrize("command", ["train-features", "tune"])
    def test_a_negative_seed_exits_2_before_featurising(self, workspace, built, capsys, command):
        out = workspace["dir"] / "bad_seed"
        assert main([
            command, "--data", str(workspace["data"]), "--prompt", "1", "--epochs", "1",
            "--seed", "-1", "--out", str(out),
        ]) == 2
        assert "asas: --seed must be non-negative, got -1" in capsys.readouterr().err
        assert not built and not out.exists()

    @pytest.mark.parametrize(
        "command", ["ingest", "stats", "split", "predict", "ensemble", "report"]
    )
    def test_a_negative_seed_exits_2_before_reading(self, tmp_path, monkeypatch, capsys, command):
        # a prompt's split seed is --seed plus its id, and random.Random(-s) draws
        # what random.Random(s) does: --seed -3 would split prompt 1 as --seed 1 does
        monkeypatch.setattr(asas.cli._Ctx, "read_input", lambda *a: pytest.fail("read"))
        monkeypatch.chdir(tmp_path)
        assert main([command, *_REQUIRED_SET[command], "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "asas: --seed must be non-negative, got -3\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("frac", ["0", "1", "-0.5", "nan"])
    @pytest.mark.parametrize("command", ["stats", "split", "tune"])
    def test_a_dev_frac_outside_its_range_exits_2_before_reading(
        self, workspace, monkeypatch, capsys, command, frac
    ):
        monkeypatch.setattr(asas.cli, "parse_dataset", lambda *a, **kw: pytest.fail("parsed"))
        out = workspace["dir"] / "bad_frac"
        assert main([
            command, "--data", str(workspace["data"]), "--prompt", "1", "--dev-frac", frac,
            "--out", str(out),
        ]) == 2
        assert f"asas: --dev-frac must be in (0, 1), got {float(frac)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["split"],
        ["train-features", "--epochs", "1"],
        ["tune", "--trials", "2", "--epochs", "1"],
        ["predict", "--all-prompts", "--model", "m_{prompt}.txt"],
        ["ensemble", "--members", "mem.tsv"],
    ], ids=lambda argv: argv[0])
    def test_a_missing_out_exits_2_before_any_work(
        self, workspace, built, monkeypatch, capsys, argv
    ):
        trained = []
        monkeypatch.setattr(asas.cli, "train_early_stop", lambda *a, **kw: trained.append(1))
        monkeypatch.setattr(asas.cli, "parse_dataset", lambda *a, **kw: pytest.fail("parsed"))
        command, *extra = argv
        prompt = [] if "--all-prompts" in extra else ["--prompt", "1"]
        assert main([command, "--data", str(workspace["data"]), *prompt, *extra]) == 2
        assert "asas: --out is required" in capsys.readouterr().err
        assert not built and not trained

    def test_tune_fits_its_builder_to_the_search_space(self, workspace, built, monkeypatch):
        space = asas.cli.feature_search_space()
        high = {**space, "cutoff": Uniform(0.7, 1.0)}
        monkeypatch.setattr(asas.cli, "feature_search_space", lambda: high)
        assert main([
            "tune", "--data", str(workspace["data"]), "--prompt", "1", "--trials", "1",
            "--epochs", "1", "--out", str(workspace["dir"] / "tune_high"),
        ]) == 0
        assert [(b["d_t_max"], b["floor"]) for b in built] == [(300, 0.7)]


class TestTune:
    @pytest.mark.parametrize("seed, hits", [("7", "every trial"), ("2", "a 9-row batch")])
    def test_a_bug_in_training_propagates(self, workspace, monkeypatch, seed, hits):
        # a numpy shape error is a bug, not a failed trial
        real_grads, batches = asas.learners._mlp_grads, []

        def buggy_grads(params, X, labels):
            batches.append(X.shape[0])
            if hits == "every trial" or X.shape[0] == 9:
                params = [params[0][:-1], *params[1:]]
            return real_grads(params, X, labels)

        monkeypatch.setattr(asas.learners, "_mlp_grads", buggy_grads)
        out = workspace["dir"] / "tune_bug"
        with pytest.raises(ValueError, match="matmul"):
            main([
                "tune", "--data", str(workspace["data"]), "--prompt", "1", "--trials", "4",
                "--epochs", "1", "--hidden", "8", "--seed", seed, "--out", str(out),
            ])
        assert not out.exists()
        if hits == "a 9-row batch":
            assert set(batches) - {9}  # trials without one ran before the bug surfaced

    def test_five_trials_emit_all_artifacts(self, workspace):
        out_dir = workspace["dir"] / "tuned"
        code = main([
            "tune", "--data", str(workspace["data"]), "--prompt", "1",
            "--trials", "5", "--seed", "11", "--epochs", "3",
            "--out", str(out_dir),
        ])
        assert code == 0
        study = (out_dir / "study.tsv").read_text()
        rows = [ln for ln in study.splitlines() if ln and not ln.startswith("#")]
        assert rows[0] == "trial\tbatch_size\tlearning_rate\ttfidf_dim\tcutoff\tobjective\tstatus"
        assert len(rows) == 1 + 5
        assert (out_dir / "model.txt").is_file()
        assert (out_dir / "report_dev.tsv").is_file()

    def test_train_file_without_a_score2_column(self, workspace):
        data = workspace["dir"] / "one_read.tsv"
        rows = ["Id\tEssaySet\tScore1\tEssayText"] + [
            f"{r.id}\t{r.prompt_id}\t{r.score1}\t{r.text}" for r in workspace["pool"]
        ]
        data.write_text("\n".join(rows) + "\n")
        out_dir = workspace["dir"] / "tune_one_read"
        assert main([
            "tune", "--data", str(data), "--prompt", "1",
            "--trials", "2", "--seed", "11", "--epochs", "2", "--out", str(out_dir),
        ]) == 0
        assert (out_dir / "model.txt").is_file()

    def test_rerun_is_byte_identical(self, workspace):
        args = [
            "tune", "--data", str(workspace["data"]), "--prompt", "1",
            "--trials", "5", "--seed", "11", "--epochs", "3",
        ]
        out_a = workspace["dir"] / "tune_a"
        out_b = workspace["dir"] / "tune_b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert (out_a / "study.tsv").read_bytes() == (out_b / "study.tsv").read_bytes()
        assert (out_a / "model.txt").read_bytes() == (out_b / "model.txt").read_bytes()

    def test_best_trial_is_saved_without_retraining(self, workspace, monkeypatch):
        calls = []
        real_train, real_study = asas.cli.train_early_stop, asas.cli.run_study

        def counted_train(*args, **kwargs):
            calls.append(1)
            return real_train(*args, **kwargs)

        studies = []

        def kept_study(*args, **kwargs):
            studies.append(real_study(*args, **kwargs))
            return studies[-1]

        monkeypatch.setattr(asas.cli, "train_early_stop", counted_train)
        monkeypatch.setattr(asas.cli, "run_study", kept_study)
        out_dir = workspace["dir"] / "tune_once"
        assert main([
            "tune", "--data", str(workspace["data"]), "--prompt", "1",
            "--trials", "5", "--seed", "11", "--epochs", "3", "--out", str(out_dir),
        ]) == 0
        assert len(calls) == 5

        best = studies[0].best.params
        pool = [r for r in workspace["pool"] if r.prompt_id == 1]
        corpus = build_corpus(pool, prompt_id=1, dev_fraction=0.2, seed=prompt_seed(11, 1))
        _, matrix = asas.features.CachedFeatureBuilder(corpus).build(
            int(best["tfidf_dim"]), float(best["cutoff"])
        )
        retrained = asas.cli._train_once(
            corpus, matrix, lr=float(best["learning_rate"]), batch=int(best["batch_size"]),
            epochs=3, seed=11, hidden=OPTIONS["hidden"].default,
        )
        _, saved = load_feature_model(out_dir / "model.txt")
        want = retrained.model.to_arrays()
        got = saved.to_arrays()
        assert sorted(got) == sorted(want)
        assert all(np.array_equal(got[name], want[name]) for name in want)


def _data_lines(path) -> list[str]:
    """A log-probability file without its '#asas' header, which names the command's inputs."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#asas")]


def _rows_by_id(path) -> tuple[str, dict[str, str]]:
    """A log-probability file's first line and each row's text by its id, whatever their order."""
    first, *rows = _data_lines(path)
    return first, dict(row.split("\t", 1) for row in rows)


class TestMemberFile:
    """train-features and tune write the member file that predict writes on their model."""

    def _predict(self, workspace, run_dir, *extra):
        out = run_dir / "predict.tsv"
        assert main([
            "predict", "--model", str(run_dir / "model.txt"), "--data", str(workspace["data"]),
            "--test", str(workspace["test"]), "--prompt", "1", "--seed", "3",
            "--prompt-text", str(workspace["prompt_text"]), *extra, "--out", str(out),
        ]) == 0
        return out

    def test_train_features_writes_what_predict_writes(self, workspace):
        conf = workspace["dir"] / "named.conf"
        conf.write_text("name = fm\n")
        run = workspace["dir"] / "tf_member"
        assert main([
            "train-features", "--config", str(conf), "--data", str(workspace["data"]),
            "--test", str(workspace["test"]), "--prompt", "1", "--seed", "3", "--epochs", "3",
            "--tfidf-dim", "6", "--prompt-text", str(workspace["prompt_text"]),
            "--out", str(run),
        ]) == 0
        saved = run / "predictions.tsv"
        assert saved.read_text().startswith("#model=fm\tprompt=1\tk=3\n#asas\t")
        assert _rows_by_id(saved) == _rows_by_id(self._predict(workspace, run, "--name", "fm"))
        ids = {r.id for r in workspace["pool"] if r.prompt_id == 1}
        ids |= {r.id for r in workspace["test_rows"]}
        assert set(load_logprobs(saved.read_bytes()).rows) == ids

    def test_tune_writes_what_predict_writes_below_the_rank(self, workspace, monkeypatch):
        # The toy corpus's TF-IDF rank (48) is under the search's 100..300,
        # so narrow the dimension until every trial projects below the rank,
        # to widths where slicing a wider product rounds differently.
        space = asas.cli.feature_search_space()
        narrow = {**space, "tfidf_dim": Uniform(2, 4, scale="int")}
        monkeypatch.setattr(asas.cli, "feature_search_space", lambda: narrow)
        run = workspace["dir"] / "tune_member"
        assert main([
            "tune", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--prompt", "1", "--seed", "3", "--trials", "3", "--epochs", "3",
            "--prompt-text", str(workspace["prompt_text"]), "--out", str(run),
        ]) == 0
        spec, _ = load_feature_model(run / "model.txt")
        assert spec.d_t <= 4
        saved = run / "predictions.tsv"
        assert load_logprobs(saved.read_bytes()).model_name == "features"
        assert _rows_by_id(saved) == _rows_by_id(self._predict(workspace, run))


@pytest.fixture
def mixed_k(tmp_path):
    """Two prompts scored 0..2 and 0..3, and a model trained on each."""
    pool = make_toy_responses(prompt_id=1, n=60, k=3, seed=0)
    pool += make_toy_responses(prompt_id=2, n=60, k=4, seed=1, start_id=5_000)
    data = tmp_path / "train.tsv"
    data.write_bytes(serialize_dataset(pool))
    models = tmp_path / "models"
    assert main([
        "train-features", "--data", str(data), "--all-prompts", "--seed", "3",
        "--epochs", "2", "--tfidf-dim", "6", "--out", str(models),
    ]) == 0
    return tmp_path, data, models


class TestPredictPerPrompt:
    def _predict(self, data, model, out, *prompts):
        return main([
            "predict", "--data", str(data), "--seed", "3", *prompts,
            "--model", str(model), "--out", str(out),
        ])

    def test_all_prompts_expands_the_model_placeholder(self, mixed_k):
        root, data, models = mixed_k
        out_all = root / "pred_all"
        pattern = models / "prompt_{prompt}" / "model.txt"
        assert self._predict(data, pattern, out_all, "--all-prompts") == 0
        for pid, k in ((1, 3), (2, 4)):
            got = out_all / f"prompt_{pid}" / "predictions.tsv"
            assert load_logprobs(got.read_bytes()).k == k
            # the same bytes as a single-prompt run on the expanded path, header included
            single = root / f"pred_{pid}.tsv"
            model = models / f"prompt_{pid}" / "model.txt"
            assert self._predict(data, model, single, "--prompt", str(pid)) == 0
            assert got.read_bytes() == single.read_bytes()

    def test_all_prompts_without_placeholder_exits_2_before_writing(self, mixed_k, capsys):
        root, data, models = mixed_k
        model, out = models / "prompt_1" / "model.txt", root / "pred_fixed"
        assert self._predict(data, model, out, "--all-prompts") == 2
        err = capsys.readouterr().err
        assert "{prompt}" in err and str(model) in err
        assert not out.exists()

    def test_another_prompts_model_exits_2_without_writing(self, mixed_k, capsys):
        root, data, models = mixed_k
        out = root / "pred_2.tsv"
        model = models / "prompt_1" / "model.txt"
        assert self._predict(data, model, out, "--prompt", "2") == 2
        err = capsys.readouterr().err
        assert err == f"asas: {model}: model is for prompt 1, not prompt 2\n"
        assert not out.exists()


@pytest.fixture
def model_1(workspace):
    """The workspace and a feature model trained on its prompt 1."""
    out = workspace["dir"] / "model_1"
    assert main([
        "train-features", "--data", str(workspace["data"]), "--prompt", "1", "--seed", "3",
        "--epochs", "1", "--tfidf-dim", "6", "--out", str(out),
    ]) == 0
    return workspace, out / "model.txt"


class TestPredictScoresWhatItIsGiven:
    """predict scores the prompt's --data rows in file order, then its --test
    rows: it neither splits them nor reads a label."""

    def _predict(self, model, out, *argv):
        return main(["predict", "--model", str(model), *argv, "--out", str(out)])

    @pytest.mark.parametrize("case", ["rows that lack a class", "one unlabelled row"])
    def test_answers_passed_alone(self, model_1, case):
        workspace, model = model_1
        fresh = make_toy_responses(prompt_id=1, n=30, k=3, seed=5, start_id=7_000)
        if case == "rows that lack a class":
            rows = [r for r in fresh if r.score1 != 2][:20][::-1]  # not in id order
        else:
            rows = [ScoredResponse(id="7000", prompt_id=1, text=fresh[0].text)]
        data, out = workspace["dir"] / "fresh.tsv", workspace["dir"] / "fresh_pred.tsv"
        data.write_bytes(serialize_dataset(rows))
        assert self._predict(model, out, "--data", str(data), "--prompt", "1") == 0
        assert list(load_logprobs(out.read_bytes()).rows) == [r.id for r in rows]

    def test_data_rows_then_test_rows_without_a_split(self, model_1, monkeypatch):
        workspace, model = model_1
        monkeypatch.setattr(asas.cli, "build_corpus", lambda *a, **kw: pytest.fail("split"))
        out = workspace["dir"] / "in_order.tsv"
        assert self._predict(
            model, out, "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--prompt", "1",
        ) == 0
        want = [r.id for r in workspace["pool"] if r.prompt_id == 1]
        want += [r.id for r in workspace["test_rows"]]
        assert list(load_logprobs(out.read_bytes()).rows) == want

    def test_no_split_or_label_option(self, model_1, capsys):
        names = asas.cli.COMMANDS["predict"][2].split()
        assert "dev_frac" not in names and "solution" not in names
        workspace, model = model_1
        for flag, value in (("--dev-frac", "0.2"), ("--solution", str(workspace["test"]))):
            argv = ["--data", str(workspace["data"]), "--prompt", "1", flag, value]
            assert self._predict(model, workspace["dir"] / "no.tsv", *argv) == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["an id in --data and --test", "no rows of the prompt"])
    def test_exits_2_without_writing(self, model_1, capsys, case):
        workspace, model = model_1
        data, pid, says = workspace["data"], "3", "prompt 3: no responses"
        if case == "an id in --data and --test":
            data, pid = workspace["test"], "1"
            says = "prompt 1: --data and --test ids are not disjoint"
        out = workspace["dir"] / "refused.tsv"
        argv = ["--data", str(data), "--test", str(workspace["test"]), "--prompt", pid]
        assert self._predict(model, out, *argv) == 2
        assert capsys.readouterr().err == f"asas: {says}\n"
        assert not out.exists()

    def test_another_prompts_model_of_the_same_class_count(self, model_1, capsys):
        workspace, model = model_1
        assert {r.score1 for r in workspace["pool"] if r.prompt_id == 2} == {0, 1, 2}
        out = workspace["dir"] / "pred_2.tsv"
        assert self._predict(model, out, "--data", str(workspace["data"]), "--prompt", "2") == 2
        assert capsys.readouterr().err == f"asas: {model}: model is for prompt 1, not prompt 2\n"
        assert not out.exists()
        assert load_feature_model(model)[0].prompt_id == 1


def _prompt_2_only_in_test(workspace) -> Path:
    """The workspace directory, holding one.tsv, prompt 1's answers, and
    both.tsv, the test answers and five of prompt 2."""
    d = workspace["dir"]
    (d / "one.tsv").write_bytes(
        serialize_dataset([r for r in workspace["pool"] if r.prompt_id == 1])
    )
    test = workspace["test_rows"] + make_toy_responses(
        prompt_id=2, n=5, k=3, seed=3, start_id=9_500
    )
    (d / "both.tsv").write_bytes(serialize_dataset(test))
    return d


class TestEveryPromptTheInputsName:
    """--all-prompts, and stats without --prompt, cover every prompt that a row
    of --data or --test names: predict scores a prompt only --test holds, and a
    command that splits refuses it before any work."""

    def test_predict_scores_a_prompt_only_test_holds(self, mixed_k):
        root, _, models = mixed_k
        one, two = root / "one.tsv", root / "two_test.tsv"
        one.write_bytes(serialize_dataset(make_toy_responses(prompt_id=1, n=20, k=3, seed=4)))
        fresh = make_toy_responses(prompt_id=2, n=5, k=4, seed=5, start_id=8_000)
        two.write_bytes(serialize_dataset(fresh))
        argv = ["predict", "--data", str(one), "--test", str(two)]
        out = root / "pout"
        model = models / "prompt_{prompt}" / "model.txt"
        assert main([*argv, "--all-prompts", "--model", str(model), "--out", str(out)]) == 0
        got = out / "prompt_2" / "predictions.tsv"
        assert list(load_logprobs(got.read_bytes()).rows) == [r.id for r in fresh]
        single = root / "pred_2.tsv"
        model = models / "prompt_2" / "model.txt"
        assert main([*argv, "--prompt", "2", "--model", str(model), "--out", str(single)]) == 0
        assert got.read_bytes() == single.read_bytes()

    @pytest.mark.parametrize("command", ["stats", "train-features", "tune", "ensemble"])
    def test_a_command_that_splits_refuses_it(self, workspace, monkeypatch, capsys, command):
        for name in ("fit_feature_model", "CachedFeatureBuilder", "fit_ensemble", "corpus_stats"):
            monkeypatch.setattr(asas.cli, name, lambda *a, **kw: pytest.fail("worked"))
        d = _prompt_2_only_in_test(workspace)
        extra = {
            "stats": [],  # every prompt without --prompt
            "train-features": ["--all-prompts"],
            "tune": ["--all-prompts"],
            "ensemble": ["--all-prompts", "--members", *_per_prompt_members(workspace)],
        }[command]
        out = d / "refused"
        assert main([
            command, "--data", str(d / "one.tsv"), "--test", str(d / "both.tsv"),
            *extra, "--out", str(out),
        ]) == 2
        assert capsys.readouterr() == ("", "asas: prompt 2: no responses\n")
        assert not out.exists()


class TestOnePassPerPrompt:
    """Each prompt's rows are checked, and its split made, before any of its
    files is read; so faults are reported prompt by prompt, in id order."""

    @pytest.mark.parametrize("command", ["ensemble", "train-features", "tune"])
    def test_a_prompt_without_answers_is_named_before_its_missing_files(
        self, workspace, capsys, command
    ):
        d = _prompt_2_only_in_test(workspace)
        members = _per_prompt_members(workspace)
        (d / "prompt_1.txt").write_text(PROMPT_TEXT)
        for i in range(2):
            (d / f"m{i}_p2.tsv").unlink()  # prompt 1's files alone exist
        files = {
            "ensemble": ["--members", *members],
            "train-features": ["--prompt-text", str(d / "prompt_{prompt}.txt")],
            "tune": ["--prompt-text", str(d / "prompt_{prompt}.txt")],
        }[command]
        out = d / "refused"
        assert main([
            command, "--data", str(d / "one.tsv"), "--test", str(d / "both.tsv"),
            "--all-prompts", *files, "--out", str(out),
        ]) == 2
        assert capsys.readouterr() == ("", "asas: prompt 2: no responses\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--members", "--prompt-text"])
    def test_a_bad_file_of_prompt_1_comes_before_a_missing_file_of_prompt_2(
        self, workspace, capsys, flag
    ):
        d, out = workspace["dir"], workspace["dir"] / "refused"
        if flag == "--members":
            paths = _per_prompt_members(workspace)
            with open(d / "m0_p1.tsv", "a") as f:
                f.write("bogus\t0.5\n")
            command = "ensemble"
        else:
            paths = [str(d / "prompt_{prompt}.txt")]
            (d / "prompt_1.txt").write_bytes(b"not utf-8: \xff\n")
            (d / "prompt_2.txt").write_text(PROMPT_TEXT)
            command = "tune"
        bad, missing = (Path(paths[0].replace("{prompt}", str(pid))) for pid in (1, 2))
        missing.unlink()
        assert main([
            command, "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--all-prompts", flag, *paths, "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"asas: {bad}: ") and "missing file" not in err
        assert not out.exists()


class TestOnlyScoringCommandsReadTheSolution:
    """Only stats (which checks the join) and ensemble (which scores against it)
    take --solution; train-features and tune read no test label."""

    def test_which_commands_take_it(self):
        takes = {c for c, entry in asas.cli.COMMANDS.items() if "solution" in entry[2].split()}
        assert takes == {"stats", "ensemble"}

    @pytest.mark.parametrize("command", ["train-features", "tune"])
    def test_a_training_command_refuses_the_flag(self, workspace, capsys, command):
        solution, out = workspace["dir"] / "solution.csv", workspace["dir"] / "refused"
        solution.write_text(
            "id,essay_score\n" + "".join(f"{r.id},{r.score1}\n" for r in workspace["test_rows"])
        )
        assert main([
            command, "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--solution", str(solution), "--prompt", "1", "--out", str(out),
        ]) == 2
        assert "unrecognized arguments: --solution" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-features", "tune"])
    def test_a_training_command_ignores_the_config_key(self, workspace, command):
        d = workspace["dir"]
        keys = f"data = {workspace['data']}\ntest = {workspace['test']}\n"
        (d / "plain.conf").write_text(keys)
        (d / "labels.conf").write_text(keys + f"solution = {d / 'missing.csv'}\n")
        own = {"train-features": ["--tfidf-dim", "6"], "tune": ["--trials", "1"]}[command]
        outputs = []
        for conf in ("plain.conf", "labels.conf"):
            out = d / conf.replace(".", "_")
            assert main([
                command, "--config", str(d / conf), "--prompt", "1", "--epochs", "1", *own,
                "--out", str(out),
            ]) == 0
            outputs.append(_files_under(out))
        assert outputs[0] == outputs[1] and outputs[0]


def _embedding_table(rows, seed: int) -> str:
    rng = np.random.default_rng(seed)
    return "#dim=4\n" + "".join(
        r.id + "\t" + "\t".join(repr(float(v)) for v in rng.normal(size=4)) + "\n" for r in rows
    )


class TestPerPromptTextAndEmbeddings:
    """--prompt-text and --embeddings follow the {prompt} rule of --model and --members."""

    TEXTS = {1: PROMPT_TEXT, 2: "Explain why the leaves of a tree change colour in autumn."}

    @pytest.fixture
    def files(self, workspace):
        d = workspace["dir"]
        rows = workspace["pool"] + workspace["test_rows"]
        for pid, text in self.TEXTS.items():
            (d / f"prompt_{pid}.txt").write_text(text)
            (d / f"emb_{pid}.tsv").write_text(
                _embedding_table([r for r in rows if r.prompt_id == pid], seed=pid)
            )
        (d / "emb_both.tsv").write_text(_embedding_table(rows, seed=3))
        return ["--prompt-text", str(d / "prompt_{prompt}.txt"),
                "--embeddings", str(d / "emb_{prompt}.tsv")]

    def _tune(self, workspace, out, *extra):
        return main([
            "tune", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--seed", "5", "--trials", "2", "--epochs", "2", "--out", str(out), *extra,
        ])

    def test_tune_all_prompts_equals_each_single_prompt_run(self, workspace, files):
        out_all = workspace["dir"] / "tune_all"
        assert self._tune(workspace, out_all, "--all-prompts", *files) == 0
        for pid, text in self.TEXTS.items():
            single = workspace["dir"] / f"tune_{pid}"
            expanded = [f.replace("{prompt}", str(pid)) for f in files]
            assert self._tune(workspace, single, "--prompt", str(pid), *expanded) == 0
            names = sorted(p.name for p in single.iterdir())
            assert names == sorted(p.name for p in (out_all / f"prompt_{pid}").iterdir())
            assert {"model.txt", "predictions.tsv", "study.tsv"} <= set(names)
            for name in names:
                assert (out_all / f"prompt_{pid}" / name).read_bytes() == (
                    single / name).read_bytes(), (pid, name)
            spec, _ = load_feature_model(single / "model.txt")
            assert spec.prompt_minutiae == asas.features.normalize_text(text)
            assert spec.embedding_dim == 4

    def test_each_all_prompts_header_names_the_shared_inputs_and_its_own_files(
        self, workspace, files
    ):
        d, out = workspace["dir"], workspace["dir"] / "tf_all"
        shared = [str(workspace["data"]), str(workspace["test"])]
        assert main([
            "train-features", "--data", shared[0], "--test", shared[1], "--all-prompts",
            "--seed", "5", "--epochs", "1", "--tfidf-dim", "6", "--out", str(out), *files,
        ]) == 0
        for pid in self.TEXTS:
            inputs = [*shared, str(d / f"prompt_{pid}.txt"), str(d / f"emb_{pid}.tsv")]
            want = artifact_header(5, {p: digest(Path(p).read_bytes()) for p in inputs})
            for name in ("model.txt", "history.tsv", "report_dev.tsv"):
                assert (out / f"prompt_{pid}" / name).read_text().splitlines()[0] == want

    def test_each_per_prompt_file_is_loaded_once(self, workspace, files, monkeypatch):
        loaded = Counter()
        for name in ("load_embeddings", "load_logprobs"):
            def counting(data, corpus, real=getattr(asas.cli, name)):
                loaded[data] += 1
                return real(data, corpus)

            monkeypatch.setattr(asas.cli, name, counting)
        common = ["--data", str(workspace["data"]), "--test", str(workspace["test"]),
                  "--all-prompts"]
        members = _per_prompt_members(workspace)
        assert main(["ensemble", *common, "--members", *members,
                     "--out", str(workspace["dir"] / "ens")]) == 0
        assert self._tune(workspace, workspace["dir"] / "tune", "--all-prompts", *files) == 0
        paths = [p.replace("{prompt}", str(pid)) for p in [*members, files[3]] for pid in (1, 2)]
        assert loaded == Counter(Path(p).read_bytes() for p in paths)

    @pytest.mark.parametrize("flag, name", [
        ("--prompt-text", "prompt_1.txt"),
        ("--embeddings", "emb_both.tsv"),  # covers both prompts' ids, yet one table per prompt
    ])
    def test_all_prompts_with_a_fixed_path_exits_2_before_writing(
        self, workspace, files, capsys, flag, name
    ):
        path, out = workspace["dir"] / name, workspace["dir"] / "fixed"
        assert self._tune(workspace, out, "--all-prompts", flag, str(path)) == 2
        err = capsys.readouterr().err
        assert f"{flag} path {path} has no {{prompt}} placeholder" in err
        assert not out.exists()

    def test_a_missing_per_prompt_file_exits_2_before_writing(self, workspace, files, capsys):
        (workspace["dir"] / "prompt_2.txt").unlink()
        out = workspace["dir"] / "one_text_missing"
        assert self._tune(workspace, out, "--all-prompts", *files) == 2
        assert f"missing file: {workspace['dir'] / 'prompt_2.txt'}" in capsys.readouterr().err
        assert not out.exists()

    def test_stats_split_and_ensemble_do_not_read_the_prompt_text(self, workspace, capsys):
        conf = workspace["dir"] / "text.conf"
        conf.write_text(
            f"data = {workspace['data']}\ntest = {workspace['test']}\nprompt_text = nope.txt\n"
        )
        out = workspace["dir"] / "no_text"
        out.mkdir()
        members = _member_files(workspace, n_members=1)
        for argv in (
            ["stats", "--out", str(out / "stats.tsv")],
            ["split", "--prompt", "1", "--out", str(out / "split")],
            ["ensemble", "--prompt", "1", "--members", *members, "--out", str(out / "ens")],
        ):
            assert main([argv[0], "--config", str(conf), *argv[1:]]) == 0, argv[0]
        for path in (out / "stats.tsv", out / "split" / "train.tsv", out / "ens" / "report_dev.tsv"):
            header = path.read_text().splitlines()[0]
            assert "inputs=" in header and "nope.txt" not in header


class TestByteOrderMark:
    """An input saved with a UTF-8 byte-order mark reads as without one; its
    digest in an output header is still that of its bytes."""

    def test_ingest(self, workspace, capsys):
        data = workspace["dir"] / "bom.tsv"
        data.write_bytes(b"\xef\xbb\xbf" + workspace["data"].read_bytes())
        assert main(["ingest", "--data", str(workspace["data"])]) == 0
        want = capsys.readouterr().out.splitlines()
        assert main(["ingest", "--data", str(data)]) == 0
        got = capsys.readouterr().out.splitlines()
        assert got[1:] == want[1:]
        assert f"{data}:{digest(data.read_bytes())}" in got[0]

    def test_ensemble_member(self, workspace, capsys):
        members = _member_files(workspace, n_members=2)
        bom = workspace["dir"] / "member_bom.tsv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(members[0]).read_bytes())
        outs = {}
        for name, first in (("plain", members[0]), ("bom", str(bom))):
            outs[name] = workspace["dir"] / f"ens_{name}"
            assert main([
                "ensemble", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
                "--prompt", "1", "--seed", "7", "--members", first, members[1],
                "--out", str(outs[name]),
            ]) == 0
        for file in ("ensemble.txt", "predictions.tsv", "report_dev.tsv", "report_test.tsv"):
            assert _data_lines(outs["bom"] / file) == _data_lines(outs["plain"] / file), file
        header = (outs["bom"] / "report_test.tsv").read_text().splitlines()[0]
        assert f"{bom}:{digest(bom.read_bytes())}" in header

    def test_predict_model(self, workspace):
        base = ["--data", str(workspace["data"]), "--test", str(workspace["test"]), "--prompt", "1"]
        fit = workspace["dir"] / "fit"
        assert main(["train-features", *base, "--epochs", "2", "--out", str(fit)]) == 0
        bom = workspace["dir"] / "model_bom.txt"
        bom.write_bytes(b"\xef\xbb\xbf" + (fit / "model.txt").read_bytes())
        outs = {}
        for name, model in (("plain", fit / "model.txt"), ("bom", bom)):
            outs[name] = workspace["dir"] / f"pred_{name}.tsv"
            assert main(["predict", *base, "--model", str(model), "--out", str(outs[name])]) == 0
        assert _data_lines(outs["bom"]) == _data_lines(outs["plain"])
        assert f"{bom}:{digest(bom.read_bytes())}" in outs["bom"].read_text()


def _answers(rng: random.Random, vocab: list[str], n: int, start: int) -> list[ScoredResponse]:
    """``n`` answers of 25-55 words drawn with Zipf weights from ``vocab``; the
    score (0-3) is how many of three key words an answer holds."""
    keys, fillers = vocab[:3], vocab[3:]
    weights = [1.0 / (rank + 2.7) for rank in range(len(fillers))]
    out = []
    for i in range(n):
        score = i % 4
        words = rng.choices(fillers, weights, k=rng.randint(25, 55) - score) + keys[:score]
        rng.shuffle(words)
        out.append(ScoredResponse(str(start + i), 1, " ".join(words) + ".", score, score))
    return out


class TestBlasThreads:
    """The command runs at one BLAS thread whatever the environment asks for:
    with two, OpenBLAS splits the projection's SVD and the products, and their
    rounding, by thread, so the artifacts would depend on the core count."""

    def test_outputs_are_byte_equal_at_one_and_two_threads(self, tmp_path):
        rng = random.Random(5)
        syllables = [c + v for c in "bcdfghklmnprstvw" for v in "aeiou"]
        vocab = sorted({"".join(rng.choices(syllables, k=rng.randint(1, 4))) for _ in range(4000)})
        rng.shuffle(vocab)
        inputs = {
            "train.tsv": serialize_dataset(_answers(rng, vocab, 260, 0)),  # 208 train answers
            "test.tsv": serialize_dataset(_answers(rng, vocab, 40, 10_000)),
        }
        src = str(Path(asas.cli.__file__).parents[1])
        outputs = {}
        for threads in ("1", "2"):
            run = tmp_path / f"threads_{threads}"
            run.mkdir()
            for name, data in inputs.items():
                (run / name).write_bytes(data)
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            for argv in (
                ["train-features", "--data", "train.tsv", "--prompt", "1", "--epochs", "2",
                 "--out", "out"],
                ["predict", "--data", "train.tsv", "--test", "test.tsv", "--prompt", "1",
                 "--model", "out/model.txt", "--out", "out/test_predictions.tsv"],
            ):
                done = subprocess.run([sys.executable, "-m", "asas.cli", *argv], cwd=run, env=env,
                                      capture_output=True, text=True)
                assert done.returncode == 0, done.stderr
            outputs[threads] = _files_under(run / "out")
        assert sorted(outputs["1"]) == [
            "history.tsv", "model.txt", "predictions.tsv", "report_dev.tsv", "test_predictions.tsv"
        ]
        assert outputs["1"] == outputs["2"]


class TestInputFaults:
    """A bad input exits 2 naming its file before any work, and writes nothing."""

    @pytest.mark.parametrize("frac, half", [("0.001", "dev"), ("0.999", "train")])
    @pytest.mark.parametrize("command", ["tune", "train-features", "stats", "ensemble"])
    def test_an_empty_split(self, workspace, capsys, command, frac, half):
        out = workspace["dir"] / "empty_split"
        extra = {
            "tune": ["--trials", "2", "--epochs", "1"],
            "train-features": ["--epochs", "1"],
            "stats": [],
            "ensemble": ["--members", *_member_files(workspace, n_members=1)],
        }[command]
        assert main([
            command, "--data", str(workspace["data"]), "--prompt", "1", "--dev-frac", frac,
            "--out", str(out), *extra,
        ]) == 2
        err = capsys.readouterr().err
        assert f"prompt 1: a dev fraction of {frac} of 60 responses leaves the {half} split" in err
        assert not out.exists()

    def test_a_prompt_text_that_is_not_utf8(self, workspace, capsys):
        text, out = workspace["dir"] / "latin1.txt", workspace["dir"] / "latin1"
        text.write_bytes("Expliquez l'osmose d'une cellule \xe9".encode("latin-1"))
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--prompt-text", str(text), "--epochs", "1", "--out", str(out),
        ]) == 2
        assert f"asas: {text}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_prompt_id(self, workspace, capsys):
        # a negative id would be taken for the mean row of a report
        data, out = workspace["dir"] / "negative.tsv", workspace["dir"] / "negative"
        lines = workspace["data"].read_text().split("\n")
        fields = lines[10].split("\t")
        fields[1] = "-1"
        lines[10] = "\t".join(fields)
        data.write_text("\n".join(lines))
        assert main([
            "train-features", "--data", str(data), "--prompt", "1", "--epochs", "1",
            "--out", str(out),
        ]) == 2
        assert f"asas: {data}: row 11: prompt id -1 is negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["split", "train-features", "ensemble"])
    def test_an_id_starting_with_hash_exits_2_before_any_work(self, workspace, capsys, command):
        # with the id column second, a '#' id would start its line in the files written
        data, out = workspace["dir"] / "hash_id.tsv", workspace["dir"] / "hash_id"
        rows = [line.split("\t") for line in workspace["data"].read_text().splitlines()]
        lines = ["\t".join([f[1], f[0], *f[2:]]) for f in rows]
        lines[10] = lines[10].replace("\t", "\t#", 1)
        data.write_text("\n".join(lines) + "\n")
        extra = {
            "split": [],
            "train-features": ["--epochs", "1"],
            "ensemble": ["--members", *_member_files(workspace, n_members=1)],
        }[command]
        assert main([
            command, "--data", str(data), "--prompt", "1", "--out", str(out), *extra
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"asas: {data}: row 11: id '#9' starts with '#', which marks a comment\n"
        assert not out.exists()

    def test_an_id_column_starting_with_hash_exits_2_before_any_read(
        self, workspace, capsys, monkeypatch
    ):
        # with the id column second its name parses, but split writes it first
        data, out = workspace["dir"] / "hash_col.tsv", workspace["dir"] / "hash_col"
        rows = [line.split("\t") for line in workspace["data"].read_text().splitlines()]
        lines = ["\t".join([f[1], f[0], *f[2:]]) for f in rows]
        lines[0] = lines[0].replace("\tId\t", "\t#Id\t")
        data.write_text("\n".join(lines) + "\n")
        conf = workspace["dir"] / "hash_col.conf"
        conf.write_text("id_col = #Id\n")
        reads = []
        monkeypatch.setattr(asas.cli._Ctx, "read_input", lambda ctx, path: reads.append(path))
        assert main([
            "split", "--config", str(conf), "--data", str(data), "--prompt", "1",
            "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err == "asas: id_col must not start with '#' (a comment), got '#Id'\n"
        assert reads == [] and not out.exists()

    def test_an_allocation_beyond_the_address_space_exits_2(self, workspace, capsys):
        # 10^12 hidden units ask for petabytes, so the request fails at once
        out = workspace["dir"] / "huge"
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--tfidf-dim", "6", "--hidden", "1000000000000", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("asas: out of memory: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("kind", [
        "embeddings", "embeddings without a row", "model", "model of another width", "members"
    ])
    def test_a_bad_file_of_the_second_prompt_stops_the_first(
        self, workspace, capsys, kind
    ):
        d, out = workspace["dir"], workspace["dir"] / "per_prompt_out"
        common = ["--data", str(workspace["data"]), "--all-prompts", "--out", str(out)]
        by_prompt = {pid: [r for r in workspace["pool"] if r.prompt_id == pid] for pid in (1, 2)}
        if kind.startswith("embeddings"):
            for pid, prompt_rows in by_prompt.items():
                (d / f"emb_{pid}.tsv").write_text(_embedding_table(prompt_rows, seed=pid))
            bad, argv = d / "emb_2.tsv", ["train-features", "--epochs", "1"]
            lines = bad.read_text().splitlines()
            if kind == "embeddings":
                lines[3] = lines[3].rsplit("\t", 1)[0]  # a short row
            else:
                del lines[1]  # response 5000's row
        elif kind.startswith("model"):
            trained = d / "trained"
            assert main([
                "train-features", "--data", str(workspace["data"]), "--prompt", "1",
                "--epochs", "1", "--tfidf-dim", "6", "--out", str(trained),
            ]) == 0
            (d / "model_1.txt").write_bytes((trained / "model.txt").read_bytes())
            bad, argv = d / "model_2.txt", ["predict"]
            text = (trained / "model.txt").read_text()
            if kind == "model":
                lines = text.splitlines()
                lines = lines[: len(lines) // 2]  # truncated
            else:
                lines = _drop_last_w1_row(text).splitlines()
        else:
            for pid, prompt_rows in by_prompt.items():
                gold = np.array([r.score1 for r in prompt_rows])
                member = noisy_member("m", [r.id for r in prompt_rows], gold, 3, 9, prompt_id=pid)
                (d / f"member_{pid}.tsv").write_bytes(dump_logprobs(member))
            bad, argv = d / "member_2.tsv", ["ensemble"]
            lines = bad.read_text().splitlines()
            rid, _, *values = lines[4].split("\t")
            lines[4] = "\t".join([rid, "abc", *values])  # a non-numeric cell
        bad.write_text("\n".join(lines) + "\n")
        pattern = str(d / bad.name.replace("_2.", "_{prompt}."))
        assert main([*argv, *common, "--" + kind.split()[0], pattern]) == 2
        says = {
            "embeddings": "row 4: expected 4 values, got 3",
            "embeddings without a row": "no embedding for response '5000'",
            "model": "",
            "model of another width": "the feature spec gives ",
            "members": "row 5: non-numeric value",
        }[kind]
        assert f"asas: {bad}: {says}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_fit_error_names_its_prompt(self, workspace, capsys):
        # at --seed 1, prompt 2's 8 responses leave 2 dev rows for 3 classes
        pool = [r for r in workspace["pool"] if r.prompt_id == 1]
        pool += make_toy_responses(prompt_id=2, n=8, k=3, seed=1, start_id=5_000)
        d, out = workspace["dir"], workspace["dir"] / "small_dev"
        (d / "small.tsv").write_bytes(serialize_dataset(pool))
        for pid in (1, 2):
            rows = [r for r in pool if r.prompt_id == pid]
            gold = np.array([r.score1 for r in rows])
            member = noisy_member("m", [r.id for r in rows], gold, 3, seed=pid, prompt_id=pid)
            (d / f"small_m_{pid}.tsv").write_bytes(dump_logprobs(member))
        assert main([
            "ensemble", "--data", str(d / "small.tsv"), "--all-prompts", "--seed", "1",
            "--members", str(d / "small_m_{prompt}.tsv"), "--out", str(out),
        ]) == 2
        assert capsys.readouterr().err == "asas: prompt 2: need at least 3 rows, got 2\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", [AsasError, *AsasError.__subclasses__()])
    def test_every_asas_error_gains_the_prompt_and_keeps_its_class(self, kind):
        with pytest.raises(kind, match="^prompt 4: cannot$") as info:
            with asas.cli._naming(4):
                raise kind("cannot")
        assert type(info.value) is kind

    def test_any_other_exception_passes_unnamed(self):
        with pytest.raises(ValueError, match="^cannot$"):
            with asas.cli._naming(4):
                raise ValueError("cannot")

    @pytest.mark.parametrize("argv, says", [
        (["train-features", "--lr", "1e30", "--epochs", "1", "--tfidf-dim", "6"],
         "prompt 1: non-finite loss at epoch 1"),
        (["tune", "--dev-frac", "0.97", "--trials", "1", "--epochs", "1"],
         "prompt 1: key n-gram selection needs >= 2 score classes"),
    ], ids=["train-features", "tune"])
    def test_a_training_error_of_one_prompt_names_it(self, workspace, capsys, argv, says):
        out = workspace["dir"] / "named"
        common = ["--data", str(workspace["data"]), "--all-prompts", "--out", str(out)]
        assert main([*argv, *common]) == 2
        assert capsys.readouterr().err == f"asas: {says}\n"
        assert not out.exists()

    def test_every_trial_failing_names_its_prompt_and_exits_3(self, workspace, capsys, monkeypatch):
        def diverge(*args, **kwargs):
            raise NonFiniteLoss("non-finite loss at epoch 1")

        monkeypatch.setattr(asas.cli, "_train_once", diverge)
        out = workspace["dir"] / "all_failed"
        assert main([
            "tune", "--data", str(workspace["data"]), "--all-prompts", "--trials", "2",
            "--out", str(out),
        ]) == 3
        assert capsys.readouterr().err.startswith("asas: prompt 1: ")
        assert not out.exists()

    def test_a_stats_error_names_its_prompt(self, workspace, capsys):
        pool = [
            r if r.prompt_id == 1 else ScoredResponse(r.id, r.prompt_id, r.text, r.score1, None)
            for r in workspace["pool"]
        ]
        data = workspace["dir"] / "one_read.tsv"
        data.write_bytes(serialize_dataset(pool))
        assert main(["stats", "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"asas: prompt 2: dev response '\d+' lacks a second read\n", err)

    def test_a_dataset_column_named_twice_exits_2(self, workspace, capsys):
        data = workspace["dir"] / "twice.tsv"
        data.write_text("Id\tEssaySet\tScore1\tScore1\tEssayText\n1\t1\t1\t1\ttext\n")
        assert main(["ingest", "--data", str(data)]) == 2
        assert capsys.readouterr().err == f"asas: {data}: repeated column in header: 'Score1'\n"

    def test_a_solution_column_named_twice_exits_2(self, workspace, capsys):
        solution = workspace["dir"] / "twice.csv"
        rows = "".join(f"{r.id},{r.score1},{r.score1}\n" for r in workspace["test_rows"])
        solution.write_text("id,essay_score,Essay_Score\n" + rows)
        assert main([
            "stats", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--solution", str(solution), "--prompt", "1",
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"asas: {solution}: repeated column in header: 'essay_score'\n"

    @pytest.mark.parametrize("name", ["a\tb", "a\r", "a\nb"])
    def test_a_name_that_cannot_read_back_exits_2_before_reading(
        self, workspace, toy_model, capsys, monkeypatch, name
    ):
        root, data, _ = toy_model
        monkeypatch.setattr(asas.cli, "parse_dataset", None)  # reading would raise TypeError
        out = workspace["dir"] / "named.tsv"
        assert main([
            "predict", "--data", str(data), "--model", str(root / "model" / "model.txt"),
            "--prompt", "1", "--name", name, "--out", str(out),
        ]) == 2
        assert f"--name must not hold a tab, CR or LF, got {name!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_name_from_the_config_file_is_checked_too(self, workspace, capsys, monkeypatch):
        conf = workspace["dir"] / "named.conf"
        conf.write_text(f"data = {workspace['data']}\nname = a\tb\n")
        monkeypatch.setattr(asas.cli, "parse_dataset", None)
        out = workspace["dir"] / "named"
        assert main([
            "train-features", "--config", str(conf), "--prompt", "1", "--out", str(out),
        ]) == 2
        assert "--name must not hold a tab, CR or LF, got 'a\\tb'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["predict", "--prompt", "1", "--model", "model.txt", "--name", "\udcff"], "--name"),
        (["ensemble", "--prompt", "1", "--members", "m0.tsv", "m\udcff.tsv"], "--members"),
        (["report", "r\udcff.tsv"], "a report path"),
    ], ids=["name", "list-item", "report-path"])
    def test_a_string_that_is_not_utf8_exits_2_before_reading(
        self, workspace, capsys, monkeypatch, argv, flag
    ):
        monkeypatch.setattr(asas.cli, "parse_dataset", None)  # reading would raise TypeError
        out = workspace["dir"] / "undecodable"
        data = [] if argv[0] == "report" else ["--data", str(workspace["data"])]
        assert main([*argv, *data, "--out", str(out)]) == 2
        assert f"asas: {flag} is not valid UTF-8: " in capsys.readouterr().err
        assert not out.exists()

    def test_an_existing_input_path_that_is_not_utf8(self, workspace, capsys):
        data = workspace["dir"] / "d\udcff.tsv"  # the file name holds byte 0xff
        data.write_bytes(workspace["data"].read_bytes())
        out = workspace["dir"] / "x.tsv"
        assert main(["ingest", "--data", str(data), "--out", str(out)]) == 2
        assert "asas: --data is not valid UTF-8: " in capsys.readouterr().err
        assert not out.exists()

    def test_a_config_file_that_is_not_utf8(self, workspace, capsys):
        conf = workspace["dir"] / "latin1.conf"
        conf.write_bytes("# r\xe9glages\nseed = 3\n".encode("latin-1"))
        assert main(["stats", "--config", str(conf), "--data", str(workspace["data"])]) == 2
        assert f"asas: {conf}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err

    def test_a_member_value_that_is_not_finite(self, workspace, capsys):
        members = _member_files(workspace)
        lines = Path(members[1]).read_text().splitlines()
        rid, *values = lines[1].split("\t")
        lines[1] = "\t".join([rid, "-inf", *values[1:]])
        Path(members[1]).write_text("\n".join(lines) + "\n")
        out = workspace["dir"] / "ens_inf"
        assert main([
            "ensemble", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--prompt", "1", "--members", *members, "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert f"asas: {members[1]}: row 2: non-finite value for id {rid!r}" in err
        assert not out.exists()

    def test_an_embedding_value_that_is_not_finite(self, workspace, capsys):
        rows = [r for r in workspace["pool"] if r.prompt_id == 1]
        lines = _embedding_table(rows, seed=1).splitlines()
        lines[5] = lines[5].rsplit("\t", 1)[0] + "\tnan"
        emb, out = workspace["dir"] / "emb_nan.tsv", workspace["dir"] / "emb_nan"
        emb.write_text("\n".join(lines) + "\n")
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--embeddings", str(emb), "--epochs", "1", "--out", str(out),
        ]) == 2
        err = capsys.readouterr().err
        assert f"asas: {emb}: row 6: non-finite value for id {rows[4].id!r}" in err
        assert not out.exists()


def _per_prompt_members(workspace, second_names=("m0", "m1"), drop_from_second=None):
    """Two member files for each prompt of the workspace, m{i}_p{pid}.tsv, covering
    its pool and test rows; returns their paths with {prompt} for the prompt id.
    Prompt 2's members take ``second_names``, and its first loses ``drop_from_second``."""
    for pid in (1, 2):
        rows = [r for r in workspace["pool"] if r.prompt_id == pid]
        rows += [r for r in workspace["test_rows"] if r.prompt_id == pid]
        gold = np.array([r.score1 for r in rows])
        names = second_names if pid == 2 else ("m0", "m1")
        for i, name in enumerate(names):
            member = noisy_member(
                name, [r.id for r in rows], gold, 3, seed=10 * pid + i, prompt_id=pid
            )
            if pid == 2 and i == 0 and drop_from_second is not None:
                del member.rows[drop_from_second]
            (workspace["dir"] / f"m{i}_p{pid}.tsv").write_bytes(dump_logprobs(member))
    return [str(workspace["dir"] / f"m{i}_p{{prompt}}.tsv") for i in range(2)]


class TestScopedInputChecks:
    """``--prompt 1`` reads and checks every row of --data, --test and
    --solution: a fault only in prompt 2 exits 2 with the message
    ``--all-prompts`` gives, and writes nothing."""

    @pytest.fixture
    def inputs(self, workspace, toy_model):
        d = workspace["dir"]
        test = workspace["test_rows"] + make_toy_responses(
            prompt_id=2, n=6, k=3, seed=3, start_id=9_500
        )
        (d / "both.tsv").write_bytes(serialize_dataset(test))
        (d / "both.csv").write_text(
            "id,essay_score\n" + "".join(f"{r.id},{r.score1}\n" for r in test)
        )
        (d / "model.txt").write_text(toy_model[2])
        return {
            "data": workspace["data"], "test": d / "both.tsv", "solution": d / "both.csv",
            "members": _member_files(workspace), "model": d / "model.txt", "dir": d,
        }

    def _run(self, command, inputs, out, *scope):
        extra = {  # predict takes no --solution: it reads no label
            "ensemble": ["--members", *inputs["members"], "--solution", str(inputs["solution"])],
            "predict": ["--model", str(inputs["model"])],
        }[command]
        return main([
            command, "--data", str(inputs["data"]), "--test", str(inputs["test"]),
            *scope, *extra, "--out", str(out),
        ])

    @pytest.mark.parametrize("command", ["ensemble", "predict"])
    def test_clean_inputs_pass(self, inputs, command):
        assert self._run(command, inputs, inputs["dir"] / "clean", "--prompt", "1") == 0

    @pytest.mark.parametrize("command, fault", [
        *[("ensemble", fault) for fault in ("data row", "test score", "solution id")],
        ("predict", "data row"), ("predict", "test score"),
    ])
    def test_a_fault_in_another_prompt_still_exits_2(self, inputs, capsys, command, fault):
        data, test, solution = (inputs[name] for name in ("data", "test", "solution"))
        if fault == "data row":
            lines = data.read_text().splitlines()
            lines[61] = lines[61].rsplit("\t", 1)[0]  # prompt 2's first row loses its text
            bad, says = data, "row 62: expected 5 fields, got 4"
        elif fault == "test score":
            lines = test.read_text().splitlines()
            rid, pid, _, *rest = lines[-1].split("\t")
            assert pid == "2"
            lines[-1] = "\t".join([rid, pid, "x", *rest])  # --solution has this id's score
            bad, says = test, f"row {len(lines)}: score 'x' is not an integer"
        else:
            lines = solution.read_text().splitlines()
            rid = lines.pop().split(",")[0]  # a prompt-2 id
            bad, says = solution, f"no score for response {rid!r}"
        bad.write_text("\n".join(lines) + "\n")
        if fault == "solution id":
            bad = test  # the join runs as the test file is parsed
        errors = []
        for scope in (["--prompt", "1"], ["--all-prompts"]):
            out = inputs["dir"] / f"out_{scope[-1]}"
            assert self._run(command, inputs, out, *scope) == 2
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1] == f"asas: {bad}: {says}\n"


class TestEnsembleCommand:
    def test_best_two_of_three_members(self, workspace, capsys):
        members = _member_files(workspace)
        out_dir = workspace["dir"] / "ens"
        code = main([
            "ensemble", "--data", str(workspace["data"]),
            "--test", str(workspace["test"]), "--prompt", "1",
            "--seed", "7", "--m", "2", "--members", *members,
            "--out", str(out_dir),
        ])
        assert code == 0
        dev_report = EvalReport.from_tsv_row(
            (out_dir / "report_dev.tsv").read_text().splitlines()[2]
        )
        test_report = EvalReport.from_tsv_row(
            (out_dir / "report_test.tsv").read_text().splitlines()[2]
        )
        assert dev_report.prompt_id == 1 and test_report.prompt_id == 1
        assert -1.0 <= test_report.qwk <= 1.0
        exported = load_logprobs((out_dir / "predictions.tsv").read_bytes())
        assert exported.model_name == "ensemble"
        assert set(exported.rows) == {r.id for r in workspace["test_rows"]}

    def test_rerun_is_byte_identical(self, workspace, capsys):
        members = _member_files(workspace)
        outs = [workspace["dir"] / "ens_a", workspace["dir"] / "ens_b"]
        for out_dir in outs:
            assert main([
                "ensemble", "--data", str(workspace["data"]),
                "--test", str(workspace["test"]), "--prompt", "1",
                "--seed", "7", "--m", "2", "--members", *members,
                "--out", str(out_dir),
            ]) == 0
        for name in ("ensemble.txt", "predictions.tsv", "report_dev.tsv", "report_test.tsv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_a_member_name_holding_a_line_break_other_than_newline(self, workspace, capsys):
        rows = [r for r in workspace["pool"] if r.prompt_id == 1] + workspace["test_rows"]
        ids, gold = [r.id for r in rows], np.array([r.score1 for r in rows])
        names = ["a\x85b", "m2"]
        members = []
        for i, name in enumerate(names):
            path = workspace["dir"] / f"member_{i}.tsv"
            path.write_bytes(dump_logprobs(noisy_member(name, ids, gold, 3, seed=40 + i)))
            members.append(str(path))
        out = workspace["dir"] / "ens"
        assert main([
            "ensemble", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--prompt", "1", "--members", *members, "--out", str(out),
        ]) == 0
        spec = EnsembleSpec.from_artifact(Artifact.load(out / "ensemble.txt", "ensemble-spec"))
        assert spec.members == names

    def test_a_member_name_ending_in_cr_exits_2(self, workspace, capsys):
        members = _member_files(workspace, n_members=2)
        matrix = load_logprobs(Path(members[0]).read_bytes())
        Path(members[0]).write_bytes(dump_logprobs(matrix).replace(b"#model=m0", b"#model=m0\r"))
        out = workspace["dir"] / "ens"
        assert main([
            "ensemble", "--data", str(workspace["data"]), "--prompt", "1",
            "--members", *members, "--out", str(out),
        ]) == 2
        assert "model name 'm0\\r' holds a CR" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_says_when_the_stacker_hits_the_iteration_cap(
        self, workspace, capsys, monkeypatch
    ):
        # a one-step cap stops a fit that needs several
        monkeypatch.setattr(asas.learners, "LOGREG_MAX_ITER", 1)
        members = _member_files(workspace)
        assert main([
            "ensemble", "--data", str(workspace["data"]),
            "--test", str(workspace["test"]), "--prompt", "1",
            "--members", *members, "--out", str(workspace["dir"] / "cap"),
        ]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("prompt 1: ensemble of ['m0', 'm1', 'm2'] dev QWK ")
        assert "stacker 1 iterations, gradient inf-norm " in line
        assert line.endswith(", not converged")

    def test_stdout_reports_a_converged_stacker(self, tmp_path, capsys):
        # 60 dev rows and one weak member: not separable, converges early
        pool = make_toy_responses(prompt_id=1, n=300, k=3, seed=5)
        data = tmp_path / "train.tsv"
        data.write_bytes(serialize_dataset(pool))
        member = noisy_member(
            "weak", [r.id for r in pool], np.array([r.score1 for r in pool]), 3, seed=3,
            strength=0.3,
        )
        member_path = tmp_path / "weak.tsv"
        member_path.write_bytes(dump_logprobs(member))
        assert main([
            "ensemble", "--data", str(data), "--prompt", "1",
            "--members", str(member_path), "--out", str(tmp_path / "ens"),
        ]) == 0
        line = capsys.readouterr().out.strip()
        iterations = int(line.split(" stacker ")[1].split(" iterations")[0])
        grad_norm = float(line.rsplit("gradient inf-norm ", 1)[1])
        assert 0 < iterations < 5000
        assert grad_norm <= 1e-6

    def test_fewer_dev_rows_than_classes_exits_2(self, tmp_path, capsys):
        # 8 responses at --dev-frac 0.2 leave 2 dev rows for 3 score classes
        pool = make_toy_responses(prompt_id=1, n=8, k=3, seed=0)
        data = tmp_path / "train.tsv"
        data.write_bytes(serialize_dataset(pool))
        ids, gold = [r.id for r in pool], np.array([r.score1 for r in pool])
        members = []
        for i in range(2):
            members.append(tmp_path / f"m{i}.tsv")
            members[-1].write_bytes(dump_logprobs(noisy_member(f"m{i}", ids, gold, 3, seed=i)))
        out = tmp_path / "ens"
        assert main([
            "ensemble", "--data", str(data), "--prompt", "1", "--seed", "1",
            "--members", *map(str, members), "--out", str(out),
        ]) == 2
        assert "asas: prompt 1: need at least 3 rows, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_all_prompts_expands_the_prompt_placeholder(self, workspace, capsys):
        pattern = _per_prompt_members(workspace)
        common = ["--data", str(workspace["data"]), "--test", str(workspace["test"]), "--seed", "7"]
        out_all = workspace["dir"] / "ens_all"
        assert main(["ensemble", *common, "--all-prompts", "--members", *pattern,
                     "--out", str(out_all)]) == 0
        for pid in (1, 2):
            # the same files as a single-prompt run on the expanded paths, headers included
            single = workspace["dir"] / f"ens_{pid}"
            members = [p.replace("{prompt}", str(pid)) for p in pattern]
            assert main(["ensemble", *common, "--prompt", str(pid), "--members", *members,
                         "--out", str(single)]) == 0
            names = sorted(p.name for p in single.iterdir())
            assert names == sorted(p.name for p in (out_all / f"prompt_{pid}").iterdir())
            assert "report_dev.tsv" in names and "ensemble.txt" in names
            for name in names:
                assert (out_all / f"prompt_{pid}" / name).read_bytes() == (
                    single / name).read_bytes(), (pid, name)
            header = (single / "report_dev.tsv").read_text().splitlines()[0]
            assert f"m0_p{pid}.tsv:" in header and f"m0_p{3 - pid}.tsv:" not in header

    @pytest.mark.parametrize("fault", ["duplicate names", "a dev gap under --m"])
    def test_a_fault_of_the_second_prompt_writes_nothing(self, workspace, capsys, fault):
        if fault == "duplicate names":
            pattern, extra = _per_prompt_members(workspace, second_names=["m0", "m0"]), []
            code, says = 2, "duplicate member names: ['m0', 'm0']"
        else:
            pool = [r for r in workspace["pool"] if r.prompt_id == 2]
            corpus = build_corpus(pool, prompt_id=2, dev_fraction=0.2, seed=prompt_seed(7, 2))
            missing = corpus.dev[0].id
            pattern, extra = _per_prompt_members(workspace, drop_from_second=missing), ["--m", "1"]
            code, says = 4, f"member 'm0' has no row for id {missing!r}"
        out = workspace["dir"] / "ens_fault"
        assert main([
            "ensemble", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--seed", "7", "--all-prompts", "--members", *pattern, "--out", str(out), *extra,
        ]) == code
        captured = capsys.readouterr()
        assert says in captured.err and captured.out == ""
        assert not out.exists()

    def test_all_prompts_without_placeholder_exits_2_before_writing(self, workspace, capsys):
        members = _member_files(workspace)
        out_dir = workspace["dir"] / "ens_fixed"
        assert main([
            "ensemble", "--data", str(workspace["data"]), "--all-prompts",
            "--members", *members, "--out", str(out_dir),
        ]) == 2
        err = capsys.readouterr().err
        assert "{prompt}" in err and members[0] in err
        assert not out_dir.exists()

    def test_single_prompt_header_names_the_literal_member_paths(self, workspace):
        members = _member_files(workspace)
        out_dir = workspace["dir"] / "ens_literal"
        assert main([
            "ensemble", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--prompt", "1", "--members", *members, "--out", str(out_dir),
        ]) == 0
        header = (out_dir / "report_dev.tsv").read_text().splitlines()[0]
        keys = [item.rsplit(":", 1)[0] for item in header.split("inputs=")[1].split(",")]
        assert keys == sorted([str(workspace["data"]), str(workspace["test"]), *members])

    def test_bad_member_row_names_the_members_file(self, workspace, capsys):
        members = _member_files(workspace)
        with open(members[1], "a") as bad:
            bad.write("zz\t0\t0\t0\n")
        n_lines = len(Path(members[1]).read_text().splitlines())
        assert main([
            "ensemble", "--data", str(workspace["data"]), "--test", str(workspace["test"]),
            "--prompt", "1", "--members", *members, "--out", str(workspace["dir"] / "bad"),
        ]) == 2
        err = capsys.readouterr().err
        assert f"asas: {members[1]}: row {n_lines}: id 'zz' not in corpus" in err

    def test_m_larger_than_member_count_is_usage_error(self, workspace, capsys):
        members = _member_files(workspace)
        code = main([
            "ensemble", "--data", str(workspace["data"]), "--prompt", "1",
            "--m", "4", "--members", *members,
            "--out", str(workspace["dir"] / "x"),
        ])
        assert code == 2

    def test_coverage_gap_exits_4_naming_member(self, workspace, capsys):
        missing = workspace["test_rows"][3].id
        members = _member_files(workspace, drop_id=missing)
        out = workspace["dir"] / "gap"
        code = main([
            "ensemble", "--data", str(workspace["data"]),
            "--test", str(workspace["test"]), "--prompt", "1",
            "--members", *members, "--out", str(out),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "m0" in err and missing in err
        # the gap is in the test rows, found after the dev fit but before any write
        assert not out.exists()

    def test_member_missing_a_dev_id_exits_4_when_picking_the_best_m(self, workspace, capsys):
        pool = [r for r in workspace["pool"] if r.prompt_id == 1]
        corpus = build_corpus(pool, prompt_id=1, dev_fraction=0.2, seed=prompt_seed(7, 1))
        missing = corpus.dev[0].id
        members = _member_files(workspace, drop_id=missing)
        out = workspace["dir"] / "dev_gap"
        code = main([
            "ensemble", "--data", str(workspace["data"]),
            "--test", str(workspace["test"]), "--prompt", "1", "--m", "2",
            "--members", *members, "--out", str(out),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "m0" in err and repr(missing) in err
        assert not out.exists()


class TestUnlabeledTestJoin:
    def test_solution_file_supplies_test_scores(self, workspace, capsys):
        # public-distribution shape: test file has no score columns,
        # scores arrive in a separate comma-separated solution table
        unlabeled = workspace["dir"] / "leaderboard.tsv"
        rows = ["Id\tEssaySet\tEssayText"] + [
            f"{r.id}\t{r.prompt_id}\t{r.text}" for r in workspace["test_rows"]
        ]
        unlabeled.write_text("\n".join(rows) + "\n")
        solution = workspace["dir"] / "solution.csv"
        sol_rows = ["id,essay_set,essay_score,essay_weight"] + [
            f"{r.id},{r.prompt_id},{r.score1},1" for r in workspace["test_rows"]
        ]
        solution.write_text("\n".join(sol_rows) + "\n")

        members = _member_files(workspace)
        out_dir = workspace["dir"] / "joined"
        code = main([
            "ensemble", "--data", str(workspace["data"]),
            "--test", str(unlabeled), "--solution", str(solution),
            "--prompt", "1", "--members", *members,
            "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "report_test.tsv").is_file()
        report = EvalReport.from_tsv_row(
            (out_dir / "report_test.tsv").read_text().splitlines()[2]
        )
        assert report.n == len(workspace["test_rows"])

    def test_test_file_without_score_columns_loads_unscored(self, workspace):
        unlabeled = workspace["dir"] / "leaderboard0.tsv"
        rows = ["Id\tEssaySet\tEssayText"] + [
            f"{r.id}\t{r.prompt_id}\t{r.text}" for r in workspace["test_rows"]
        ]
        unlabeled.write_text("\n".join(rows) + "\n")
        args = asas.cli.build_parser().parse_args(
            ["stats", "--data", str(workspace["data"]), "--test", str(unlabeled)]
        )
        runs = asas.cli._runs(asas.cli._Ctx(args))
        loaded = [r for run in runs for r in run.corpus.test]
        assert [(r.id, r.text, r.score1, r.score2) for r in loaded] == [
            (r.id, r.text, None, None) for r in workspace["test_rows"]
        ]

    def test_solution_missing_an_id_is_validation_error(self, workspace, capsys):
        unlabeled = workspace["dir"] / "leaderboard2.tsv"
        rows = ["Id\tEssaySet\tEssayText"] + [
            f"{r.id}\t{r.prompt_id}\t{r.text}" for r in workspace["test_rows"]
        ]
        unlabeled.write_text("\n".join(rows) + "\n")
        solution = workspace["dir"] / "partial_solution.csv"
        sol_rows = ["id,essay_score"] + [
            f"{r.id},{r.score1}" for r in workspace["test_rows"][1:]
        ]
        solution.write_text("\n".join(sol_rows) + "\n")
        code = main([
            "stats", "--data", str(workspace["data"]),
            "--test", str(unlabeled), "--solution", str(solution), "--prompt", "1",
        ])
        assert code == 2
        assert workspace["test_rows"][0].id in capsys.readouterr().err


@pytest.fixture(scope="class")
def toy_model(tmp_path_factory):
    """A dataset and the text of a feature model trained on it."""
    root = tmp_path_factory.mktemp("toy_model")
    data = root / "train.tsv"
    data.write_bytes(serialize_dataset(make_toy_responses(prompt_id=1, n=60, k=3, seed=0)))
    assert main([
        "train-features", "--data", str(data), "--prompt", "1", "--seed", "3",
        "--epochs", "1", "--tfidf-dim", "6", "--out", str(root / "model"),
    ]) == 0
    return root, data, (root / "model" / "model.txt").read_text()


def _replace_block(text: str, name: str, block: str) -> str:
    """``text`` with matrix ``name``'s header line and rows replaced by ``block``."""
    lines = text.splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith(f"[matrix {name} "))
    n_rows = int(lines[at].split(" ")[2])
    return "".join(lines[:at]) + block + "".join(lines[at + 1 + n_rows:])


def _drop_last_w1_row(text: str) -> str:
    """A model text whose MLP takes one input fewer than its spec gives features."""
    lines = text.splitlines(keepends=True)
    at = next(i for i, ln in enumerate(lines) if ln.startswith("[matrix mlp_w1 "))
    _, _, n_rows, width = lines[at].rstrip("]\n").split(" ")
    rows = lines[at + 1: at + int(n_rows)]
    block = f"[matrix mlp_w1 {int(n_rows) - 1} {width}]\n" + "".join(rows)
    return _replace_block(text, "mlp_w1", block)


class TestModelFileChecks:
    """A malformed model.txt exits 2 with an error naming the block, never a traceback."""

    @pytest.mark.parametrize("block, names", [
        ("[matrix x 2 1000000000000]\n1.0\n2.0\n", "matrix x row 1 has 1 values"),
        ("[matrix x 2 -3]\n1.0\n2.0\n", "bad block header '[matrix x 2 -3]'"),
        ("[matrix x 2]\n1.0\n2.0\n", "bad block header '[matrix x 2]'"),
        ("[matrix projection 1 1]\n0.5\n", "repeated matrix 'projection'"),
        ("cutoff\t0.9\n", "repeated key 'cutoff'"),
    ], ids=["huge-width", "negative-width", "no-width", "repeated-matrix", "repeated-key"])
    def test_bad_block_header_or_width(self, toy_model, capsys, block, names):
        self._assert_rejected(toy_model, capsys, toy_model[2] + block, names)

    def test_an_mlp_of_another_width_than_the_spec(self, toy_model, capsys):
        text = toy_model[2]
        head = next(ln for ln in text.splitlines() if ln.startswith("[matrix mlp_w1 "))
        n_rows = int(head.split(" ")[2])
        names = f"the feature spec gives {n_rows} features, but matrix mlp_w1 has {n_rows - 1} rows"
        self._assert_rejected(toy_model, capsys, _drop_last_w1_row(text), names)

    def test_bias_block_without_rows(self, toy_model, capsys):
        hidden = OPTIONS["hidden"].default
        text = _replace_block(toy_model[2], "mlp_b1", f"[matrix mlp_b1 0 {hidden}]\n")
        self._assert_rejected(toy_model, capsys, text, "matrix mlp_b1 has 0 rows, expected 1")

    def test_bias_block_of_the_wrong_width(self, toy_model, capsys):
        text = _replace_block(toy_model[2], "mlp_b1", "[matrix mlp_b1 1 1]\n0.5\n")
        self._assert_rejected(
            toy_model, capsys, text,
            f"matrix mlp_b1 has 1 values, but mlp_w1 has {OPTIONS['hidden'].default}",
        )

    @pytest.mark.parametrize("name, value", [
        ("mlp_w2", "nan"),
        ("mlp_b1", "inf"),
        ("projection", "-inf"),
        ("std_mean", "1e309"),
        ("std_sd", "nan"),
        ("vocab", "nan"),  # the first term's idf
    ])
    def test_a_block_holding_nan_or_infinity(self, toy_model, capsys, name, value):
        lines = toy_model[2].splitlines(keepends=True)
        at = next(i for i, ln in enumerate(lines) if ln.split(" ")[1:2] == [name]) + 1
        cells = lines[at].rstrip("\n").split("\t")
        cells[1 if name == "vocab" else 0] = value
        lines[at] = "\t".join(cells) + "\n"
        names = f"block {name} holds a value that is not a finite number"
        self._assert_rejected(toy_model, capsys, "".join(lines), names)

    @pytest.mark.parametrize("text", [" ", "foo bar baz"], ids=["blank", "three-words"])
    def test_a_key_ngram_whose_words_are_not_its_order(self, toy_model, capsys, text):
        lines = toy_model[2].splitlines(keepends=True)
        at = lines.index("[strings key_ngrams 90]\n") + 1
        order, _, score = lines[at].split("\t")
        assert order == "1"
        lines[at] = f"1\t{text}\t{score}"
        names = f"key n-gram {text!r} has {len(text.split())} tokens, not its order 1"
        self._assert_rejected(toy_model, capsys, "".join(lines), names)

    @pytest.mark.parametrize("edit", [str.upper, lambda t: t + " "], ids=["upper", "spaced"])
    def test_a_key_ngram_not_in_token_form(self, toy_model, capsys, edit):
        lines = toy_model[2].splitlines(keepends=True)
        at = lines.index("[strings key_ngrams 90]\n") + 1
        order, text, score = lines[at].split("\t")
        assert order == "1" and text != edit(text)
        lines[at] = f"1\t{edit(text)}\t{score}"
        names = f"key n-gram {edit(text)!r} is not lower-case tokens one space apart"
        self._assert_rejected(toy_model, capsys, "".join(lines), names)

    def test_an_upper_cased_vocabulary_term(self, toy_model, capsys):
        text = toy_model[2]
        assert text.count("\nwater\t") == 1  # the one vocab row; n-gram rows start with an order
        names = "vocabulary term 'WATER' is not one lower-cased token"
        self._assert_rejected(toy_model, capsys, text.replace("\nwater\t", "\nWATER\t"), names)

    def test_a_model_without_its_prompt(self, toy_model, capsys):
        text = toy_model[2]
        assert text.count("\nprompt\t1\n") == 1
        names = "feature-model artifact has no key 'prompt'"
        self._assert_rejected(toy_model, capsys, text.replace("\nprompt\t1\n", "\n"), names)

    def test_a_model_without_its_output_bias(self, toy_model, capsys):
        text = _replace_block(toy_model[2], "mlp_b2", "")
        names = "feature-model artifact has no matrix 'mlp_b2'"
        with pytest.raises(HeaderMismatch, match=names):
            FeatureModelSpec.from_artifact(Artifact.parse(text, "feature-model"))
        self._assert_rejected(toy_model, capsys, text, names)

    def _assert_rejected(self, toy_model, capsys, text, names):
        root, data, _ = toy_model
        bad, out = root / "bad_model.txt", root / "bad_predictions.tsv"
        bad.write_text(text)
        assert main([
            "predict", "--model", str(bad), "--data", str(data), "--prompt", "1",
            "--out", str(out),
        ]) == 2
        assert f"asas: {bad}: {names}" in capsys.readouterr().err
        assert not out.exists()


class TestModelFileFidelity:
    def test_saved_model_reproduces_reported_dev_qwk(self, workspace):
        from asas.corpus import build_corpus, parse_dataset
        from asas.features import build_features
        from asas.learners import mlp_forward
        from asas.metrics import qwk

        out_dir = workspace["dir"] / "fidelity"
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--seed", "5", "--epochs", "4", "--tfidf-dim", "8",
            "--out", str(out_dir),
        ]) == 0
        reported = EvalReport.from_tsv_row(
            (out_dir / "report_dev.tsv").read_text().splitlines()[2]
        )
        spec, mlp = load_feature_model(out_dir / "model.txt")
        pool = [r for r in parse_dataset(workspace["data"].read_bytes()) if r.prompt_id == 1]
        corpus = build_corpus(pool, prompt_id=1, dev_fraction=0.2, seed=prompt_seed(5, 1))
        matrix = build_features(corpus, spec)  # train|dev rows
        pred = np.argmax(mlp_forward(mlp, matrix.data[len(corpus.train):]), axis=1)
        # the report row renders at 6 decimals; the model file itself is exact
        assert qwk(corpus.labels(corpus.dev), pred, corpus.num_classes) == pytest.approx(
            reported.qwk, abs=1e-6
        )

    def test_train_features_scores_the_mlp_once(self, workspace, monkeypatch):
        from asas.corpus import build_corpus, parse_dataset
        from asas.ensemble import evaluate_run
        from asas.features import build_features

        real, calls = asas.cli.mlp_forward, []
        monkeypatch.setattr(asas.cli, "mlp_forward", lambda *a: calls.append(a) or real(*a))
        out_dir = workspace["dir"] / "forward_once"
        assert main([
            "train-features", "--data", str(workspace["data"]), "--prompt", "1",
            "--seed", "5", "--epochs", "4", "--tfidf-dim", "8", "--out", str(out_dir),
        ]) == 0
        assert len(calls) == 1  # the log-probabilities of predictions.tsv
        # report_dev.tsv is the report of the saved model's dev predictions
        spec, mlp = load_feature_model(out_dir / "model.txt")
        pool = [r for r in parse_dataset(workspace["data"].read_bytes()) if r.prompt_id == 1]
        corpus = build_corpus(pool, prompt_id=1, dev_fraction=0.2, seed=prompt_seed(5, 1))
        dev_rows = build_features(corpus, spec).data[len(corpus.train):]  # train|dev rows
        pred = np.argmax(real(mlp, dev_rows), axis=1)
        report = evaluate_run(pred, corpus.labels(corpus.dev), corpus.num_classes, 1)
        header = (out_dir / "model.txt").read_text().split("\n", 1)[0]
        expected = f"{header}\n{EvalReport.TSV_HEADER}\n{report.to_tsv_row()}\n"
        assert (out_dir / "report_dev.tsv").read_text() == expected


class TestReport:
    def test_merges_rows_and_appends_mean(self, workspace, capsys, tmp_path):
        paths = []
        for prompt_id, qwk_value in [(1, 0.8), (2, 0.6)]:
            report = EvalReport(
                prompt_id=prompt_id, qwk=qwk_value, smd=0.01, accuracy=0.7, n=50
            )
            path = tmp_path / f"r{prompt_id}.tsv"
            path.write_text(EvalReport.TSV_HEADER + "\n" + report.to_tsv_row() + "\n")
            paths.append(str(path))
        out_file = tmp_path / "table.tsv"
        assert main(["report", "--out", str(out_file), *paths]) == 0
        lines = [
            ln for ln in out_file.read_text().splitlines()
            if ln and not ln.startswith("#")
        ]
        assert lines[-1].startswith("mean\t")
        mean = EvalReport.from_tsv_row(lines[-1])
        assert mean.qwk == pytest.approx(0.7)
        assert [ln.split("\t")[0] for ln in lines[1:]] == ["1", "2", "mean"]

    @pytest.mark.parametrize("row", [
        "1\t0.8",
        "1\tx\t0.01\t0.7\t50\t-",
        "1\tnan\t0.01\t0.7\t50\t-",
        "1\t0.8\tinf\t0.7\t50\t-",
        "1\t0.8\t0.01\t0.7\t-3\t-",
        "-3\t0.8\t0.01\t0.7\t50\t-",  # only the cell "mean" marks the mean row
    ])
    def test_malformed_row_exits_2_naming_file_and_line(self, tmp_path, capsys, row):
        path = tmp_path / "bad.tsv"
        path.write_text(f"#asas\tversion=test\n{EvalReport.TSV_HEADER}\n{row}\n")
        assert main(["report", str(path)]) == 2
        assert f"{path}:3: not a report row" in capsys.readouterr().err

    def test_a_report_that_is_not_utf8_exits_2_naming_the_file(self, tmp_path, capsys):
        path, out = tmp_path / "latin1.tsv", tmp_path / "table.tsv"
        row = "1\t0.8\t0.01\t0.7\t50\t\xe9"
        path.write_bytes(f"{EvalReport.TSV_HEADER}\n{row}\n".encode("latin-1"))
        assert main(["report", "--out", str(out), str(path)]) == 2
        assert f"asas: {path}: 'utf-8' codec can't decode byte 0xe9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("twice", ["in one file", "in two files"])
    def test_a_second_row_for_a_prompt_exits_2(self, tmp_path, capsys, twice):
        row = EvalReport(prompt_id=1, qwk=0.8, smd=0.01, accuracy=0.7, n=24).to_tsv_row()
        path, out = tmp_path / "r.tsv", tmp_path / "table.tsv"
        rows = [row, row] if twice == "in one file" else [row]
        path.write_text(EvalReport.TSV_HEADER + "\n" + "".join(r + "\n" for r in rows))
        paths = [str(path)] if twice == "in one file" else [str(path), str(path)]
        assert main(["report", "--out", str(out), *paths]) == 2
        second = f"{path}:3" if twice == "in one file" else f"{path}:2"
        err = capsys.readouterr().err
        assert f"asas: {second}: a second row for prompt 1 (first at {path}:2)" in err
        assert not out.exists()


# Each command with every option it requires set (files that are never read).
_REQUIRED_SET = {
    "ingest": ["--data", "d.tsv"],
    "stats": ["--data", "d.tsv"],
    "split": ["--data", "d.tsv", "--prompt", "1", "--out", "o"],
    "train-features": ["--data", "d.tsv", "--prompt", "1", "--out", "o"],
    "tune": ["--data", "d.tsv", "--prompt", "1", "--out", "o"],
    "predict": ["--data", "d.tsv", "--prompt", "1", "--model", "m.txt"],
    "ensemble": ["--data", "d.tsv", "--prompt", "1", "--members", "m.tsv", "--out", "o"],
    "report": ["r.tsv"],
}

# For every option with a rule: a value that breaks it, and the message.
_BROKEN = {
    "dev_frac": ("1", "--dev-frac must be in (0, 1), got 1.0"),
    "seed": ("-3", "--seed must be non-negative, got -3"),
    "id_col": ("#Id", "id_col must not start with '#' (a comment), got '#Id'"),
    "lr": ("inf", "--lr must be finite, got inf"),
    "batch": ("0", "--batch must be positive, got 0"),
    "epochs": ("-1", "--epochs must be positive, got -1"),
    "hidden": ("0", "--hidden must be positive, got 0"),
    "tfidf_dim": ("0", "--tfidf-dim must be positive, got 0"),
    "cutoff": ("0.3", "--cutoff must be in [0.5, 1.0], got 0.3"),
    "trials": ("0", "--trials must be positive, got 0"),
    "name": ("a\tb", "--name must not hold a tab, CR or LF, got 'a\\tb'"),
}


class TestOptionRules:
    """Every option's rule and every command's required options are checked
    before any input is read, whether the value comes from a flag or from
    the config file, and whether the command reads that option or not."""

    @pytest.fixture(autouse=True)
    def nothing_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(asas.cli, "parse_dataset", lambda *a, **kw: pytest.fail("parsed"))
        monkeypatch.setattr(asas.cli._Ctx, "read_input", lambda *a: pytest.fail("read"))
        monkeypatch.chdir(tmp_path)

    def test_every_rule_has_a_broken_value(self):
        assert set(_BROKEN) == {name for name, opt in OPTIONS.items() if opt.rule}

    @pytest.mark.parametrize("name", sorted(_BROKEN))
    def test_a_config_value_breaks_a_rule_as_the_flag_does(self, tmp_path, capsys, name):
        value, says = _BROKEN[name]
        reads = [c for c, entry in asas.cli.COMMANDS.items() if name in entry[2].split()]
        skips = [c for c in asas.cli.COMMANDS if c not in reads]
        conf = tmp_path / "broken.conf"
        conf.write_text(f"{name} = {value}\n")
        for command in [reads[0], *skips[:1]]:
            assert main([command, "--config", str(conf), *_REQUIRED_SET[command]]) == 2
            assert capsys.readouterr().err == f"asas: {says}\n", command
        flag = "--" + name.replace("_", "-")
        assert main([reads[0], *_REQUIRED_SET[reads[0]], flag, value]) == 2
        assert capsys.readouterr().err == f"asas: {says}\n"
        assert list(tmp_path.iterdir()) == [conf]

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command, argv in _REQUIRED_SET.items()
        for flag in argv if flag in ("--data", "--out", "--model", "--members")
    ])
    def test_a_required_option_left_out(self, tmp_path, capsys, command, flag):
        argv = _REQUIRED_SET[command]
        at = argv.index(flag)
        assert main([command, *argv[:at], *argv[at + 2:]]) == 2
        assert capsys.readouterr().err == f"asas: {flag} is required\n"
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_member_list_in_the_config_file_is_left_out(self, tmp_path, capsys):
        conf = tmp_path / "members.conf"
        conf.write_text("members =\n")
        argv = ["--data", "d.tsv", "--prompt", "1", "--out", "o"]
        assert main(["ensemble", "--config", str(conf), *argv]) == 2
        assert capsys.readouterr().err == "asas: --members is required\n"


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, workspace, capsys):
        conf = workspace["dir"] / "asas.conf"
        conf.write_text(
            f"data = {workspace['data']}\nseed = 3\ndev_frac = 0.2\n# comment\n"
        )
        assert main(["stats", "--config", str(conf)]) == 0
        out = capsys.readouterr().out
        assert "seed=3" in out.splitlines()[0]
        assert main(["stats", "--config", str(conf), "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "seed=9" in out.splitlines()[0]

    def test_malformed_config_line_is_validation_error(self, workspace, capsys):
        conf = workspace["dir"] / "bad.conf"
        conf.write_text("just words\n")
        assert main(["stats", "--config", str(conf), "--data", str(workspace["data"])]) == 2

    def test_false_switch_in_config_stays_off(self, workspace):
        conf = workspace["dir"] / "off.conf"
        conf.write_text(f"data = {workspace['data']}\nall_prompts = false\n")
        out_dir = workspace["dir"] / "one_split"
        assert main([
            "split", "--config", str(conf), "--prompt", "1", "--out", str(out_dir),
        ]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["dev.tsv", "train.tsv"]
        train = parse_dataset((out_dir / "train.tsv").read_bytes())
        assert {r.prompt_id for r in train} == {1}

    @pytest.mark.parametrize("conf_line, flag, written", [
        ("all_prompts = true", ["--prompt", "2"], ["dev.tsv", "train.tsv"]),
        ("prompt = 2", ["--all-prompts"], ["prompt_1", "prompt_2"]),
    ])
    def test_a_scope_flag_replaces_the_config_scope(self, workspace, conf_line, flag, written):
        conf = workspace["dir"] / "scope.conf"
        conf.write_text(f"data = {workspace['data']}\n{conf_line}\n")
        out_dir = workspace["dir"] / "scoped"
        assert main(["split", "--config", str(conf), *flag, "--out", str(out_dir)]) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == written

    @pytest.mark.parametrize("conf_lines, flags, source", [
        ("", ["--prompt", "2", "--all-prompts"], "on the command line"),
        ("all_prompts = true\n", ["--prompt", "2", "--all-prompts"], "on the command line"),
        ("prompt = 2\nall_prompts = true\n", [], "in "),
    ])
    def test_both_scopes_in_one_place_exit_2_before_reading(
        self, workspace, capsys, monkeypatch, conf_lines, flags, source
    ):
        conf = workspace["dir"] / "both.conf"
        conf.write_text(f"data = {workspace['data']}\n{conf_lines}")
        monkeypatch.setattr(asas.cli, "parse_dataset", None)  # reading would raise TypeError
        out_dir = workspace["dir"] / "both"
        assert main(["split", "--config", str(conf), *flags, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert f"asas: --prompt and --all-prompts are both set {source}" in err
        assert not out_dir.exists()

    def test_members_list_in_config_stacks_every_file(self, workspace, capsys):
        members = _member_files(workspace, n_members=2)
        conf = workspace["dir"] / "members.conf"
        conf.write_text(
            f"data = {workspace['data']}\ntest = {workspace['test']}\n"
            f"members = {members[0]}  {members[1]}\n"
        )
        out_dir = workspace["dir"] / "conf_ens"
        assert main([
            "ensemble", "--config", str(conf), "--prompt", "1", "--out", str(out_dir),
        ]) == 0
        assert "ensemble of ['m0', 'm1']" in capsys.readouterr().out
        assert (out_dir / "ensemble.txt").is_file()

    @pytest.mark.parametrize("line, key", [
        ("all_prompts = yes", "all_prompts"),
        ("all_prompts =", "all_prompts"),
        ("seed = many", "seed"),
    ])
    def test_value_of_the_wrong_type_is_validation_error(self, workspace, capsys, line, key):
        conf = workspace["dir"] / "typed.conf"
        conf.write_text(f"data = {workspace['data']}\n{line}\n")
        assert main(["stats", "--config", str(conf)]) == 2
        err = capsys.readouterr().err
        assert f"typed.conf:2: bad value for {key}" in err

    @pytest.mark.parametrize("char", ["\x85", "\x0c", "\u2028"])
    def test_a_value_holding_a_line_break_other_than_newline(self, tmp_path, char):
        conf = tmp_path / "c.conf"
        conf.write_text(f"name = a{char}b\nseed = 3\n", encoding="utf-8")
        assert load_config_file(conf) == {"name": f"a{char}b", "seed": 3}
        conf.write_text(f"name = a{char}b\r\n  # note\r\nsed = 3\n", encoding="utf-8")
        with pytest.raises(AsasError, match="c.conf:3: unknown key 'sed'"):
            load_config_file(conf)

    def test_unknown_key_is_validation_error(self, workspace, capsys):
        conf = workspace["dir"] / "typo.conf"
        conf.write_text(f"data = {workspace['data']}\n# a comment\nsed = 3\n")
        assert main(["stats", "--config", str(conf)]) == 2
        assert "typo.conf:3: unknown key 'sed'" in capsys.readouterr().err

    def test_config_only_solution_columns_are_read(self, workspace, capsys):
        unlabeled = workspace["dir"] / "unlabeled.tsv"
        unlabeled.write_text("\n".join(["Id\tEssaySet\tEssayText"] + [
            f"{r.id}\t{r.prompt_id}\t{r.text}" for r in workspace["test_rows"]
        ]) + "\n")
        solution = workspace["dir"] / "graded.csv"
        solution.write_text("\n".join(["ref,grade"] + [
            f"{r.id},{r.score1}" for r in workspace["test_rows"]
        ]) + "\n")
        conf = workspace["dir"] / "cols.conf"
        conf.write_text(
            f"data = {workspace['data']}\ntest = {unlabeled}\nsolution = {solution}\n"
            "solution_id_col = ref\nsolution_score_col = grade\n"
        )
        assert main(["stats", "--config", str(conf), "--prompt", "1"]) == 0
        capsys.readouterr()
        conf.write_text(f"data = {workspace['data']}\ntest = {unlabeled}\nsolution = {solution}\n")
        assert main(["stats", "--config", str(conf), "--prompt", "1"]) == 2
        assert "solution file lacks columns 'id'/'essay_score'" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", sorted(asas.cli.COMMANDS))
    def test_help_shows_every_default(self, command, capsys):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for name in ["config", *asas.cli.COMMANDS[command][2].split()]:
            flag = "--" + name.replace("_", "-")
            assert flag in text
            default = asas.cli.OPTIONS[name].default
            if default is not None:
                shown = str(default).lower() if isinstance(default, bool) else default
                assert f"(default: {shown})" in text, flag

    def test_two_commands_build_one_parser(self, workspace, monkeypatch, capsys):
        built, real_init = [], argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            real_init(parser, *args, **kwargs)
            if parser.prog == "asas":
                built.append(parser)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["stats", "--data", str(workspace["data"])]) == 0
        first = len(built)
        assert main(["ingest", "--data", str(workspace["data"])]) == 0
        assert len(built) == first <= 1

    def test_missing_required_prompt_exits_2(self, workspace, capsys):
        assert main([
            "tune", "--data", str(workspace["data"]),
            "--out", str(workspace["dir"] / "y"),
        ]) == 2

    def test_an_ensemble_header_names_each_input_by_its_digest(self, workspace):
        members = _member_files(workspace, n_members=2)
        inputs = [str(workspace["data"]), str(workspace["test"]), *members]
        out = workspace["dir"] / "ens"
        assert main([
            "ensemble", "--data", inputs[0], "--test", inputs[1], "--prompt", "1",
            "--seed", "7", "--members", *members, "--out", str(out),
        ]) == 0
        want = artifact_header(7, {path: digest(Path(path).read_bytes()) for path in inputs})
        for name in ("ensemble.txt", "report_dev.tsv", "report_test.tsv"):
            assert (out / name).read_text().splitlines()[0] == want, name
        assert (out / "predictions.tsv").read_text().splitlines()[1] == want

    def test_artifact_headers_record_input_digests(self, workspace):
        out_a = workspace["dir"] / "ha.tsv"
        out_b = workspace["dir"] / "hb.tsv"
        base = ["stats", "--data", str(workspace["data"]), "--seed", "7"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert "train.tsv:" in header.split("inputs=")[1]
