"""End-to-end command wiring: exit codes, artifacts, determinism."""
from __future__ import annotations

import os

import numpy as np
import pytest

import asas.cli
import asas.features
from asas.cli import DEFAULT_HIDDEN, main, load_feature_model
from asas.corpus import (
    build_corpus,
    dump_logprobs,
    load_logprobs,
    parse_dataset,
    prompt_seed,
    serialize_dataset,
)
from asas.mathutil import logsumexp
from asas.metrics import EvalReport
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


class TestTune:
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
            epochs=3, seed=11, hidden=DEFAULT_HIDDEN,
        )
        _, saved = load_feature_model(out_dir / "model.txt")
        want = retrained.model.to_arrays()
        got = saved.to_arrays()
        assert sorted(got) == sorted(want)
        assert all(np.array_equal(got[name], want[name]) for name in want)


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
        code = main([
            "ensemble", "--data", str(workspace["data"]),
            "--test", str(workspace["test"]), "--prompt", "1",
            "--members", *members,
            "--out", str(workspace["dir"] / "gap"),
        ])
        assert code == 4
        err = capsys.readouterr().err
        assert "m0" in err and missing in err


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
        matrix = build_features(corpus, spec)
        dev_ids = [r.id for r in corpus.dev]
        pred = np.argmax(mlp_forward(mlp, matrix.rows_for(dev_ids)), axis=1)
        # the report row renders at 6 decimals; the model file itself is exact
        assert qwk(corpus.labels(corpus.dev), pred, corpus.num_classes) == pytest.approx(
            reported.qwk, abs=1e-6
        )


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


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_prompt_exits_2(self, workspace, capsys):
        assert main([
            "tune", "--data", str(workspace["data"]),
            "--out", str(workspace["dir"] / "y"),
        ]) == 2

    def test_artifact_headers_record_input_digests(self, workspace):
        out_a = workspace["dir"] / "ha.tsv"
        out_b = workspace["dir"] / "hb.tsv"
        base = ["stats", "--data", str(workspace["data"]), "--seed", "7"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        header = out_a.read_text().splitlines()[0]
        assert "train.tsv:" in header.split("inputs=")[1]
