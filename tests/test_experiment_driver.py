"""Smoke test of the public-dataset experiment driver on a tiny stand-in dataset."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from asas.cli import load_feature_model
from asas.corpus import StatsRow, load_logprobs, serialize_dataset
from asas.features import normalize_text
from conftest import make_toy_responses

DRIVER = Path(__file__).resolve().parents[1] / "scripts" / "run_asap_experiment.py"


def _driver():
    spec = importlib.util.spec_from_file_location("run_asap_experiment", DRIVER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stats_tune_ensemble_report_on_two_prompts(tmp_path, monkeypatch, capsys):
    # the public layout: labelled train file, unlabelled test texts, a solution table
    data = tmp_path / "data"
    data.mkdir()
    pool = make_toy_responses(prompt_id=1, n=40, k=3, seed=0)
    pool += make_toy_responses(prompt_id=2, n=40, k=3, seed=1, start_id=5_000)
    (data / "train.tsv").write_bytes(serialize_dataset(pool))
    test = make_toy_responses(prompt_id=1, n=12, k=3, seed=2, start_id=9_000)
    test += make_toy_responses(prompt_id=2, n=12, k=3, seed=3, start_id=9_500)
    rows = ["Id\tEssaySet\tEssayText"] + [f"{r.id}\t{r.prompt_id}\t{r.text}" for r in test]
    (data / "public_leaderboard.tsv").write_text("\n".join(rows) + "\n")
    solution = ["id,essay_set,essay_score"] + [f"{r.id},{r.prompt_id},{r.score1}" for r in test]
    (data / "solution.csv").write_text("\n".join(solution) + "\n")
    texts = {1: "Describe how osmosis moves water.", 2: "Explain why the leaves change colour."}
    for pid, text in texts.items():
        (data / f"prompt_{pid}.txt").write_text(text)

    out = tmp_path / "runs"
    monkeypatch.setattr(sys, "argv", [
        "run_asap_experiment.py", "--data-dir", str(data), "--out", str(out),
        "--trials", "2",
    ])
    assert _driver().main() == 0

    assert StatsRow.TSV_HEADER in capsys.readouterr().out
    table = [ln for ln in (out / "report.tsv").read_text().splitlines() if ln[:1] != "#"]
    assert [ln.split("\t")[0] for ln in table[1:]] == ["1", "2", "mean"]
    for pid in (1, 2):
        member = load_logprobs((out / f"prompt_{pid}" / "predictions.tsv").read_bytes())
        assert member.model_name == "features" and member.prompt_id == pid
        ids = {r.id for r in pool + test if r.prompt_id == pid}
        assert set(member.rows) == ids
        spec, _ = load_feature_model(out / f"prompt_{pid}" / "model.txt")
        assert spec.prompt_minutiae == normalize_text(texts[pid])
        assert (out / "ensemble" / f"prompt_{pid}" / "report_test.tsv").is_file()
    assert not list(out.rglob("features.tsv"))  # tune's member file is stacked as it is
