"""Command-line surface for the scoring pipeline.

Subcommands: ingest, stats, split, train-features, tune, predict,
ensemble, report. All commands are non-interactive, exit nonzero on any
validation failure, and stamp every output file with a header carrying
the tool version, the seed, and digests of the input files. Defaults
may come from a flat ``key = value`` config file (--config); explicit
flags win.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .corpus import (
    ColumnMap,
    PromptCorpus,
    ScoredResponse,
    attach_scores,
    build_corpus,
    corpus_stats,
    dump_logprobs,
    load_embeddings,
    load_logprobs,
    LogProbMatrix,
    parse_dataset,
    parse_score_table,
    prompt_seed,
    serialize_dataset,
    StatsRow,
)
from .ensemble import (
    evaluate_run,
    fit_ensemble,
    mean_report,
    score_ensemble,
    select_best_subset,
)
from .errors import AllTrialsFailed, AsasError, CoverageGap
from .features import (
    CachedFeatureBuilder,
    FeatureModelSpec,
    build_features,
    fit_feature_model,
)
from .hyperopt import feature_search_space, run_study, study_log
from .learners import (
    MlpModel,
    TrainConfig,
    mlp_forward,
    train_early_stop,
)
from .mathutil import log_softmax
from .metrics import EvalReport
from .serialize import Artifact, artifact_header, write_atomic

EXIT_VALIDATION = 2
EXIT_ALL_TRIALS_FAILED = 3
EXIT_COVERAGE_GAP = 4

DEFAULT_DEV_FRACTION = 0.2
DEFAULT_SEED = 7
DEFAULT_TRIALS = 20
DEFAULT_EPOCHS = 20
DEFAULT_HIDDEN = 256
DEFAULT_LR = 1e-3
DEFAULT_BATCH = 8
DEFAULT_TFIDF_DIM = 200
DEFAULT_CUTOFF = 0.8


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' comments and blanks are ignored."""
    cfg: dict[str, str] = {}
    for line_no, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise AsasError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


class _Ctx:
    """Resolved options for one command: flag, else config file, else default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.cfg = load_config_file(args.config) if getattr(args, "config", None) else {}
        self.inputs: dict[str, bytes] = {}

    def get(self, key: str, default=None, cast=str):
        val = getattr(self.args, key, None)
        if val is not None:
            return val
        if key in self.cfg:
            return cast(self.cfg[key])
        return default

    def read_input(self, path: str | Path) -> bytes:
        p = Path(path)
        if not p.is_file():
            raise AsasError(f"missing file: {p}")
        data = p.read_bytes()
        self.inputs[str(path)] = data
        return data

    def header(self, seed: int | None) -> str:
        return artifact_header(seed, self.inputs)


def _columns(ctx: _Ctx) -> ColumnMap:
    return ColumnMap(
        id=ctx.get("id_col", "Id"),
        prompt=ctx.get("prompt_col", "EssaySet"),
        score1=ctx.get("score1_col", "Score1"),
        score2=ctx.get("score2_col", "Score2"),
        text=ctx.get("text_col", "EssayText"),
    )


def _load_dataset(ctx: _Ctx) -> list[ScoredResponse]:
    data = ctx.get("data")
    if data is None:
        raise AsasError("--data is required")
    return parse_dataset(ctx.read_input(data), _columns(ctx))


def _load_test(ctx: _Ctx) -> list[ScoredResponse]:
    test_path = ctx.get("test")
    if test_path is None:
        return []
    data = ctx.read_input(test_path)
    cols = _columns(ctx)
    header = next(
        (ln for ln in data.decode("utf-8").split("\n") if ln and not ln.startswith("#")), ""
    ).rstrip("\r").split("\t")
    # test files are often unlabeled; missing score columns load as absent
    cols = ColumnMap(
        id=cols.id,
        prompt=cols.prompt,
        score1=cols.score1 if cols.score1 in header else "",
        score2=cols.score2 if cols.score2 in header else "",
        text=cols.text,
    )
    test = parse_dataset(data, cols)
    solution_path = ctx.get("solution")
    if solution_path is not None:
        scores = parse_score_table(
            ctx.read_input(solution_path),
            id_col=ctx.get("solution_id_col", "id"),
            score_col=ctx.get("solution_score_col", "essay_score"),
        )
        test = attach_scores(test, scores)
    return test


def _prompt_ids(ctx: _Ctx, responses: list[ScoredResponse]) -> list[int]:
    if ctx.get("all_prompts", False):
        return sorted({r.prompt_id for r in responses})
    prompt = ctx.get("prompt", cast=int)
    if prompt is None:
        raise AsasError("--prompt is required (or pass --all-prompts)")
    return [int(prompt)]


def _corpus(ctx: _Ctx, responses, test, prompt_id: int) -> PromptCorpus:
    seed = ctx.get("seed", DEFAULT_SEED, int)
    prompt_text = ""
    prompt_text_path = ctx.get("prompt_text")
    if prompt_text_path is not None:
        prompt_text = ctx.read_input(prompt_text_path).decode("utf-8")
    return build_corpus(
        responses,
        prompt_id=prompt_id,
        dev_fraction=ctx.get("dev_frac", DEFAULT_DEV_FRACTION, float),
        seed=prompt_seed(seed, prompt_id),
        test=test,
        prompt_text=prompt_text,
    )


def _embeddings(ctx: _Ctx):
    path = ctx.get("embeddings")
    if path is None:
        return None
    return load_embeddings(ctx.read_input(path))


def _out_dir(ctx: _Ctx, prompt_id: int | None = None) -> Path:
    out = ctx.get("out")
    if out is None:
        raise AsasError("--out is required")
    out = Path(out)
    if prompt_id is not None and ctx.get("all_prompts", False):
        out = out / f"prompt_{prompt_id}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, header: str, body: str) -> None:
    write_atomic(path, header + "\n" + body)


def _report_tsv(*reports: EvalReport) -> str:
    return EvalReport.TSV_HEADER + "\n" + "".join(r.to_tsv_row() + "\n" for r in reports)


def cmd_ingest(args) -> int:
    ctx = _Ctx(args)
    responses = _load_dataset(ctx)
    seed = ctx.get("seed", DEFAULT_SEED, int)
    counts: dict[int, int] = {}
    for r in responses:
        counts[r.prompt_id] = counts.get(r.prompt_id, 0) + 1
    lines = ["prompt\tn"] + [f"{p}\t{n}" for p, n in sorted(counts.items())]
    print(ctx.header(seed))
    print("\n".join(lines))
    out = ctx.get("out")
    if out is not None:
        body = serialize_dataset(responses, _columns(ctx)).decode("utf-8")
        _write(Path(out), ctx.header(seed), body)
    return 0


def cmd_stats(args) -> int:
    ctx = _Ctx(args)
    responses = _load_dataset(ctx)
    test = _load_test(ctx)
    seed = ctx.get("seed", DEFAULT_SEED, int)
    prompts = (
        sorted({r.prompt_id for r in responses})
        if ctx.get("prompt") is None
        else [ctx.get("prompt", cast=int)]
    )
    rows = []
    for pid in prompts:
        corpus = _corpus(ctx, responses, test, pid)
        rows.append(corpus_stats(corpus).to_tsv_row())
    table = StatsRow.TSV_HEADER + "\n" + "\n".join(rows) + "\n"
    print(ctx.header(seed))
    print(table, end="")
    out = ctx.get("out")
    if out is not None:
        _write(Path(out), ctx.header(seed), table)
    return 0


def cmd_split(args) -> int:
    ctx = _Ctx(args)
    responses = _load_dataset(ctx)
    seed = ctx.get("seed", DEFAULT_SEED, int)
    for pid in _prompt_ids(ctx, responses):
        corpus = _corpus(ctx, responses, [], pid)
        out = _out_dir(ctx, pid)
        cols = _columns(ctx)
        _write(out / "train.tsv", ctx.header(seed), serialize_dataset(corpus.train, cols).decode())
        _write(out / "dev.tsv", ctx.header(seed), serialize_dataset(corpus.dev, cols).decode())
        print(f"prompt {pid}: train {len(corpus.train)}, dev {len(corpus.dev)} -> {out}")
    return 0


def load_feature_model(path: str | Path) -> tuple[FeatureModelSpec, MlpModel]:
    art = Artifact.load(path, "feature-model")
    return FeatureModelSpec.from_artifact(art), MlpModel.from_arrays(art.arrays)


def _train_once(corpus, matrix, lr, batch, epochs, seed, hidden):
    train_ids = [r.id for r in corpus.train]
    dev_ids = [r.id for r in corpus.dev]
    config = TrainConfig(learning_rate=lr, batch_size=batch, epochs=epochs, seed=seed)
    model = MlpModel.init(matrix.dim, hidden, corpus.num_classes, seed)
    return train_early_stop(
        model,
        matrix.rows_for(train_ids),
        corpus.labels(corpus.train),
        matrix.rows_for(dev_ids),
        corpus.labels(corpus.dev),
        config,
    )


def _save_run(out: Path, header: str, corpus, spec: FeatureModelSpec, matrix, result) -> None:
    """Write a trained feature model, its training history and its dev report."""
    art = spec.to_artifact()
    art.kind = "feature-model"
    art.arrays.update(result.model.to_arrays())
    art.save(out / "model.txt", header)
    _write(out / "history.tsv", header, result.history_tsv())
    dev_ids = [r.id for r in corpus.dev]
    pred = np.argmax(mlp_forward(result.model, matrix.rows_for(dev_ids)), axis=1)
    report = evaluate_run(pred, corpus.labels(corpus.dev), corpus.num_classes, corpus.prompt_id)
    _write(out / "report_dev.tsv", header, _report_tsv(report))


def cmd_train_features(args) -> int:
    ctx = _Ctx(args)
    responses = _load_dataset(ctx)
    test = _load_test(ctx)
    embeddings = _embeddings(ctx)
    seed = ctx.get("seed", DEFAULT_SEED, int)
    for pid in _prompt_ids(ctx, responses):
        corpus = _corpus(ctx, responses, test, pid)
        spec, matrix = fit_feature_model(
            corpus,
            d_t=ctx.get("tfidf_dim", DEFAULT_TFIDF_DIM, int),
            near_match_cutoff=ctx.get("cutoff", DEFAULT_CUTOFF, float),
            embeddings=embeddings,
        )
        result = _train_once(
            corpus, matrix,
            lr=ctx.get("lr", DEFAULT_LR, float),
            batch=ctx.get("batch", DEFAULT_BATCH, int),
            epochs=ctx.get("epochs", DEFAULT_EPOCHS, int),
            seed=seed,
            hidden=ctx.get("hidden", DEFAULT_HIDDEN, int),
        )
        _save_run(_out_dir(ctx, pid), ctx.header(seed), corpus, spec, matrix, result)
        print(f"prompt {pid}: best dev QWK {result.best_dev_qwk:.4f} (epoch {result.best_epoch})")
    return 0


def cmd_tune(args) -> int:
    ctx = _Ctx(args)
    responses = _load_dataset(ctx)
    test = _load_test(ctx)
    embeddings = _embeddings(ctx)
    seed = ctx.get("seed", DEFAULT_SEED, int)
    trials = ctx.get("trials", DEFAULT_TRIALS, int)
    epochs = ctx.get("epochs", DEFAULT_EPOCHS, int)
    hidden = ctx.get("hidden", DEFAULT_HIDDEN, int)
    space = feature_search_space()
    for pid in _prompt_ids(ctx, responses):
        corpus = _corpus(ctx, responses, test, pid)
        builder = CachedFeatureBuilder(corpus, embeddings)
        kept = None

        def objective(params):
            nonlocal kept
            _, matrix = builder.build(int(params["tfidf_dim"]), float(params["cutoff"]))
            result = _train_once(
                corpus, matrix,
                lr=float(params["learning_rate"]), batch=int(params["batch_size"]),
                epochs=epochs, seed=seed, hidden=hidden,
            )
            # Trials run in index order, so a strict > keeps the lowest-index
            # trial of the highest objective: the one study.best picks.
            if kept is None or result.best_dev_qwk > kept.best_dev_qwk:
                kept = result
            return result.best_dev_qwk

        study = run_study(space, objective, n_trials=trials, seed=seed)
        out = _out_dir(ctx, pid)
        header = ctx.header(seed)
        _write(out / "study.tsv", header, study_log(space, study))
        best = study.best.params
        spec, matrix = builder.build(int(best["tfidf_dim"]), float(best["cutoff"]))
        _save_run(out, header, corpus, spec, matrix, kept)
        print(
            f"prompt {pid}: best trial {study.best.trial_index} "
            f"dev QWK {study.best.objective:.4f} params {best}"
        )
    return 0


def cmd_predict(args) -> int:
    ctx = _Ctx(args)
    model_path = ctx.get("model")
    if model_path is None:
        raise AsasError("--model is required")
    ctx.read_input(model_path)
    spec, mlp = load_feature_model(model_path)
    responses = _load_dataset(ctx)
    test = _load_test(ctx)
    embeddings = _embeddings(ctx)
    seed = ctx.get("seed", DEFAULT_SEED, int)
    name = ctx.get("name", "features")
    for pid in _prompt_ids(ctx, responses):
        corpus = _corpus(ctx, responses, test, pid)
        matrix = build_features(corpus, spec, embeddings)
        logits = mlp_forward(mlp, matrix.data)
        logprobs = log_softmax(logits, axis=1)
        rows = {rid: logprobs[i] for i, rid in enumerate(matrix.ids)}
        out_path = (
            _out_dir(ctx, pid) / "predictions.tsv"
            if ctx.get("all_prompts", False)
            else Path(ctx.get("out") or "predictions.tsv")
        )
        matrix_obj = LogProbMatrix(
            model_name=name, prompt_id=pid, k=corpus.num_classes, rows=rows
        )
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(out_path, dump_logprobs(matrix_obj, extra_comment=ctx.header(seed)))
        print(f"prompt {pid}: wrote {len(rows)} rows -> {out_path}")
    return 0


def cmd_ensemble(args) -> int:
    ctx = _Ctx(args)
    responses = _load_dataset(ctx)
    test = _load_test(ctx)
    seed = ctx.get("seed", DEFAULT_SEED, int)
    member_paths = ctx.get("members")
    if not member_paths:
        raise AsasError("--members is required")
    m = ctx.get("m", cast=int)
    if m is not None and (m < 1 or m > len(member_paths)):
        raise AsasError(f"--m must be between 1 and {len(member_paths)}")
    for pid in _prompt_ids(ctx, responses):
        corpus = _corpus(ctx, responses, test, pid)
        members = [load_logprobs(ctx.read_input(p), corpus) for p in member_paths]
        names = [mem.model_name for mem in members]
        if len(set(names)) != len(names):
            raise AsasError(f"duplicate member names: {names}")

        dev_ids = [r.id for r in corpus.dev]
        dev_gold = corpus.labels(corpus.dev)
        candidates = []
        for mem in members:
            design = np.array([mem.rows[rid] for rid in dev_ids])
            pred = np.argmax(design, axis=1)
            candidates.append(
                (mem.model_name, [evaluate_run(pred, dev_gold, corpus.num_classes, pid)])
            )
        if m is not None:
            chosen = select_best_subset(candidates, m)
            members = [mem for mem in members if mem.model_name in chosen]

        spec = fit_ensemble(members, corpus)
        out = _out_dir(ctx, pid)
        header = ctx.header(seed)
        spec.to_artifact().save(out / "ensemble.txt", header)

        dev_pred, _ = score_ensemble(spec, members, dev_ids)
        dev_report = evaluate_run(dev_pred, dev_gold, corpus.num_classes, pid)
        _write(out / "report_dev.tsv", header, _report_tsv(dev_report))

        if corpus.test:
            test_ids = [r.id for r in corpus.test]
            test_pred, test_logprobs = score_ensemble(spec, members, test_ids)
            rows = {rid: test_logprobs[i] for i, rid in enumerate(test_ids)}
            out_matrix = LogProbMatrix(
                model_name="ensemble", prompt_id=pid, k=corpus.num_classes, rows=rows
            )
            write_atomic(out / "predictions.tsv", dump_logprobs(out_matrix, extra_comment=header))
            if all(r.score1 is not None for r in corpus.test):
                test_report = evaluate_run(
                    test_pred, corpus.labels(corpus.test), corpus.num_classes, pid
                )
                _write(out / "report_test.tsv", header, _report_tsv(test_report))
        print(f"prompt {pid}: ensemble of {spec.members} dev QWK {dev_report.qwk:.4f}")
    return 0


def cmd_report(args) -> int:
    ctx = _Ctx(args)
    reports = []
    for path in args.reports:
        text = ctx.read_input(path).decode("utf-8")
        for line in text.splitlines():
            if not line or line.startswith("#") or line.startswith("prompt\t"):
                continue
            report = EvalReport.from_tsv_row(line)
            if report.prompt_id >= 0:
                reports.append(report)
    if not reports:
        raise AsasError("no report rows found")
    reports.sort(key=lambda r: r.prompt_id)
    table = _report_tsv(*reports, mean_report(reports))
    seed = ctx.get("seed", DEFAULT_SEED, int)
    print(ctx.header(seed))
    print(table, end="")
    out = ctx.get("out")
    if out is not None:
        _write(Path(out), ctx.header(seed), table)
    return 0


def _add_common(p: argparse.ArgumentParser, *names: str) -> None:
    opts = {
        "config": dict(help="flat key = value config file"),
        "data": dict(help="training dataset TSV"),
        "test": dict(help="test dataset TSV"),
        "solution": dict(help="test solution table (id,score) to join by id"),
        "prompt": dict(type=int, help="prompt id to process"),
        "all_prompts": dict(action="store_true", default=None, help="loop over all prompts"),
        "dev_frac": dict(type=float, help="dev fraction (default 0.2)"),
        "seed": dict(type=int, help="base seed (default 7)"),
        "out": dict(help="output file or directory"),
        "embeddings": dict(help="embedding table file"),
        "prompt_text": dict(help="file holding the prompt/passage text"),
        "id_col": dict(help="dataset id column (default Id)"),
        "prompt_col": dict(help="dataset prompt column (default EssaySet)"),
        "score1_col": dict(help="dataset score1 column (default Score1)"),
        "score2_col": dict(help="dataset score2 column (default Score2)"),
        "text_col": dict(help="dataset text column (default EssayText)"),
        "lr": dict(type=float, help="learning rate"),
        "batch": dict(type=int, help="batch size"),
        "epochs": dict(type=int, help="training epochs (default 20)"),
        "hidden": dict(type=int, help="MLP hidden width (default 256)"),
        "tfidf_dim": dict(type=int, help="TF-IDF projection dimension"),
        "cutoff": dict(type=float, help="near-match cutoff in [0.5, 1.0]"),
        "trials": dict(type=int, help="hyperparameter trials (default 20)"),
        "model": dict(help="feature model file"),
        "name": dict(help="model name for exported predictions"),
        "members": dict(nargs="+", help="member log-probability files"),
        "m": dict(type=int, help="ensemble the best m members by dev QWK"),
    }
    for name in names:
        flag = "--" + name.replace("_", "-")
        p.add_argument(flag, **opts[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and validate a dataset")
    _add_common(p, "config", "data", "seed", "out",
                "id_col", "prompt_col", "score1_col", "score2_col", "text_col")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("stats", help="per-prompt corpus statistics")
    _add_common(p, "config", "data", "test", "solution", "prompt", "dev_frac", "seed", "out",
                "id_col", "prompt_col", "score1_col", "score2_col", "text_col")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="write the train/dev partition")
    _add_common(p, "config", "data", "prompt", "all_prompts", "dev_frac", "seed", "out")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train-features", help="fit the feature model with fixed hyperparameters")
    _add_common(p, "config", "data", "test", "solution", "prompt", "all_prompts",
                "dev_frac", "seed", "out", "embeddings", "prompt_text",
                "lr", "batch", "epochs", "hidden", "tfidf_dim", "cutoff")
    p.set_defaults(func=cmd_train_features)

    p = sub.add_parser("tune", help="TPE search over lr/batch/tfidf-dim/cutoff, then train")
    _add_common(p, "config", "data", "test", "solution", "prompt", "all_prompts",
                "dev_frac", "seed", "out", "embeddings", "prompt_text",
                "epochs", "hidden", "trials")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", help="export feature-model log-probabilities")
    _add_common(p, "config", "model", "data", "test", "solution", "prompt", "all_prompts",
                "dev_frac", "seed", "out", "embeddings", "prompt_text", "name")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ensemble", help="stack member log-probabilities")
    _add_common(p, "config", "data", "test", "solution", "prompt", "all_prompts",
                "dev_frac", "seed", "out", "members", "m")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("report", help="merge per-prompt reports and add the mean row")
    _add_common(p, "config", "seed", "out")
    p.add_argument("reports", nargs="+", help="report TSV files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_VALIDATION
    try:
        return args.func(args)
    except CoverageGap as exc:
        print(f"asas: {exc}", file=sys.stderr)
        return EXIT_COVERAGE_GAP
    except AllTrialsFailed as exc:
        print(f"asas: {exc}", file=sys.stderr)
        return EXIT_ALL_TRIALS_FAILED
    except (AsasError, OSError, ValueError) as exc:
        print(f"asas: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
