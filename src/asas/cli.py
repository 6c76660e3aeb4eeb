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
import math
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import (
    ColumnMap,
    build_corpus,
    corpus_stats,
    data_lines,
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
from .errors import (
    AllTrialsFailed,
    AsasError,
    CoverageGap,
    DegenerateDistribution,
    DuplicateId,
    HeaderMismatch,
    MalformedRow,
    MissingPromptPlaceholder,
    SingleClass,
    TooFewRows,
)
from .features import (
    MIN_CUTOFF,
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
from .serialize import Artifact, artifact_header, digest, write_atomic

EXIT_VALIDATION = 2  # usage and validation errors
EXIT_CODES = {AllTrialsFailed: 3, CoverageGap: 4}


class Option(NamedTuple):
    type: type  # str, int, float, bool (a switch) or list (one or more words)
    default: object
    help: str

    def parse(self, text: str):
        """A config value: words for a list, true or false for a switch, else a literal."""
        if self.type is list:
            return text.split()
        if self.type is bool and text not in ("true", "false"):
            raise ValueError(f"expected true or false, got {text!r}")
        return text == "true" if self.type is bool else self.type(text)


# Every option, declared once. Its flag is --name with dashes, its config
# key is the name itself; options no command lists are config-only.
OPTIONS = {
    "config": Option(str, None, "flat key = value config file"),
    "data": Option(str, None, "training dataset TSV"),
    "test": Option(str, None, "test dataset TSV"),
    "solution": Option(str, None, "test solution table (id,score) to join by id"),
    "solution_id_col": Option(str, "id", "solution table id column"),
    "solution_score_col": Option(str, "essay_score", "solution table score column"),
    "prompt": Option(int, None, "prompt id to process"),
    "all_prompts": Option(bool, False, "loop over all prompts"),
    "dev_frac": Option(float, 0.2, "dev fraction"),
    "seed": Option(int, 7, "base seed"),
    "out": Option(str, None, "output file or directory"),
    "embeddings": Option(str, None, "embedding table file"),
    "prompt_text": Option(str, None, "file holding the prompt/passage text"),
    "id_col": Option(str, ColumnMap.id, "dataset id column"),
    "prompt_col": Option(str, ColumnMap.prompt, "dataset prompt column"),
    "score1_col": Option(str, ColumnMap.score1, "dataset score1 column"),
    "score2_col": Option(str, ColumnMap.score2, "dataset score2 column"),
    "text_col": Option(str, ColumnMap.text, "dataset text column"),
    "lr": Option(float, 1e-3, "learning rate"),
    "batch": Option(int, 8, "batch size"),
    "epochs": Option(int, 20, "training epochs"),
    "hidden": Option(int, 256, "MLP hidden width"),
    "tfidf_dim": Option(int, 200, "TF-IDF projection dimension"),
    "cutoff": Option(float, 0.8, "near-match cutoff in [0.5, 1.0]"),
    "trials": Option(int, 20, "hyperparameter trials"),
    "model": Option(str, None, "feature model file; {prompt} in it stands for the prompt id"),
    "name": Option(str, "features", "model name for exported predictions"),
    "members": Option(
        list, None, "member log-probability files; {prompt} in a path stands for the prompt id"
    ),
    "m": Option(int, None, "ensemble the best m members by dev QWK"),
}
DEFAULT_HIDDEN = OPTIONS["hidden"].default


def load_config_file(path: str | Path) -> dict[str, object]:
    """Parse ``key = value`` lines; '#' comments and blanks are ignored."""
    cfg: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AsasError(f"{path}: {exc}") from None
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}:{line_no}"
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise AsasError(f"{where}: expected 'key = value'")
        if key not in OPTIONS or key == "config":
            raise AsasError(f"{where}: unknown key {key!r}")
        try:
            cfg[key] = OPTIONS[key].parse(value)
        except ValueError as exc:
            raise AsasError(f"{where}: bad value for {key}: {exc}") from None
    return cfg


class _Ctx:
    """Every option resolved once (flag, else config file, else default) as an attribute."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        cfg = load_config_file(args.config) if args.config else {}
        for name, opt in OPTIONS.items():
            flag = getattr(args, name, None)
            setattr(self, name, flag if flag is not None else cfg.get(name, opt.default))
        self.columns = ColumnMap(
            self.id_col, self.prompt_col, self.score1_col, self.score2_col, self.text_col
        )
        self.digests: dict[str, str] = {}  # path -> digest of each input read

    def read_input(self, path: str | Path) -> bytes:
        data = _existing(path).read_bytes()
        self.digests[str(path)] = digest(data)
        return data

    def parse_input(self, path: str | Path, parse, *args):
        """``parse(bytes of path, *args)``; an error it raises names ``path``. An
        ``AsasError`` keeps its class (its exit code); a ``ValueError`` is ``MalformedRow``."""
        data = self.read_input(path)
        try:
            return parse(data, *args)
        except (AsasError, ValueError) as exc:
            kind = type(exc) if isinstance(exc, AsasError) else MalformedRow
            raise kind(f"{path}: {exc}") from None

    def header(self) -> str:
        return artifact_header(self.seed, digests=self.digests)


def _existing(path: str | Path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise AsasError(f"missing file: {p}")
    return p


def _load_dataset(ctx: _Ctx, prompts: set[int] | None = None):
    """--data, every row checked; records only for ``prompts`` (all when None)."""
    if ctx.data is None:
        raise AsasError("--data is required")
    return ctx.parse_input(ctx.data, parse_dataset, ctx.columns, prompts)


def _load_test(ctx: _Ctx, prompts: set[int] | None = None):
    """--test like --data, each score1 taken from --solution when it is given;
    the solution is read first, so its faults are reported before the test file's."""
    if ctx.test is None:
        return []
    scores = None
    if ctx.solution is not None:
        cols = ctx.solution_id_col, ctx.solution_score_col
        scores = ctx.parse_input(ctx.solution, parse_score_table, *cols)
    return ctx.parse_input(ctx.test, parse_dataset, ctx.columns, prompts, scores)


def _each(value, fn):
    """``fn`` of an option's path, or a list of ``fn`` of each of its paths; None stays None."""
    if isinstance(value, list):
        return [fn(p) for p in value]
    return None if value is None else fn(value)


def _expand(value, pid: int):
    """An option's path, or list of paths, with {prompt} standing for ``pid``."""
    return _each(value, lambda p: p.replace("{prompt}", str(pid)))


# How _corpora parses a file of each per-prompt option for the prompt's corpus.
# Each entry looks its loader up when called, so replacing this module's
# load_embeddings or load_logprobs (as a tracer does) replaces it here too.
_PARSERS = {
    "embeddings": lambda data, corpus: load_embeddings(data, corpus),
    "model": lambda data, corpus: _parse_feature_model(data),
    "members": lambda data, corpus: load_logprobs(data, corpus),
}


def _corpora(ctx: _Ctx, *files: str, test: bool = True):
    """(id, corpus, parsed) of --prompt, or of every prompt with --all-prompts.

    ``files`` names the options that hold one prompt's file(s); the value of
    each, with {prompt} expanded to the id, is read once and parsed:
    --prompt-text into the corpus, any other into ``parsed[name]`` (None
    when the option is unset, a list for --members). Over several prompts
    each such path must contain {prompt}; that is checked before any
    per-prompt file is read or anything is written, as is that every
    expanded path is a file. Every prompt's corpus is split and all its
    files parsed before the first is yielded, so a bad file of any prompt
    stops the command before its first prompt's work; with --all-prompts
    every prompt's parsed files are held at once. Each header names the
    shared inputs and its own prompt's files. --dev-frac is checked first,
    then that --prompt or --all-prompts is given: every row of --data,
    --test and --solution is read and checked, but records are built only
    for --prompt's rows."""
    if not 0.0 < ctx.dev_frac < 1.0:
        raise AsasError(f"--dev-frac must be in (0, 1), got {ctx.dev_frac}")
    if not ctx.all_prompts and ctx.prompt is None:
        raise AsasError("--prompt is required (or pass --all-prompts)")
    prompts = None if ctx.all_prompts else {ctx.prompt}
    responses = _load_dataset(ctx, prompts)
    test_rows = _load_test(ctx, prompts) if test else []
    pids = sorted({r.prompt_id for r in responses}) if ctx.all_prompts else [ctx.prompt]
    for name in files:
        value = getattr(ctx, name)
        for path in [value] if isinstance(value, str) else value or []:
            if len(pids) > 1 and "{prompt}" not in path:
                raise MissingPromptPlaceholder(
                    f"--{name.replace('_', '-')} path {path} has no {{prompt}} placeholder, but"
                    f" --all-prompts covers {len(pids)} prompts; name each prompt's file,"
                    " e.g. run_{prompt}.tsv"
                )
            for pid in pids:
                _existing(_expand(path, pid))
    shared_digests, runs = dict(ctx.digests), []
    for pid in pids:
        ctx.digests = dict(shared_digests)
        paths = {name: _expand(getattr(ctx, name), pid) for name in files}
        text = paths.pop("prompt_text", None)
        corpus = build_corpus(
            responses,
            prompt_id=pid,
            dev_fraction=ctx.dev_frac,
            seed=prompt_seed(ctx.seed, pid),
            test=test_rows,
            prompt_text="" if text is None else ctx.parse_input(text, bytes.decode, "utf-8"),
        )
        parsed = {
            name: _each(value, lambda p: ctx.parse_input(p, _PARSERS[name], corpus))
            for name, value in paths.items()
        }
        runs.append((pid, corpus, parsed, ctx.digests))
    for pid, corpus, parsed, digests in runs:
        ctx.digests = digests
        yield pid, corpus, parsed


@contextmanager
def _naming(pid: int):
    """Prefix ``prompt <pid>: `` to the fit and score errors that cannot name
    their prompt; each keeps its class, so its exit code."""
    try:
        yield
    except (TooFewRows, SingleClass, DegenerateDistribution) as exc:
        raise type(exc)(f"prompt {pid}: {exc}") from None


def _check_training(ctx: _Ctx, *names: str) -> None:
    """Exit 2 before any featurising when --seed is negative or a fixed
    training value is not positive or not finite."""
    if ctx.seed < 0:
        raise AsasError(f"--seed must be non-negative, got {ctx.seed}")
    for name in names:
        value, flag = getattr(ctx, name), "--" + name.replace("_", "-")
        if not value > 0:
            raise AsasError(f"{flag} must be positive, got {value}")
        if not math.isfinite(value):
            raise AsasError(f"{flag} must be finite, got {value}")


def _require_out(ctx: _Ctx) -> None:
    """Exit 2 before any work when --out, which the command writes to, is unset."""
    if ctx.out is None:
        raise AsasError("--out is required")


def _out_dir(ctx: _Ctx, prompt_id: int) -> Path:
    """--out, or its prompt_<id> subdirectory with --all-prompts; created if absent."""
    out = Path(ctx.out) / f"prompt_{prompt_id}" if ctx.all_prompts else Path(ctx.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, header: str, body: str) -> None:
    write_atomic(path, header + "\n" + body)


def _emit(ctx: _Ctx, table: str, body: str | None = None) -> None:
    """Print the header and ``table``; write them, or the header and ``body``, to --out."""
    print(ctx.header())
    print(table, end="")
    if ctx.out is not None:
        out = Path(ctx.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        _write(out, ctx.header(), table if body is None else body)


def _logprob_file(header: str, name: str, corpus, ids, logprobs) -> bytes:
    """The ``logprobs`` row of each id as model ``name``'s member file."""
    rows = {rid: logprobs[i] for i, rid in enumerate(ids)}
    matrix = LogProbMatrix(name, corpus.prompt_id, corpus.num_classes, rows)
    return dump_logprobs(matrix, extra_comment=header)


def _report_tsv(*reports: EvalReport) -> str:
    return EvalReport.TSV_HEADER + "\n" + "".join(r.to_tsv_row() + "\n" for r in reports)


def cmd_ingest(ctx: _Ctx) -> None:
    responses = _load_dataset(ctx)
    counts = Counter(r.prompt_id for r in responses)
    table = "prompt\tn\n" + "".join(f"{p}\t{n}\n" for p, n in sorted(counts.items()))
    body = serialize_dataset(responses, ctx.columns).decode() if ctx.out is not None else None
    _emit(ctx, table, body)


def cmd_stats(ctx: _Ctx) -> None:
    ctx.all_prompts = ctx.prompt is None  # stats covers every prompt unless --prompt names one
    rows = "".join(corpus_stats(c).to_tsv_row() + "\n" for _, c, _ in _corpora(ctx))
    _emit(ctx, StatsRow.TSV_HEADER + "\n" + rows)


def cmd_split(ctx: _Ctx) -> None:
    _require_out(ctx)
    for pid, corpus, _ in _corpora(ctx, test=False):
        out = _out_dir(ctx, pid)
        for name, rows in (("train.tsv", corpus.train), ("dev.tsv", corpus.dev)):
            _write(out / name, ctx.header(), serialize_dataset(rows, ctx.columns).decode())
        print(f"prompt {pid}: train {len(corpus.train)}, dev {len(corpus.dev)} -> {out}")


def _feature_model(art: Artifact) -> tuple[FeatureModelSpec, MlpModel]:
    """The spec and MLP of a feature model; HeaderMismatch if the MLP's input
    width is not the spec's feature count."""
    spec, mlp = FeatureModelSpec.from_artifact(art), MlpModel.from_arrays(art.arrays)
    if mlp.w1.shape[0] != spec.feature_dim:
        raise HeaderMismatch(
            f"the feature spec gives {spec.feature_dim} features, but matrix mlp_w1 has"
            f" {mlp.w1.shape[0]} rows"
        )
    return spec, mlp


def load_feature_model(path: str | Path) -> tuple[FeatureModelSpec, MlpModel]:
    return _feature_model(Artifact.load(path, "feature-model"))


def _parse_feature_model(data: bytes) -> tuple[FeatureModelSpec, MlpModel]:
    return _feature_model(Artifact.parse(data.decode("utf-8"), "feature-model"))


def _train_once(corpus, matrix, lr, batch, epochs, seed, hidden):
    config = TrainConfig(learning_rate=lr, batch_size=batch, epochs=epochs, seed=seed)
    model = MlpModel.init(matrix.dim, hidden, corpus.num_classes, seed)
    return train_early_stop(
        model,
        matrix.rows_for([r.id for r in corpus.train]),
        corpus.labels(corpus.train),
        matrix.rows_for([r.id for r in corpus.dev]),
        corpus.labels(corpus.dev),
        config,
    )


def _save_run(ctx: _Ctx, pid: int, corpus, spec: FeatureModelSpec, matrix, result) -> Path:
    """Write a trained feature model, its training history, its dev report and,
    as ``predictions.tsv``, its log-probabilities on every row it was fitted on,
    into the prompt's output directory, which is returned. The dev report and
    the member file, which can fail, are made before the directory is."""
    header = ctx.header()
    dev_ids = [r.id for r in corpus.dev]
    pred = np.argmax(mlp_forward(result.model, matrix.rows_for(dev_ids)), axis=1)
    report = evaluate_run(pred, corpus.labels(corpus.dev), corpus.num_classes, corpus.prompt_id)
    logprobs = log_softmax(mlp_forward(result.model, matrix.data), axis=1)
    member = _logprob_file(header, ctx.name, corpus, matrix.ids, logprobs)
    art = spec.to_artifact()
    art.kind = "feature-model"
    art.arrays.update(result.model.to_arrays())
    out = _out_dir(ctx, pid)
    art.save(out / "model.txt", header)
    _write(out / "history.tsv", header, result.history_tsv())
    _write(out / "report_dev.tsv", header, _report_tsv(report))
    write_atomic(out / "predictions.tsv", member)
    return out


def cmd_train_features(ctx: _Ctx) -> None:
    _require_out(ctx)
    _check_training(ctx, "lr", "batch", "epochs", "hidden", "tfidf_dim")
    if not MIN_CUTOFF <= ctx.cutoff <= 1.0:
        raise AsasError(f"--cutoff must be in [{MIN_CUTOFF}, 1.0], got {ctx.cutoff}")
    for pid, corpus, parsed in _corpora(ctx, "prompt_text", "embeddings"):
        spec, matrix = fit_feature_model(corpus, ctx.tfidf_dim, ctx.cutoff, parsed["embeddings"])
        result = _train_once(
            corpus, matrix, lr=ctx.lr, batch=ctx.batch, epochs=ctx.epochs,
            seed=ctx.seed, hidden=ctx.hidden,
        )
        with _naming(pid):
            _save_run(ctx, pid, corpus, spec, matrix, result)
        print(f"prompt {pid}: best dev QWK {result.best_dev_qwk:.4f} (epoch {result.best_epoch})")


def cmd_tune(ctx: _Ctx) -> None:
    _require_out(ctx)
    _check_training(ctx, "epochs", "hidden", "trials")
    space = feature_search_space()
    for pid, corpus, parsed in _corpora(ctx, "prompt_text", "embeddings"):
        # fitted once at the widest settings the study can ask build() for
        builder = CachedFeatureBuilder(
            corpus, parsed["embeddings"],
            d_t_max=space.params["tfidf_dim"].hi, floor=space.params["cutoff"].lo,
        )
        kept = None

        def objective(params):
            nonlocal kept
            spec, matrix = builder.build(int(params["tfidf_dim"]), float(params["cutoff"]))
            result = _train_once(
                corpus, matrix,
                lr=float(params["learning_rate"]), batch=int(params["batch_size"]),
                epochs=ctx.epochs, seed=ctx.seed, hidden=ctx.hidden,
            )
            # Trials run in index order, so a strict > keeps the lowest-index
            # trial of the highest objective: the one study.best picks.
            if kept is None or result.best_dev_qwk > kept[2].best_dev_qwk:
                kept = spec, matrix, result
            return result.best_dev_qwk

        study = run_study(space, objective, n_trials=ctx.trials, seed=ctx.seed)
        with _naming(pid):
            out = _save_run(ctx, pid, corpus, *kept)
        _write(out / "study.tsv", ctx.header(), study_log(space, study))
        print(
            f"prompt {pid}: best trial {study.best.trial_index} "
            f"dev QWK {study.best.objective:.4f} params {study.best.params}"
        )


def cmd_predict(ctx: _Ctx) -> None:
    if ctx.model is None:
        raise AsasError("--model is required")
    if ctx.all_prompts:
        _require_out(ctx)
    for pid, corpus, parsed in _corpora(ctx, "prompt_text", "embeddings", "model"):
        spec, mlp = parsed["model"]
        matrix = build_features(corpus, spec, parsed["embeddings"])
        logprobs = log_softmax(mlp_forward(mlp, matrix.data), axis=1)
        text = _logprob_file(ctx.header(), ctx.name, corpus, matrix.ids, logprobs)
        single = Path(ctx.out or "predictions.tsv")
        path = _out_dir(ctx, pid) / "predictions.tsv" if ctx.all_prompts else single
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, text)
        print(f"prompt {pid}: wrote {len(matrix.ids)} rows -> {path}")


def cmd_ensemble(ctx: _Ctx) -> None:
    _require_out(ctx)
    if not ctx.members:
        raise AsasError("--members is required")
    if ctx.m is not None and not 1 <= ctx.m <= len(ctx.members):
        raise AsasError(f"--m must be between 1 and {len(ctx.members)}")
    # every prompt is fitted and scored before the first file is written
    runs = []
    for pid, corpus, parsed in _corpora(ctx, "members"):
        with _naming(pid):
            k = corpus.num_classes
            members = select_best_subset(parsed["members"], corpus, ctx.m)
            spec = fit_ensemble(members, corpus)
            dev_pred, _ = score_ensemble(spec, members, [r.id for r in corpus.dev])
            reports = {"report_dev.tsv": evaluate_run(dev_pred, corpus.labels(corpus.dev), k, pid)}
            test = None
            if corpus.test:
                test_ids = [r.id for r in corpus.test]
                test_pred, logprobs = score_ensemble(spec, members, test_ids)
                test = _logprob_file(ctx.header(), "ensemble", corpus, test_ids, logprobs)
                if all(r.score1 is not None for r in corpus.test):
                    test_gold = corpus.labels(corpus.test)
                    reports["report_test.tsv"] = evaluate_run(test_pred, test_gold, k, pid)
            runs.append((pid, ctx.header(), spec, reports, test))

    for pid, header, spec, reports, test in runs:
        out = _out_dir(ctx, pid)
        spec.to_artifact().save(out / "ensemble.txt", header)
        for name, report in reports.items():
            _write(out / name, header, _report_tsv(report))
        if test is not None:
            write_atomic(out / "predictions.tsv", test)
        head = spec.head
        print(
            f"prompt {pid}: ensemble of {spec.members}"
            f" dev QWK {reports['report_dev.tsv'].qwk:.4f};"
            f" stacker {head.iterations} iterations, gradient inf-norm {head.grad_norm:.2e}"
            + ("" if head.converged else ", not converged")
        )


def cmd_report(ctx: _Ctx) -> None:
    reports, seen = [], {}
    for path in ctx.args.reports:
        for line_no, line in data_lines(ctx.parse_input(path, bytes.decode, "utf-8")):
            if not line.startswith("prompt\t"):
                where = f"{path}:{line_no}"
                try:
                    report = EvalReport.from_tsv_row(line)
                except ValueError as exc:
                    raise MalformedRow(f"{where}: not a report row ({exc})") from None
                if report.prompt_id < 0:
                    continue  # a mean row; the mean is recomputed
                if report.prompt_id in seen:
                    raise DuplicateId(
                        f"{where}: a second row for prompt {report.prompt_id}"
                        f" (first at {seen[report.prompt_id]})"
                    )
                seen[report.prompt_id] = where
                reports.append(report)
    if not reports:
        raise AsasError("no report rows found")
    reports.sort(key=lambda r: r.prompt_id)
    _emit(ctx, _report_tsv(*reports, mean_report(reports)))


_COLUMNS = " id_col prompt_col score1_col score2_col text_col"
_SPLIT = "data prompt all_prompts dev_frac seed out"
_PER_PROMPT = _SPLIT + " test solution"
_FEATURES = _PER_PROMPT + " embeddings prompt_text"

# Each subcommand: (function, help, its options besides --config).
COMMANDS = {
    "ingest": (cmd_ingest, "parse and validate a dataset", "data seed out" + _COLUMNS),
    "stats": (
        cmd_stats, "per-prompt corpus statistics",
        "data test solution prompt dev_frac seed out" + _COLUMNS,
    ),
    "split": (cmd_split, "write the train/dev partition", _SPLIT),
    "train-features": (
        cmd_train_features, "fit the feature model with fixed hyperparameters",
        _FEATURES + " lr batch epochs hidden tfidf_dim cutoff",
    ),
    "tune": (
        cmd_tune, "TPE search over lr/batch/tfidf-dim/cutoff, then train",
        _FEATURES + " epochs hidden trials",
    ),
    "predict": (cmd_predict, "export feature-model log-probabilities", _FEATURES + " model name"),
    "ensemble": (cmd_ensemble, "stack member log-probabilities", _PER_PROMPT + " members m"),
    "report": (cmd_report, "merge per-prompt reports and add the mean row", "seed out"),
}


def _add_option(parser: argparse.ArgumentParser, name: str) -> None:
    """--name; it defaults to None so that a config value or the table default applies."""
    opt = OPTIONS[name]
    help = opt.help
    if opt.default is not None:
        shown = str(opt.default).lower() if opt.type is bool else opt.default
        help += f" (default: {shown})"
    kind = {bool: dict(action="store_true"), list: dict(nargs="+")}.get(opt.type)
    parser.add_argument(
        "--" + name.replace("_", "-"), default=None, help=help, **(kind or dict(type=opt.type))
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help)
        for name in ["config", *names.split()]:
            _add_option(p, name)
        if command == "report":
            p.add_argument("reports", nargs="+", help="report TSV files")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(_Ctx(args))
        return 0
    except SystemExit as exc:  # argparse: --help, or a usage error
        return 0 if exc.code in (0, None) else EXIT_VALIDATION
    except (AsasError, OSError) as exc:
        print(f"asas: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
