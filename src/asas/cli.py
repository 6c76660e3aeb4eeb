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
import functools
import math
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple

from .corpus import (
    ColumnMap,
    build_corpus,
    corpus_stats,
    dump_logprobs,
    load_embeddings,
    load_logprobs,
    LogProbMatrix,
    parse_dataset,
    parse_score_table,
    prompt_seed,
    PromptCorpus,
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
    DuplicateId,
    HeaderMismatch,
    MalformedRow,
    MissingPromptPlaceholder,
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
from .serialize import Artifact, artifact_header, data_lines, digest, write_atomic

EXIT_VALIDATION = 2  # usage and validation errors
EXIT_CODES = {AllTrialsFailed: 3, CoverageGap: 4}


class Check(NamedTuple):
    holds: Callable[[object], bool]
    says: str  # the message for a value that fails, formatted with its flag and value


_POSITIVE = Check(lambda v: v > 0, "{flag} must be positive, got {value}")


class Option(NamedTuple):
    type: type  # str, int, float, bool (a switch) or list (one or more words)
    default: object
    help: str
    rule: tuple[Check, ...] = ()  # what its value must meet: from a flag, config or default

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
    "dev_frac": Option(float, 0.2, "dev fraction", (
        Check(lambda v: 0 < v < 1, "{flag} must be in (0, 1), got {value}"),
    )),
    "seed": Option(int, 7, "base seed", (
        Check(lambda v: v >= 0, "{flag} must be non-negative, got {value}"),
    )),
    "out": Option(str, None, "output file or directory"),
    "embeddings": Option(str, None, "embedding table file"),
    "prompt_text": Option(str, None, "file holding the prompt/passage text"),
    "id_col": Option(str, ColumnMap.id, "dataset id column", (
        # it opens the header line of each dataset written
        Check(lambda v: not v.startswith("#"),
              "id_col must not start with '#' (a comment), got {value!r}"),
    )),
    "prompt_col": Option(str, ColumnMap.prompt, "dataset prompt column"),
    "score1_col": Option(str, ColumnMap.score1, "dataset score1 column"),
    "score2_col": Option(str, ColumnMap.score2, "dataset score2 column"),
    "text_col": Option(str, ColumnMap.text, "dataset text column"),
    "lr": Option(float, 1e-3, "learning rate", (
        _POSITIVE, Check(math.isfinite, "{flag} must be finite, got {value}"),
    )),
    "batch": Option(int, 8, "batch size", (_POSITIVE,)),
    "epochs": Option(int, 20, "training epochs", (_POSITIVE,)),
    "hidden": Option(int, 256, "MLP hidden width", (_POSITIVE,)),
    "tfidf_dim": Option(int, 200, "TF-IDF projection dimension", (_POSITIVE,)),
    "cutoff": Option(float, 0.8, "near-match cutoff in [0.5, 1.0]", (
        Check(lambda v: MIN_CUTOFF <= v <= 1,
              f"{{flag}} must be in [{MIN_CUTOFF}, 1.0], got {{value}}"),
    )),
    "trials": Option(int, 20, "hyperparameter trials", (_POSITIVE,)),
    "model": Option(str, None, "feature model file; {prompt} in it stands for the prompt id"),
    "name": Option(str, "features", "model name for exported predictions", (
        Check(lambda v: not any(c in v for c in "\t\r\n"),
              "{flag} must not hold a tab, CR or LF, got {value!r}"),
    )),
    "members": Option(
        list, None, "member log-probability files; {prompt} in a path stands for the prompt id"
    ),
    "m": Option(int, None, "ensemble the best m members by dev QWK"),
}


def load_config_file(path: str | Path) -> dict[str, object]:
    """Parse ``key = value`` lines; '#' comments and blanks are ignored."""
    cfg: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AsasError(f"{path}: {exc}") from None
    for line_no, line in data_lines(text):
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


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


class _Ctx:
    """Every option resolved once (flag, else config file, else default) as an attribute.

    Before any file but the config file is read, every option's value must
    meet its rule, whether the command reads that option or not, and the
    command's required options must be set."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        _check_utf8(args)
        cfg = load_config_file(args.config) if args.config else {}
        for name, opt in OPTIONS.items():
            flag = getattr(args, name, None)
            value = flag if flag is not None else cfg.get(name, opt.default)
            for holds, says in opt.rule:
                if not holds(value):
                    raise AsasError(says.format(flag=_flag(name), value=value))
            setattr(self, name, value)
        # --prompt and --all-prompts set one scope, so a flag for either
        # replaces both config keys; both set in one place is an error.
        names = ("prompt", "all_prompts")
        scope, source = [getattr(args, n, None) for n in names], "on the command line"
        if scope == [None, None]:
            scope, source = [cfg.get(n) for n in names], f"in {args.config}"
        if scope[0] is not None and scope[1]:
            raise AsasError(f"--prompt and --all-prompts are both set {source}; give one of them")
        self.prompt, self.all_prompts = scope[0], bool(scope[1])
        self.require(*COMMANDS[args.command][3].split())
        self.columns = ColumnMap(
            self.id_col, self.prompt_col, self.score1_col, self.score2_col, self.text_col
        )
        self.digests: dict[str, str] = {}  # path -> digest of each input read

    def require(self, *names: str) -> None:
        """Exit 2 naming the first of the options ``names`` that is unset."""
        for name in names:
            if getattr(self, name) in (None, []):
                raise AsasError(f"{_flag(name)} is required")

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


def _check_utf8(args: argparse.Namespace) -> None:
    """Exit 2, naming the flag, when a command-line string is not UTF-8: its
    undecodable bytes arrive as lone surrogates, which no output can encode."""
    for name, value in vars(args).items():
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, str):
                try:
                    item.encode("utf-8")
                except UnicodeEncodeError:
                    flag = "a report path" if name == "reports" else _flag(name)
                    raise AsasError(f"{flag} is not valid UTF-8: {item!r}") from None


def _existing(path: str | Path) -> Path:
    p = Path(path)
    if not p.is_file():
        raise AsasError(f"missing file: {p}")
    return p


class _Run(NamedTuple):
    """One prompt's work: its corpus, its parsed per-prompt files, the header
    of its outputs and the directory they go to."""

    prompt: int
    corpus: PromptCorpus
    parsed: dict[str, object]
    header: str
    out: Path | None


def _runs(ctx: _Ctx, all_prompts: bool, *files: str, test: bool = True) -> list[_Run]:
    """The run of --prompt, or of every prompt when ``all_prompts``.

    ``files`` names the options that hold one prompt's file(s); the value of
    each, with {prompt} expanded to the id, is read once and parsed:
    --prompt-text into the corpus, any other into ``parsed[name]`` (None
    when the option is unset, a list for --members). Over several prompts
    each such path must contain {prompt}; that is checked before any
    per-prompt file is read or anything is written, as is that every
    expanded path is a file. Every prompt's corpus is split and all its
    files parsed before the runs are returned, so a bad file of any prompt
    stops the command before its first prompt's work; over several prompts
    every prompt's parsed files are held at once. Each header names the
    shared inputs and its own prompt's files; each output directory is
    --out, or its prompt_<id> subdirectory with --all-prompts. The scope is
    checked first: every row of --data, --test and --solution is read and
    checked, but records are built only for --prompt's rows."""
    if not all_prompts and ctx.prompt is None:
        raise AsasError("--prompt is required (or pass --all-prompts)")
    prompts = None if all_prompts else {ctx.prompt}
    responses = ctx.parse_input(ctx.data, parse_dataset, ctx.columns, prompts)
    test_rows = []
    if test and ctx.test is not None:  # --solution first, so its faults are reported first
        solution = ctx.solution, parse_score_table, ctx.solution_id_col, ctx.solution_score_col
        scores = None if ctx.solution is None else ctx.parse_input(*solution)
        test_rows = ctx.parse_input(ctx.test, parse_dataset, ctx.columns, prompts, scores)
    pids = sorted({r.prompt_id for r in responses}) if all_prompts else [ctx.prompt]
    paths = {pid: {name: [] for name in files} for pid in pids}  # each prompt's own paths
    for name in files:
        value = getattr(ctx, name)
        for path in [value] if isinstance(value, str) else value or []:
            if len(pids) > 1 and "{prompt}" not in path:
                raise MissingPromptPlaceholder(
                    f"{_flag(name)} path {path} has no {{prompt}} placeholder, but"
                    f" --all-prompts covers {len(pids)} prompts; name each prompt's file,"
                    " e.g. run_{prompt}.tsv"
                )
            for pid in pids:
                _existing(expanded := path.replace("{prompt}", str(pid)))
                paths[pid][name].append(expanded)
    # looked up here, so replacing this module's loaders (as a tracer does) applies
    loaders = {"embeddings": load_embeddings, "model": _model_for, "members": load_logprobs}
    shared, runs = dict(ctx.digests), []
    out = None if ctx.out is None else Path(ctx.out)
    for pid in pids:
        own = dict(paths[pid])
        text = [ctx.parse_input(p, bytes.decode, "utf-8") for p in own.pop("prompt_text", [])]
        with _naming(pid):
            corpus = build_corpus(
                responses,
                prompt_id=pid,
                dev_fraction=ctx.dev_frac,
                seed=prompt_seed(ctx.seed, pid),
                test=test_rows,
                prompt_text="".join(text),  # "" without --prompt-text
            )
        parsed = {}
        for name, ps in own.items():
            values = [ctx.parse_input(p, loaders[name], corpus) for p in ps]
            parsed[name] = values if OPTIONS[name].type is list else next(iter(values), None)
        digests = shared | {p: ctx.digests[p] for ps in paths[pid].values() for p in ps}
        own_out = out / f"prompt_{pid}" if out is not None and all_prompts else out
        runs.append(_Run(pid, corpus, parsed, artifact_header(ctx.seed, digests), own_out))
    return runs


@contextmanager
def _naming(pid: int):
    """Prefix ``prompt <pid>: `` to an ``AsasError`` of prompt ``pid``'s work;
    it keeps its class, so its exit code."""
    try:
        yield
    except AsasError as exc:
        raise type(exc)(f"prompt {pid}: {exc}") from None


def _emit(ctx: _Ctx, table: str, body: str | None = None) -> None:
    """Print the header and ``table``; write them, or the header and ``body``, to --out.
    The header names every input the command read."""
    header = artifact_header(ctx.seed, ctx.digests)
    print(header)
    print(table, end="")
    if ctx.out is not None:
        write_atomic({Path(ctx.out): f"{header}\n{table if body is None else body}"})


def _logprob_file(header: str, name: str, corpus, ids, logprobs) -> bytes:
    """The ``logprobs`` row of each id as model ``name``'s member file."""
    rows = {rid: logprobs[i] for i, rid in enumerate(ids)}
    matrix = LogProbMatrix(name, corpus.prompt_id, corpus.num_classes, rows)
    return dump_logprobs(matrix, extra_comment=header)


def _report_tsv(*reports: EvalReport) -> str:
    return EvalReport.TSV_HEADER + "\n" + "".join(r.to_tsv_row() + "\n" for r in reports)


def cmd_ingest(ctx: _Ctx) -> None:
    responses = ctx.parse_input(ctx.data, parse_dataset, ctx.columns)
    counts = Counter(r.prompt_id for r in responses)
    table = "prompt\tn\n" + "".join(f"{p}\t{n}\n" for p, n in sorted(counts.items()))
    body = serialize_dataset(responses, ctx.columns).decode() if ctx.out is not None else None
    _emit(ctx, table, body)


def cmd_stats(ctx: _Ctx) -> None:
    table = StatsRow.TSV_HEADER + "\n"
    for run in _runs(ctx, ctx.prompt is None):  # every prompt unless --prompt names one
        with _naming(run.prompt):
            table += corpus_stats(run.corpus).to_tsv_row() + "\n"
    _emit(ctx, table)


def cmd_split(ctx: _Ctx) -> None:
    files, done = {}, []
    for pid, corpus, _, header, out in _runs(ctx, ctx.all_prompts, test=False):
        with _naming(pid):
            for name, rows in (("train.tsv", corpus.train), ("dev.tsv", corpus.dev)):
                files[out / name] = f"{header}\n".encode() + serialize_dataset(rows, ctx.columns)
        done.append(f"prompt {pid}: train {len(corpus.train)}, dev {len(corpus.dev)} -> {out}")
    write_atomic(files)
    print(*done, sep="\n")


def load_feature_model(path: str | Path) -> tuple[FeatureModelSpec, MlpModel]:
    return FeatureModelSpec.from_artifact(Artifact.load(path, "feature-model"))


def _model_for(data: bytes, corpus: PromptCorpus) -> tuple[FeatureModelSpec, MlpModel]:
    """The spec and MLP of model file ``data``; HeaderMismatch unless the MLP
    scores as many classes as ``corpus`` has."""
    spec, mlp = FeatureModelSpec.from_artifact(Artifact.parse(data, "feature-model"))
    if (k := mlp.n_classes) != corpus.num_classes:
        raise HeaderMismatch(f"model declares k={k} but corpus has {corpus.num_classes} classes")
    return spec, mlp


def _train_once(corpus, matrix, lr, batch, epochs, seed, hidden):
    """Train on ``matrix``'s rows, which are in train|dev|test order."""
    config = TrainConfig(learning_rate=lr, batch_size=batch, epochs=epochs, seed=seed)
    model = MlpModel.init(matrix.dim, hidden, corpus.num_classes, seed)
    n_train, n_dev = len(corpus.train), len(corpus.dev)
    return train_early_stop(
        model,
        matrix.data[:n_train],
        corpus.labels(corpus.train),
        matrix.data[n_train:n_train + n_dev],
        corpus.labels(corpus.dev),
        config,
    )


def _run_files(ctx: _Ctx, run: _Run, spec: FeatureModelSpec, matrix, result):
    """The files of ``run``'s directory: a trained feature model, its training
    history, its dev report and, as ``predictions.tsv``, its log-probabilities
    on every row it was fitted on."""
    pid, corpus, _, header, out = run
    report = evaluate_run(result.dev_pred, corpus.labels(corpus.dev), corpus.num_classes, pid)
    logprobs = log_softmax(mlp_forward(result.model, matrix.data), axis=1)
    return {
        out / "model.txt": spec.to_artifact(result.model).dump(header),
        out / "history.tsv": f"{header}\n{result.history_tsv()}",
        out / "report_dev.tsv": f"{header}\n{_report_tsv(report)}",
        out / "predictions.tsv": _logprob_file(header, ctx.name, corpus, matrix.ids, logprobs),
    }


def cmd_train_features(ctx: _Ctx) -> None:
    for run in _runs(ctx, ctx.all_prompts, "prompt_text", "embeddings"):
        pid, corpus, embeddings = run.prompt, run.corpus, run.parsed["embeddings"]
        with _naming(pid):
            spec, matrix = fit_feature_model(corpus, ctx.tfidf_dim, ctx.cutoff, embeddings)
            result = _train_once(
                corpus, matrix, lr=ctx.lr, batch=ctx.batch, epochs=ctx.epochs,
                seed=ctx.seed, hidden=ctx.hidden,
            )
            write_atomic(_run_files(ctx, run, spec, matrix, result))
        print(f"prompt {pid}: best dev QWK {result.best_dev_qwk:.4f} (epoch {result.best_epoch})")


def cmd_tune(ctx: _Ctx) -> None:
    space = feature_search_space()
    for run in _runs(ctx, ctx.all_prompts, "prompt_text", "embeddings"):
        with _naming(run.prompt):
            # fitted once at the widest settings the study can ask build() for
            builder = CachedFeatureBuilder(
                run.corpus, run.parsed["embeddings"],
                d_t_max=space.params["tfidf_dim"].hi, floor=space.params["cutoff"].lo,
            )
            kept = None

            def objective(params):
                nonlocal kept
                spec, matrix = builder.build(int(params["tfidf_dim"]), float(params["cutoff"]))
                result = _train_once(
                    run.corpus, matrix,
                    lr=float(params["learning_rate"]), batch=int(params["batch_size"]),
                    epochs=ctx.epochs, seed=ctx.seed, hidden=ctx.hidden,
                )
                # Trials run in index order, so a strict > keeps the lowest-index
                # trial of the highest objective: the one study.best picks.
                if kept is None or result.best_dev_qwk > kept[2].best_dev_qwk:
                    kept = spec, matrix, result
                return result.best_dev_qwk

            study = run_study(space, objective, n_trials=ctx.trials, seed=ctx.seed)
            files = _run_files(ctx, run, *kept)
            files[run.out / "study.tsv"] = f"{run.header}\n{study_log(space, study)}"
            write_atomic(files)
        print(
            f"prompt {run.prompt}: best trial {study.best.trial_index} "
            f"dev QWK {study.best.objective:.4f} params {study.best.params}"
        )


def cmd_predict(ctx: _Ctx) -> None:
    if ctx.all_prompts:
        ctx.require("out")
    for run in _runs(ctx, ctx.all_prompts, "prompt_text", "embeddings", "model"):
        with _naming(run.prompt):
            spec, mlp = run.parsed["model"]
            matrix = build_features(run.corpus, spec, run.parsed["embeddings"])
            logprobs = log_softmax(mlp_forward(mlp, matrix.data), axis=1)
            text = _logprob_file(run.header, ctx.name, run.corpus, matrix.ids, logprobs)
            single = run.out or Path("predictions.tsv")
            path = run.out / "predictions.tsv" if ctx.all_prompts else single
            write_atomic({path: text})
        print(f"prompt {run.prompt}: wrote {len(matrix.ids)} rows -> {path}")


def cmd_ensemble(ctx: _Ctx) -> None:
    if ctx.m is not None and not 1 <= ctx.m <= len(ctx.members):
        raise AsasError(f"--m must be between 1 and {len(ctx.members)}")
    # every prompt is fitted and scored before the first file is written
    files, done = {}, []
    for pid, corpus, parsed, header, out in _runs(ctx, ctx.all_prompts, "members"):
        with _naming(pid):
            k = corpus.num_classes
            members = select_best_subset(parsed["members"], corpus, ctx.m)
            spec = fit_ensemble(members, corpus)
            dev_pred, _ = score_ensemble(spec, members, [r.id for r in corpus.dev])
            dev = evaluate_run(dev_pred, corpus.labels(corpus.dev), k, pid)
            files[out / "ensemble.txt"] = spec.to_artifact().dump(header)
            files[out / "report_dev.tsv"] = f"{header}\n{_report_tsv(dev)}"
            if corpus.test:
                test_ids = [r.id for r in corpus.test]
                test_pred, logprobs = score_ensemble(spec, members, test_ids)
                test = _logprob_file(header, "ensemble", corpus, test_ids, logprobs)
                files[out / "predictions.tsv"] = test
                if all(r.score1 is not None for r in corpus.test):
                    report = evaluate_run(test_pred, corpus.labels(corpus.test), k, pid)
                    files[out / "report_test.tsv"] = f"{header}\n{_report_tsv(report)}"
        head = spec.head
        done.append(
            f"prompt {pid}: ensemble of {spec.members} dev QWK {dev.qwk:.4f};"
            f" stacker {head.iterations} iterations, gradient inf-norm {head.grad_norm:.2e}"
            + ("" if head.converged else ", not converged")
        )
    write_atomic(files)
    print(*done, sep="\n")


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

# Each subcommand: (function, help, its options besides --config, the ones it requires).
COMMANDS = {
    "ingest": (cmd_ingest, "parse and validate a dataset", "data seed out" + _COLUMNS, "data"),
    "stats": (
        cmd_stats, "per-prompt corpus statistics",
        "data test solution prompt dev_frac seed out" + _COLUMNS, "data",
    ),
    "split": (cmd_split, "write the train/dev partition", _SPLIT, "out data"),
    "train-features": (
        cmd_train_features, "fit the feature model with fixed hyperparameters",
        _FEATURES + " lr batch epochs hidden tfidf_dim cutoff", "out data",
    ),
    "tune": (
        cmd_tune, "TPE search over lr/batch/tfidf-dim/cutoff, then train",
        _FEATURES + " epochs hidden trials", "out data",
    ),
    "predict": (
        cmd_predict, "export feature-model log-probabilities", _FEATURES + " model name",
        "model data",
    ),
    "ensemble": (
        cmd_ensemble, "stack member log-probabilities", _PER_PROMPT + " members m",
        "out members data",
    ),
    "report": (cmd_report, "merge per-prompt reports and add the mean row", "seed out", ""),
}


def _add_option(parser: argparse.ArgumentParser, name: str) -> None:
    """--name; it defaults to None so that a config value or the table default applies."""
    opt = OPTIONS[name]
    help = opt.help
    if opt.default is not None:
        shown = str(opt.default).lower() if opt.type is bool else opt.default
        help += f" (default: {shown})"
    kind = {bool: dict(action="store_true"), list: dict(nargs="+")}.get(opt.type)
    parser.add_argument(_flag(name), default=None, help=help, **(kind or dict(type=opt.type)))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(prog="asas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help, names, _) in COMMANDS.items():
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
    except MemoryError as exc:
        print(f"asas: out of memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
