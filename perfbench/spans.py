"""Span tracing of the ``asas`` layers from outside the program.

Each public function is wrapped where its caller looks it up (for
example ``asas.cli.train_early_stop`` and ``asas.features.window_ratios``),
so the program runs unchanged and the wrappers come off again after a
traced repetition. Spans nest on a stack; a span's self time is its
duration minus the time of the spans it caused. Spans are aggregated
in memory per name: calls, wall time, self time, and per-call samples
where a percentile is reported.
"""
from __future__ import annotations

import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import asas.cli
import asas.ensemble
import asas.features
import asas.hyperopt
import asas.learners
import asas.metrics
import asas.serialize

LAYERS = ("corpus", "features", "learners", "hyperopt", "ensemble", "metrics", "serialize", "cli")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child seconds]
        self.calls: Counter = Counter()
        self.wall: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: defaultdict = defaultdict(list)

    def _enter(self, name: str) -> float:
        self.stack.append([name, 0.0])
        return time.perf_counter()

    def _exit(self, name: str, start: float) -> float:
        dur = time.perf_counter() - start
        _, child = self.stack.pop()
        self.calls[name] += 1
        self.wall[name] += dur
        self.self_time[name] += dur - child
        if self.stack:
            self.stack[-1][1] += dur
        return dur

    @contextmanager
    def span(self, name: str):
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, start)

    def wrap(self, name: str, fn, on_result=None, keep_samples: bool = False):
        """``fn`` inside a span; ``on_result(result, args)`` may count its output."""
        def traced(*args, **kwargs):
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(name, start)
                if keep_samples:
                    self.samples[name].append(dur)
            if on_result is not None:
                on_result(result, args)
            return result

        return traced


def _targets(tr: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced function."""
    cli, ft, lr = asas.cli, asas.features, asas.learners
    Artifact = asas.serialize.Artifact
    Builder = ft.CachedFeatureBuilder

    def count(key, measure):
        def on_result(result, args):
            tr.counts[key] += measure(result, args)
        return on_result

    def on_study(result, args):
        tr.counts["hyperopt.trials"] += len(result.trials)
        tr.counts["hyperopt.trials_failed"] += sum(t.status == "failed" for t in result.trials)

    def saved_bytes(result, args):
        return os.path.getsize(args[1])

    traced_qwk = tr.wrap("metrics.qwk", asas.metrics.qwk)
    traced_suggest = tr.wrap("hyperopt.suggest", asas.hyperopt.suggest)
    forward = tr.wrap("learners.mlp_forward", lr.mlp_forward)
    score = tr.wrap("ensemble.score_ensemble", cli.score_ensemble)
    load = Artifact.__dict__["load"].__func__

    # qwk_fn and suggest_fn are defaults bound when the program's functions
    # were defined, so patching the modules cannot reach them; passing the
    # same functions explicitly, traced, runs exactly what the program runs.
    real_train, real_study = cli.train_early_stop, cli.run_study

    def train_early_stop(*args, **kwargs):
        if len(args) < 7:
            kwargs.setdefault("qwk_fn", traced_qwk)
        return real_train(*args, **kwargs)

    def run_study(space, objective_fn, *args, **kwargs):
        if len(args) < 3:
            kwargs.setdefault("suggest_fn", traced_suggest)
        trial = tr.wrap("cli.trial", objective_fn, keep_samples=True)
        return real_study(space, trial, *args, **kwargs)

    return [
        (cli, "parse_dataset", tr.wrap(
            "corpus.parse_dataset", cli.parse_dataset,
            count("corpus.rows_parsed", lambda r, a: len(r)))),
        (cli, "parse_score_table", tr.wrap("corpus.parse_score_table", cli.parse_score_table)),
        (cli, "build_corpus", tr.wrap("corpus.build_corpus", cli.build_corpus)),
        (cli, "load_logprobs", tr.wrap(
            "corpus.load_logprobs", cli.load_logprobs,
            count("corpus.logprob_rows", lambda r, a: len(r.rows)))),
        (cli, "dump_logprobs", tr.wrap("corpus.dump_logprobs", cli.dump_logprobs)),
        (cli, "load_embeddings", tr.wrap("corpus.load_embeddings", cli.load_embeddings)),
        (Builder, "__init__", tr.wrap("features.builder_init", Builder.__init__)),
        (Builder, "build", tr.wrap("features.build", Builder.build)),
        (cli, "fit_feature_model", tr.wrap("features.fit_feature_model", cli.fit_feature_model)),
        (cli, "build_features", tr.wrap("features.build_features", cli.build_features)),
        (ft, "extract_features", tr.wrap(
            "features.extract_features", ft.extract_features,
            count("features.extract_rows", lambda r, a: len(r.ids)))),
        (ft, "window_ratios", tr.wrap(
            "features.window_ratios", ft.window_ratios,
            count("features.fuzzy_windows", lambda r, a: r.size))),
        (ft, "minutiae_overlap", tr.wrap("features.minutiae_overlap", ft.minutiae_overlap)),
        (ft, "tfidf_matrix", tr.wrap("features.tfidf", ft.tfidf_matrix)),
        (ft, "fit_tfidf_projection", tr.wrap("features.tfidf", ft.fit_tfidf_projection)),
        (ft, "select_key_ngrams", tr.wrap("features.select_key_ngrams", ft.select_key_ngrams)),
        (ft, "text_stats", tr.wrap("features.text_stats", ft.text_stats)),
        (cli, "train_early_stop", tr.wrap("learners.train_early_stop", train_early_stop)),
        (lr, "adamw_step", tr.wrap("learners.adamw_step", lr.adamw_step)),
        (lr, "mlp_forward", forward),
        (cli, "mlp_forward", forward),
        (asas.ensemble, "logreg_fit", tr.wrap("learners.logreg_fit", asas.ensemble.logreg_fit)),
        (lr, "logreg_objective", tr.wrap("learners.logreg_objective", lr.logreg_objective)),
        (cli, "run_study", tr.wrap("hyperopt.run_study", run_study, on_study)),
        (cli, "fit_ensemble", tr.wrap("ensemble.fit_ensemble", cli.fit_ensemble)),
        (cli, "score_ensemble", score),
        (asas.ensemble, "score_ensemble", score),
        (cli, "select_best_subset", tr.wrap("ensemble.select_best_subset", cli.select_best_subset)),
        (cli, "evaluate_run", tr.wrap("ensemble.evaluate_run", cli.evaluate_run)),
        (cli, "mean_report", tr.wrap("ensemble.mean_report", cli.mean_report)),
        (asas.ensemble, "assemble", tr.wrap("ensemble.assemble", asas.ensemble.assemble)),
        (asas.ensemble, "qwk", traced_qwk),
        (asas.ensemble, "smd", tr.wrap("metrics.smd", asas.ensemble.smd)),
        (asas.ensemble, "accuracy", tr.wrap("metrics.accuracy", asas.ensemble.accuracy)),
        (Artifact, "save", tr.wrap(
            "serialize.save", Artifact.save, count("serialize.saved_bytes", saved_bytes))),
        (Artifact, "load", classmethod(tr.wrap("serialize.load", load))),
    ]


@contextmanager
def patched(tr: Tracer):
    """Install every wrapper of ``tr`` for the duration of the block."""
    targets = _targets(tr)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield tr
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metrics: (name, unit, the end-to-end metric@workload it should move).
# A layer can save at most its self-time share of wall_s: the run is serial.
PER_LAYER = [
    ("corpus.parse_dataset_s", "s", "wall_s@stack"),
    ("corpus.parse_dataset_calls", "count", "wall_s@stack"),
    ("corpus.rows_parsed", "count", "wall_s@stack"),
    ("corpus.load_logprobs_s", "s", "wall_s@stack"),
    ("corpus.logprob_rows", "count", "wall_s@stack"),
    ("corpus.dump_logprobs_s", "s", "wall_s@tune probe.batch_rps@score"),
    ("corpus.load_embeddings_s", "s", "wall_s@tune"),
    ("features.builder_init_s", "s", "wall_s@tune"),
    ("features.build_s", "s", "wall_s@tune"),
    ("features.build_calls", "count", "wall_s@tune"),
    ("features.fit_feature_model_s", "s", "setup_s@score"),
    ("features.extract_features_s", "s", "probe.score_p50_ms@score probe.score_p95_ms@score probe.batch_rps@score wall_s@tune"),
    ("features.extract_rows", "count", "probe.batch_rps@score wall_s@tune"),
    ("features.window_ratios_s", "s", "probe.score_p50_ms@score probe.batch_rps@score wall_s@tune; none@stack"),
    ("features.window_ratios_calls", "count", "probe.score_p50_ms@score wall_s@tune; none@stack"),
    ("features.fuzzy_windows", "count", "probe.score_p50_ms@score wall_s@tune; none@stack"),
    ("features.minutiae_overlap_s", "s", "probe.score_p50_ms@score wall_s@tune; none@stack"),
    ("features.tfidf_s", "s", "probe.score_p50_ms@score wall_s@tune; none@stack"),
    ("features.select_key_ngrams_s", "s", "setup_s@score wall_s@tune; none@stack"),
    ("features.text_stats_s", "s", "probe.score_p50_ms@score wall_s@tune; none@stack"),
    ("learners.train_early_stop_s", "s", "wall_s@tune"),
    ("learners.train_calls", "count", "wall_s@tune"),
    ("learners.adamw_steps", "count", "wall_s@tune"),
    ("learners.adamw_step_s", "s", "wall_s@tune"),
    ("learners.step_us", "us", "wall_s@tune"),
    ("learners.mlp_forward_s", "s", "probe.score_p50_ms@score (negligible share)"),
    ("learners.logreg_fit_s", "s", "wall_s@stack"),
    ("learners.logreg_fit_calls", "count", "wall_s@stack"),
    ("learners.logreg_objective_s", "s", "wall_s@stack"),
    ("learners.logreg_objective_calls", "count", "wall_s@stack"),
    ("hyperopt.trials", "count", "ok_frac@tune"),
    ("hyperopt.trials_failed", "count", "ok_frac@tune"),
    ("hyperopt.trial_p50_s", "s", "wall_s@tune"),
    ("hyperopt.suggest_ms", "ms", "wall_s@tune"),
    ("ensemble.fit_ensemble_s", "s", "wall_s@stack"),
    ("ensemble.score_ensemble_s", "s", "wall_s@stack probe.score_p50_ms@stack"),
    ("ensemble.assemble_s", "s", "wall_s@stack"),
    ("metrics.qwk_calls", "count", "wall_s@tune wall_s@stack"),
    ("metrics.qwk_us", "us", "wall_s@tune wall_s@stack"),
    ("serialize.save_s", "s", "wall_s@tune setup_s@score"),
    ("serialize.saved_bytes", "B", "wall_s@tune setup_s@score"),
    ("serialize.load_s", "s", "setup_s@score wall_s@tune"),
    ("cli.tune_s", "s", "wall_s@tune"),
    ("cli.predict_s", "s", "wall_s@tune probe.batch_rps@score"),
    ("cli.ensemble_s", "s", "wall_s@tune wall_s@stack"),
    ("cli.report_s", "s", "wall_s@tune wall_s@stack"),
    ("cli.train_features_s", "s", "setup_s@score"),
] + [
    (f"{layer}.{kind}", unit, "wall_s@all")
    for layer in LAYERS
    for kind, unit in (("self_s", "s"), ("spans", "count"))
] + [
    ("input.tokens_per_response", "tokens", "input property"),
    ("input.distinct_window_share.1", "ratio", "input property"),
    ("input.distinct_window_share.2", "ratio", "input property"),
    ("input.distinct_window_share.3", "ratio", "input property"),
    ("probe.score_p50_ms", "ms", "one-answer latency, closed loop, one caller (untraced)"),
    ("probe.score_p95_ms", "ms", "one-answer latency, closed loop, one caller (untraced)"),
    ("probe.samples", "count", "one-answer scorings behind the percentiles"),
    ("probe.batch_rps", "rows/s", "rows written / wall of one predict (ensemble on stack) (untraced)"),
    ("trace.overhead_frac", "ratio", "traced wall_s / untraced wall_s - 1"),
]

# metric -> span whose summed self time it reports
_SELF = {
    "corpus.parse_dataset_s": "corpus.parse_dataset",
    "corpus.load_logprobs_s": "corpus.load_logprobs",
    "corpus.dump_logprobs_s": "corpus.dump_logprobs",
    "corpus.load_embeddings_s": "corpus.load_embeddings",
    "features.builder_init_s": "features.builder_init",
    "features.build_s": "features.build",
    "features.fit_feature_model_s": "features.fit_feature_model",
    "features.extract_features_s": "features.extract_features",
    "features.window_ratios_s": "features.window_ratios",
    "features.minutiae_overlap_s": "features.minutiae_overlap",
    "features.tfidf_s": "features.tfidf",
    "features.select_key_ngrams_s": "features.select_key_ngrams",
    "features.text_stats_s": "features.text_stats",
    "learners.train_early_stop_s": "learners.train_early_stop",
    "learners.adamw_step_s": "learners.adamw_step",
    "learners.mlp_forward_s": "learners.mlp_forward",
    "learners.logreg_fit_s": "learners.logreg_fit",
    "learners.logreg_objective_s": "learners.logreg_objective",
    "ensemble.fit_ensemble_s": "ensemble.fit_ensemble",
    "ensemble.score_ensemble_s": "ensemble.score_ensemble",
    "ensemble.assemble_s": "ensemble.assemble",
    "serialize.save_s": "serialize.save",
    "serialize.load_s": "serialize.load",
}
# metric -> span whose calls it counts
_CALLS = {
    "corpus.parse_dataset_calls": "corpus.parse_dataset",
    "features.build_calls": "features.build",
    "features.window_ratios_calls": "features.window_ratios",
    "learners.train_calls": "learners.train_early_stop",
    "learners.adamw_steps": "learners.adamw_step",
    "learners.logreg_fit_calls": "learners.logreg_fit",
    "learners.logreg_objective_calls": "learners.logreg_objective",
    "metrics.qwk_calls": "metrics.qwk",
}


def _per_call(total: float, calls: int, scale: float) -> float:
    return scale * total / calls if calls else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric from the spans of one traced run; 0 where unused."""
    out: dict[str, float] = {}
    for metric, span in _SELF.items():
        out[metric] = tr.self_time.get(span, 0.0)
    for metric, span in _CALLS.items():
        out[metric] = tr.calls.get(span, 0)
    for metric in ("corpus.rows_parsed", "corpus.logprob_rows", "features.extract_rows",
                   "features.fuzzy_windows", "hyperopt.trials", "hyperopt.trials_failed",
                   "serialize.saved_bytes"):
        out[metric] = tr.counts.get(metric, 0)
    out["learners.step_us"] = _per_call(
        tr.wall.get("learners.train_early_stop", 0.0), tr.calls.get("learners.adamw_step", 0), 1e6)
    trials = tr.samples.get("cli.trial")
    out["hyperopt.trial_p50_s"] = statistics.median(trials) if trials else 0.0
    out["hyperopt.suggest_ms"] = _per_call(
        tr.wall.get("hyperopt.suggest", 0.0), tr.calls.get("hyperopt.suggest", 0), 1e3)
    out["metrics.qwk_us"] = _per_call(
        tr.wall.get("metrics.qwk", 0.0), tr.calls.get("metrics.qwk", 0), 1e6)
    for command in ("tune", "predict", "ensemble", "report", "train_features"):
        out[f"cli.{command}_s"] = tr.wall.get(f"cli.{command}", 0.0)
    for layer in LAYERS:
        names = [n for n in tr.calls if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(tr.self_time[n] for n in names)
        out[f"{layer}.spans"] = sum(tr.calls[n] for n in names)
    return out
