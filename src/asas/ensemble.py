"""Stacking ensemble over member log-probability matrices.

Members' per-class log-probabilities on the dev split, concatenated in
a fixed member order, form the training design of a logistic-regression
head; the head's argmax on the test split is the ensemble score. The
test split is never touched during fitting. A best-m subset keeps the m
members whose own dev argmax agrees best with the dev labels (QWK).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LogProbMatrix, PromptCorpus
from .errors import (
    AsasError,
    CoverageGap,
    HeaderMismatch,
    KMismatch,
    SingleClass,
    TooFewCandidates,
)
from .learners import LogRegModel, logreg_fit, logreg_logprobs
from .metrics import EvalReport, accuracy, criteria_flags, qwk, smd
from .serialize import Artifact, require_finite, row_vector

# L2 penalty on the head's weights; the biases are not penalised. Being
# positive, it makes the fit strictly convex, so Newton converges in about
# ten steps, and it keeps the weights on collinear member columns small.
STACKER_L2 = 1e-3


@dataclass(frozen=True)
class EnsembleSpec:
    """Fitted stacker: member order plus the logistic-regression head.

    Checked when made: the head holds ``k`` weight columns for each member
    and ``k`` biases, all finite, where ``k`` is its number of classes.
    """

    members: list[str]
    head: LogRegModel
    prompt_id: int

    def __post_init__(self) -> None:
        weights, bias, k = self.head.weights, self.head.bias, self.k
        if weights.shape[0] != len(self.members) * k or bias.shape != (k,):
            raise HeaderMismatch(
                f"stacker head of {k} classes has {weights.shape[0]} weight rows and"
                f" {bias.size} biases; {len(self.members)} members need"
                f" {len(self.members) * k} rows and {k} biases"
            )
        require_finite("head_weights", weights)
        require_finite("head_bias", bias)

    @property
    def k(self) -> int:
        return self.head.n_classes

    def to_artifact(self) -> Artifact:
        return Artifact(
            kind="ensemble-spec",
            meta={
                "prompt": str(self.prompt_id),
                "k": str(self.k),
                "l2": repr(self.head.l2),
            },
            tables={"members": [[name] for name in self.members]},
            arrays={"head_weights": self.head.weights, "head_bias": self.head.bias},
        )

    @classmethod
    def from_artifact(cls, art: Artifact) -> "EnsembleSpec":
        art.require(
            meta=("l2", "prompt", "k"), tables=("members",), arrays=("head_weights", "head_bias")
        )
        head = LogRegModel(
            weights=art.arrays["head_weights"],
            bias=row_vector(art.arrays, "head_bias"),
            l2=float(art.meta["l2"]),
        )
        spec = cls(
            members=[row[0] for row in art.tables["members"]],
            head=head,
            prompt_id=int(art.meta["prompt"]),
        )
        if int(art.meta["k"]) != spec.k:
            raise HeaderMismatch(f"meta k is {art.meta['k']}, but the head has {spec.k} classes")
        return spec


def assemble(members: list[LogProbMatrix], ids: list[str]) -> np.ndarray:
    """Member rows for the given ids, one row per id, member blocks in member order."""
    if not members:
        raise TooFewCandidates("need at least one member")
    k = members[0].k
    prompt_id = members[0].prompt_id
    for m in members:
        if m.k != k or m.prompt_id != prompt_id:
            raise KMismatch(
                f"member {m.model_name!r} has k={m.k}/prompt={m.prompt_id}, "
                f"expected k={k}/prompt={prompt_id}"
            )
    data = np.empty((len(ids), len(members) * k), dtype=float)
    for i, rid in enumerate(ids):
        for j, m in enumerate(members):
            row = m.rows.get(rid)
            if row is None:
                raise CoverageGap(f"member {m.model_name!r} has no row for id {rid!r}")
            data[i, j * k:(j + 1) * k] = row
    return data


def fit_ensemble(members: list[LogProbMatrix], dev_corpus: PromptCorpus) -> EnsembleSpec:
    """Fit the stacking head on dev labels; reads only dev rows."""
    ids = [r.id for r in dev_corpus.dev]
    design = assemble(members, ids)
    labels = dev_corpus.labels(dev_corpus.dev)
    if np.unique(labels).size < 2:
        raise SingleClass("dev split shows a single class; cannot fit the stacker")
    head = logreg_fit(design, labels, STACKER_L2, k=dev_corpus.num_classes)
    return EnsembleSpec(
        members=[m.model_name for m in members], head=head, prompt_id=dev_corpus.prompt_id
    )


def score_ensemble(
    spec: EnsembleSpec, members: list[LogProbMatrix], ids: list[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels and head log-probabilities for the given ids."""
    by_name = {m.model_name: m for m in members}
    ordered = []
    for name in spec.members:
        if name not in by_name:
            raise CoverageGap(f"member {name!r} required by the ensemble was not provided")
        ordered.append(by_name[name])
    design = assemble(ordered, ids)
    logprobs = logreg_logprobs(spec.head, design)
    return np.argmax(logprobs, axis=1), logprobs


def select_best_subset(
    members: list[LogProbMatrix], corpus: PromptCorpus, m: int | None
) -> list[LogProbMatrix]:
    """The members to stack on ``corpus``'s prompt, in their given order.

    Member names must be distinct. With ``m`` None every member is kept;
    otherwise the ``m`` whose own dev argmax has the highest QWK against
    the dev labels, ties broken by name.
    """
    names = [mem.model_name for mem in members]
    if len(set(names)) != len(names):
        raise AsasError(f"duplicate member names: {names}")
    if m is None:
        return members
    if not 1 <= m <= len(members):
        raise TooFewCandidates(f"asked for {m} of {len(members)} candidates")
    ids, gold, k = [r.id for r in corpus.dev], corpus.labels(corpus.dev), corpus.num_classes
    dev_qwk = {
        mem.model_name: qwk(gold, np.argmax(assemble([mem], ids), axis=1), k) for mem in members
    }
    kept = set(sorted(names, key=lambda name: (-dev_qwk[name], name))[:m])
    return [mem for mem in members if mem.model_name in kept]


def evaluate_run(
    pred_labels,
    gold_labels,
    k: int,
    prompt_id: int,
) -> EvalReport:
    """Score one run: QWK, SMD, accuracy, and the SMD flag."""
    pred = np.asarray(pred_labels)
    gold = np.asarray(gold_labels)
    smd_value = smd(gold, pred)
    return EvalReport(
        prompt_id=prompt_id,
        qwk=qwk(gold, pred, k),
        smd=smd_value,
        accuracy=accuracy(gold, pred),
        n=int(gold.size),
        flags=criteria_flags(smd_value),
    )


def mean_report(reports: list[EvalReport]) -> EvalReport:
    """Arithmetic mean row across prompts (prompt_id -1 renders as 'mean')."""
    if not reports:
        raise TooFewCandidates("no reports to average")
    mean_smd = float(np.mean([r.smd for r in reports]))
    return EvalReport(
        prompt_id=-1,
        qwk=float(np.mean([r.qwk for r in reports])),
        smd=mean_smd,
        accuracy=float(np.mean([r.accuracy for r in reports])),
        n=int(sum(r.n for r in reports)),
        flags=criteria_flags(mean_smd),
    )
