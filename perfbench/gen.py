"""Seeded synthetic inputs for the benchmark workloads.

The vocabulary is fixed; everything else is drawn from one ``numpy``
generator seeded with the benchmark's ``--seed``, so the same seed writes
byte-identical files. Answers mix Zipf-distributed filler words with
per-prompt key phrases: an answer's true score is the number of key
phrases it mentions, key words carry occasional typos (so the fuzzy
n-gram counts see near matches), and the recorded human score is noisy,
so no model or member reaches QWK 1.0.

    python3 perfbench/gen.py tune 1 full .perfbench_work/tune
"""
from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

K = 4  # score classes 0..3
VOCAB_SIZE = 3000
VOCAB_SEED = 20220223
KEY_WORD_LEN = 7
CONCEPT_POOL = 200  # words that occur only in key phrases, never as fillers
N_CONCEPTS = 3
ZIPF_OFFSET = 2.7
SCORE_FLIP = 0.15  # share of answers whose human score is off by one
TYPO_RATE = 0.15  # share of key words written with one wrong letter
EMB_DIM = 16

_ONSETS = "b c d f g h k l m n p r s t v w br cl dr gr pl st tr sh ch th".split()
_VOWELS = "a e i o u ai ea io ou".split()
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "nd", "st"]


@dataclass(frozen=True)
class Answer:
    id: str
    prompt: int
    text: str
    score1: int
    score2: int


def make_vocabulary(rng: np.random.Generator, size: int) -> list[str]:
    """Distinct pseudo-words; rank 0 is the most frequent and the shortest."""
    words: set[str] = set()
    while len(words) < size:
        n_syll = int(rng.choice([1, 1, 2, 2, 2, 3, 3, 4]))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(n_syll)
        ) + _CODAS[rng.integers(len(_CODAS))]
        words.add(word)
    return sorted(words, key=lambda w: (len(w), w))


def zipf_weights(size: int) -> np.ndarray:
    w = 1.0 / (np.arange(size) + ZIPF_OFFSET)
    return w / w.sum()


@dataclass(frozen=True)
class PromptSpec:
    prompt_id: int
    concepts: list[list[str]]  # key phrases, 1-3 words each
    passage: str


def split_vocabulary() -> tuple[list[str], list[str]]:
    """(fillers by Zipf rank, key words): disjoint, drawn from one word list.

    The language is the same for every seed and key words all have one
    length, so the lengths of the key n-grams, which set the cost of each
    fuzzy match, do not vary between seeds.
    """
    rng = np.random.default_rng(VOCAB_SEED)
    words = make_vocabulary(rng, VOCAB_SIZE + CONCEPT_POOL)
    same_length = [w for w in words[200:] if len(w) == KEY_WORD_LEN]
    keys = set(rng.choice(same_length, size=CONCEPT_POOL, replace=False).tolist())
    return [w for w in words if w not in keys], sorted(keys)


def make_prompt(
    rng: np.random.Generator, prompt_id: int, vocab: list[str], keys: list[str]
) -> PromptSpec:
    picks = rng.choice(len(keys), size=3 * N_CONCEPTS, replace=False)
    concepts, at = [], 0
    for c in range(N_CONCEPTS):
        width = 1 + c % 3
        concepts.append([keys[i] for i in picks[at:at + width]])
        at += width
    filler = [vocab[i] for i in rng.choice(200, size=40)]
    words = filler + [w for phrase in concepts for w in phrase]
    rng.shuffle(words)
    passage = " ".join(words[:20]) + ". " + " ".join(words[20:]) + "."
    return PromptSpec(prompt_id=prompt_id, concepts=concepts, passage=passage)


def _typo(rng: np.random.Generator, word: str) -> str:
    i = int(rng.integers(len(word)))
    if rng.random() < 0.5 and len(word) > 3:
        return word[:i] + word[i + 1:]
    return word[:i] + "aeioustr"[rng.integers(8)] + word[i + 1:]


def make_answers(
    rng: np.random.Generator,
    spec: PromptSpec,
    vocab: list[str],
    n: int,
    length: tuple[int, int],
    id_base: int,
) -> list[Answer]:
    """``n`` answers of ``length[0]..length[1]`` words with noisy scores.

    Lengths and true scores are fixed multisets in seeded order, so every
    seed feeds the program the same number of words and key phrases.
    """
    weights = zipf_weights(len(vocab))
    true = rng.permutation(np.resize(np.arange(K), n))
    lengths = rng.permutation(np.resize(np.arange(length[0], length[1] + 1), n))
    fillers = rng.choice(len(vocab), size=int(lengths.sum()), p=weights)
    flips = rng.random(n) < SCORE_FLIP
    flip_dir = rng.choice([-1, 1], size=n)
    second = rng.random(n) < SCORE_FLIP
    second_dir = rng.choice([-1, 1], size=n)
    out, at = [], 0
    for i in range(n):
        phrases = [
            [_typo(rng, w) if rng.random() < TYPO_RATE else w for w in spec.concepts[c]]
            for c in rng.choice(N_CONCEPTS, size=int(true[i]), replace=False)
        ]
        n_fill = max(2, int(lengths[i]) - sum(len(p) for p in phrases))
        words = [vocab[j] for j in fillers[at:at + n_fill]]
        at += n_fill
        for phrase in phrases:
            pos = int(rng.integers(len(words) + 1))
            words[pos:pos] = phrase
        s1 = int(np.clip(true[i] + (flip_dir[i] if flips[i] else 0), 0, K - 1))
        s2 = int(np.clip(s1 + (second_dir[i] if second[i] else 0), 0, K - 1))
        out.append(Answer(str(id_base + i), spec.prompt_id, " ".join(words) + ".", s1, s2))
    return out


def dataset_tsv(answers: list[Answer], labelled: bool = True) -> bytes:
    """The dataset format ``asas`` reads; unlabelled files drop the score columns."""
    if labelled:
        rows = ["Id\tEssaySet\tScore1\tScore2\tEssayText"]
        rows += [f"{a.id}\t{a.prompt}\t{a.score1}\t{a.score2}\t{a.text}" for a in answers]
    else:
        rows = ["Id\tEssaySet\tEssayText"]
        rows += [f"{a.id}\t{a.prompt}\t{a.text}" for a in answers]
    return ("\n".join(rows) + "\n").encode()


def solution_csv(answers: list[Answer]) -> bytes:
    rows = ["id,essay_score"] + [f"{a.id},{a.score1}" for a in answers]
    return ("\n".join(rows) + "\n").encode()


def member_tsv(
    rng: np.random.Generator, name: str, prompt: int, answers: list[Answer], strength: float
) -> bytes:
    """External model log-probabilities: noise plus ``strength`` on the gold class.

    Neighbouring classes get half the boost, so weak members still agree
    ordinally and stacking has something to combine.
    """
    gold = np.array([a.score1 for a in answers])
    logits = rng.normal(0.0, 1.0, size=(len(answers), K))
    rows = np.arange(len(answers))
    logits[rows, gold] += strength
    logits[rows, np.clip(gold - 1, 0, K - 1)] += strength / 2
    logits[rows, np.clip(gold + 1, 0, K - 1)] += strength / 2
    logits -= logits.max(axis=1, keepdims=True)
    lines = [f"#model={name}\tprompt={prompt}\tk={K}"]
    lines += [
        a.id + "\t" + "\t".join(repr(float(v)) for v in row) for a, row in zip(answers, logits)
    ]
    return ("\n".join(lines) + "\n").encode()


def embeddings_tsv(rng: np.random.Generator, answers: list[Answer]) -> bytes:
    lines = [f"#dim={EMB_DIM}"]
    for a in answers:
        vec = rng.normal(size=EMB_DIM) + 0.5 * a.score1
        lines.append(a.id + "\t" + "\t".join(repr(float(v)) for v in vec))
    return ("\n".join(lines) + "\n").encode()


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload.

    ``tune`` and ``score`` are far below one public-size prompt (about
    1,700 answers): fuzzy n-gram matching costs 20-70 ms per answer, and
    every run must stay well under a minute. Seven trials take TPE past
    its five prior samples into the Parzen ``suggest`` path. ``stack``
    runs no feature extraction, so it keeps the public scale.
    """

    tune_train: int = 180
    tune_test: int = 120
    tune_trials: int = 7
    tune_epochs: int = 20
    score_fit: int = 40
    score_fresh: int = 200
    stack_prompts: int = 10
    stack_train: int = 1700
    stack_test: int = 550
    stack_members: int = 6


SIZES = {
    "full": Sizes(),
    "smoke": Sizes(
        tune_train=40, tune_test=10, tune_trials=2, tune_epochs=2, score_fit=20,
        score_fresh=10, stack_prompts=2, stack_train=60, stack_test=20, stack_members=3,
    ),
}

SHORT = (8, 20)
LONG = (25, 55)
TUNE_STRENGTHS = (0.8, 1.4, 2.0)
STACK_STRENGTHS = (0.5, 0.8, 1.1, 1.4, 1.7, 2.0)


class Workspace:
    """Writes files under one directory and records their digests."""

    def __init__(self, root: Path):
        self.root = root
        self.digests: dict[str, str] = {}
        root.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, data: bytes) -> str:
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()
        return str(path)


def generate(workload: str, seed: int, root: Path, sizes: Sizes) -> tuple[Workspace, dict]:
    """Write ``workload``'s inputs under ``root``; return them and their layout."""
    rng = np.random.default_rng([seed, ["tune", "score", "stack"].index(workload)])
    vocab, keys = split_vocabulary()
    ws = Workspace(root)
    if workload == "tune":
        spec = make_prompt(rng, 1, vocab, keys)
        train = make_answers(rng, spec, vocab, sizes.tune_train, SHORT, 10000)
        test = make_answers(rng, spec, vocab, sizes.tune_test, SHORT, 90000)
        layout = {
            "data": ws.write("train.tsv", dataset_tsv(train)),
            "test": ws.write("test.tsv", dataset_tsv(test)),
            "prompt_text": ws.write("prompt_1.txt", spec.passage.encode()),
            "embeddings": ws.write("embeddings.tsv", embeddings_tsv(rng, train + test)),
            "members": [
                ws.write(f"member_{j}.tsv", member_tsv(rng, f"ext{j}", 1, train + test, s))
                for j, s in enumerate(TUNE_STRENGTHS)
            ],
        }
    elif workload == "score":
        spec = make_prompt(rng, 1, vocab, keys)
        fit = make_answers(rng, spec, vocab, sizes.score_fit, LONG, 10000)
        fresh = make_answers(rng, spec, vocab, sizes.score_fresh, LONG, 50000)
        layout = {
            "data": ws.write("fit.tsv", dataset_tsv(fit)),
            "fresh": ws.write("fresh.tsv", dataset_tsv(fresh)),
            "prompt_text": ws.write("prompt_1.txt", spec.passage.encode()),
        }
    elif workload == "stack":
        train, test, members = [], [], []
        for p in range(1, sizes.stack_prompts + 1):
            spec = make_prompt(rng, p, vocab, keys)
            p_train = make_answers(rng, spec, vocab, sizes.stack_train, SHORT, p * 100000)
            p_test = make_answers(rng, spec, vocab, sizes.stack_test, SHORT, p * 100000 + 50000)
            train += p_train
            test += p_test
            jitter = rng.normal(0.0, 0.05, size=sizes.stack_members)
            members.append([
                ws.write(
                    f"members/p{p}_m{j}.tsv",
                    member_tsv(rng, f"m{j}", p, p_train + p_test, STACK_STRENGTHS[j] + jitter[j]),
                )
                for j in range(sizes.stack_members)
            ])
        layout = {
            "data": ws.write("train.tsv", dataset_tsv(train)),
            "test": ws.write("test.tsv", dataset_tsv(test, labelled=False)),
            "solution": ws.write("solution.csv", solution_csv(test)),
            "members": members,
        }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ws, layout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["tune", "score", "stack"])
    parser.add_argument("seed", type=int)
    parser.add_argument("size", choices=sorted(SIZES))
    parser.add_argument("out", help="workspace directory; layout.json lands there")
    args = parser.parse_args(argv)
    sizes = SIZES[args.size]
    ws, layout = generate(args.workload, args.seed, Path(args.out), sizes)
    layout["sizes"] = asdict(sizes)
    layout["digests"] = ws.digests
    (Path(args.out) / "layout.json").write_text(json.dumps(layout, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
