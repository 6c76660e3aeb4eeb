"""Dataset parsing, dev splitting, statistics, and external file loading."""
from __future__ import annotations

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import asas.corpus
from asas.corpus import (
    DEFAULT_COLUMNS,
    ColumnMap,
    EmbeddingTable,
    LogProbMatrix,
    PromptCorpus,
    ScoredResponse,
    build_corpus,
    corpus_stats,
    dump_logprobs,
    load_embeddings,
    load_logprobs,
    parse_dataset,
    parse_score_table,
    prompt_seed,
    serialize_dataset,
    split_dev,
)
from asas.errors import (
    AsasError,
    DuplicateId,
    EmptyInput,
    HeaderMismatch,
    MalformedRow,
    MissingSecondRead,
    NonIntegerScore,
    RowLengthMismatch,
    UnknownResponseId,
)
from asas.mathutil import log_softmax
from conftest import make_toy_responses, requires_dataset
from oracles import (
    attach_scores,
    load_logprobs_per_row,
    parse_dataset_per_cell,
    parse_score_table_per_cell,
    qwk_exact,
    table_rows_per_cell,
)

HEADER = "Id\tEssaySet\tScore1\tScore2\tEssayText"


class TestParseDataset:
    def test_single_row(self):
        rows = parse_dataset(f"{HEADER}\n1\t1\t1\t1\tSome answer\n")
        assert rows == [
            ScoredResponse(id="1", prompt_id=1, text="Some answer", score1=1, score2=1)
        ]

    def test_empty_after_header(self):
        assert parse_dataset(f"{HEADER}\n") == []

    def test_missing_scores_map_to_none(self):
        rows = parse_dataset(f"{HEADER}\n9\t2\t\t\tno reads yet\n")
        assert rows[0].score1 is None and rows[0].score2 is None

    def test_wrong_field_count(self):
        with pytest.raises(MalformedRow):
            parse_dataset(f"{HEADER}\n1\t1\t1\tmissing a field\n")

    def test_non_integer_score(self):
        with pytest.raises(NonIntegerScore):
            parse_dataset(f"{HEADER}\n1\t1\tx\t1\ttext\n")

    def test_duplicate_id_within_prompt(self):
        body = f"{HEADER}\n1\t1\t0\t0\ta\n1\t1\t1\t1\tb\n"
        with pytest.raises(DuplicateId):
            parse_dataset(body)

    def test_same_id_in_different_prompts_is_fine(self):
        rows = parse_dataset(f"{HEADER}\n1\t1\t0\t0\ta\n1\t2\t1\t1\tb\n")
        assert len(rows) == 2

    def test_missing_column(self):
        with pytest.raises(HeaderMismatch):
            parse_dataset("Id\tScore1\n1\t2\n")

    def test_leading_comment_lines_are_skipped(self):
        rows = parse_dataset(f"#asas\tversion=0\n{HEADER}\n1\t1\t1\t\tok\n")
        assert rows[0].id == "1"

    def test_custom_column_map(self):
        cols = ColumnMap(id="rid", prompt="set", score1="s1", score2="s2", text="answer")
        rows = parse_dataset("rid\tset\ts1\ts2\tanswer\n7\t3\t2\t\thello\n", cols)
        assert rows[0].prompt_id == 3 and rows[0].score1 == 2

    def test_unlabeled_file_via_empty_score_columns(self):
        cols = ColumnMap(score1="", score2="")
        rows = parse_dataset("Id\tEssaySet\tEssayText\n5\t1\tan answer\n", cols)
        assert rows[0].score1 is None and rows[0].score2 is None
        assert rows[0].text == "an answer"

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.integers(1, 10),
                st.one_of(st.none(), st.integers(0, 3)),
                st.one_of(st.none(), st.integers(0, 3)),
                st.text(
                    alphabet=st.characters(
                        blacklist_characters="\t\n\r#", blacklist_categories=("Cs",)
                    ),
                    max_size=40,
                ),
            ),
            max_size=20,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=100)
    def test_serialize_parse_round_trip(self, rows):
        responses = [
            ScoredResponse(id=str(i), prompt_id=p, text=t, score1=s1, score2=s2)
            for i, p, s1, s2, t in rows
        ]
        data = serialize_dataset(responses)
        assert parse_dataset(data) == responses
        # CRLF endings and a trailing blank line read like the LF form
        assert parse_dataset(data.replace(b"\n", b"\r\n") + b"\r\n") == responses

    def test_score_columns_missing_from_the_header_load_as_none(self):
        rows = parse_dataset("Id\tEssaySet\tScore1\tEssayText\n5\t1\t2\tan answer\n")
        assert (rows[0].score1, rows[0].score2) == (2, None)

    def test_errors_name_the_files_own_line(self):
        data = f"#asas\tversion=0\n{HEADER}\n1\t1\t1\t1\ta\n\n2\t1\t1\tb\n"
        with pytest.raises(MalformedRow, match="^row 5: expected 5 fields, got 4$"):
            parse_dataset(data)

    @pytest.mark.parametrize("data", [
        "EssaySet\tId\tScore1\tScore2\tEssayText\n1\t0\t1\t1\ta\n1\t#1\t1\t1\tb\n",
        f"{HEADER}\n0\t1\t1\t1\ta\n #1\t1\t1\t1\tb\n",
    ], ids=["id column second", "leading space"])
    def test_an_id_starting_with_hash_is_malformed(self, data):
        # written back first on its line, the row would read as a comment
        want = (MalformedRow, "row 3: id '#1' starts with '#', which marks a comment")
        assert _outcome(parse_dataset, data) == want
        assert _outcome(parse_dataset_per_cell, data) == want

    @pytest.mark.parametrize("row, error", [
        ("x\t#1\t1\t1\tb", NonIntegerScore),  # the prompt id is checked first
        ("1\t#1\tx\t1\tb", MalformedRow),  # then the id, before the score cells
    ])
    def test_an_id_is_checked_after_the_prompt_and_before_the_scores(self, row, error):
        data = f"EssaySet\tId\tScore1\tScore2\tEssayText\n{row}\n"
        assert _outcome(parse_dataset, data)[0] is error
        assert _outcome(parse_dataset, data) == _outcome(parse_dataset_per_cell, data)

    @pytest.mark.parametrize("header, repeated", [
        ("Id\tEssaySet\tScore1\tScore1\tEssayText", "Score1"),
        ("Id\tEssaySet\tScore1\tEssayText\tEssayText", "EssayText"),
        ("Id\tEssaySet\tId\tScore1\tEssayText", "Id"),
    ])
    def test_a_column_named_twice_is_header_mismatch(self, header, repeated):
        data = f"{header}\n1\t1\t1\t1\ttext\n"
        want = (HeaderMismatch, f"repeated column in header: {repeated!r}")
        assert _outcome(parse_dataset, data) == want
        assert _outcome(parse_dataset_per_cell, data) == want

    def test_a_column_it_does_not_read_may_repeat(self):
        data = f"{HEADER}\tNote\tNote\n1\t1\t1\t1\ttext\ta\tb\n"
        assert parse_dataset(data) == parse_dataset_per_cell(data)
        assert parse_dataset(data)[0].text == "text"

    @pytest.mark.parametrize("head", ["id,essay_score,essay_score", "id,ID,essay_score"])
    def test_a_solution_column_named_twice_is_header_mismatch(self, head):
        table = f"{head}\na,1,1\n"
        name = "essay_score" if head.count("essay_score") == 2 else "id"
        want = (HeaderMismatch, f"repeated column in header: {name!r}")
        assert _outcome(parse_score_table, table, "id", "essay_score") == want
        assert _outcome(parse_score_table_per_cell, table, "id", "essay_score") == want

    def test_writers_refuse_an_id_starting_with_hash(self):
        with pytest.raises(ValueError, match="^id '#1' would not read back unchanged$"):
            serialize_dataset([ScoredResponse("#1", 1, "text", 0, 0)])
        with pytest.raises(ValueError, match="^id '#1' would not read back unchanged$"):
            dump_logprobs(LogProbMatrix("m", 1, 2, {"#1": np.zeros(2)}))

    def test_serialize_refuses_an_id_column_starting_with_hash(self):
        # the id column opens the header line, which would read back as a comment
        with pytest.raises(ValueError, match="^id '#Id' would not read back unchanged$"):
            serialize_dataset([ScoredResponse("1", 1, "text", 0, 0)], ColumnMap(id="#Id"))


_CELL = st.sampled_from(["", "0", "1", "3", " 2 "])
_TEXT = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    max_size=12,
)


@st.composite
def _datasets(draw):
    """(file bytes, ids) of a dataset over prompts 1-3: shuffled columns, either
    score column possibly absent, blank score cells, '#' comments and blank
    lines anywhere, LF or CRLF endings."""
    names = ["Id", "EssaySet", "EssayText"]
    names += [name for name in ("Score1", "Score2") if draw(st.booleans())]
    names = draw(st.permutations(names))
    rows = draw(st.lists(
        st.tuples(st.integers(0, 20), st.integers(1, 3), _CELL, _CELL, _TEXT),
        max_size=12, unique_by=lambda row: row[:2],
    ))
    lines = []
    for line in ["\t".join(names)] + [
        "\t".join({"Id": str(rid), "EssaySet": str(pid), "Score1": s1, "Score2": s2,
                   "EssayText": text}[name] for name in names)
        for rid, pid, s1, s2, text in rows
    ]:
        lines += draw(st.lists(st.sampled_from(["", "# note", "#\tx"]), max_size=2))
        lines.append(line)
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return (ending.join(lines) + ending).encode(), sorted({str(row[0]) for row in rows})


def _outcome(parse, *args):
    """``parse(*args)``, or the class and message of what it raised."""
    try:
        return parse(*args)
    except (AsasError, ValueError) as exc:
        return type(exc), str(exc)


class TestScopedParse:
    """``parse_dataset`` with ``prompts`` checks every row but builds records
    only for those prompts; with ``solution`` it joins score1 in the same pass."""

    @given(_datasets(), st.integers(1, 4))
    @settings(max_examples=150)
    def test_scoped_records_are_the_prompts_records_in_order(self, dataset, pid):
        data, _ = dataset
        everything = parse_dataset(data, DEFAULT_COLUMNS)
        scoped = parse_dataset(data, DEFAULT_COLUMNS, {pid})
        assert scoped == [r for r in everything if r.prompt_id == pid]

    @given(_datasets(), st.integers(1, 4), st.data())
    @settings(max_examples=300)
    def test_a_cut_or_changed_byte_fails_alike_scoped_or_not(self, dataset, pid, data):
        valid, _ = dataset
        at = data.draw(st.integers(0, len(valid) - 1), label="at")
        if data.draw(st.booleans(), label="cut"):
            hostile = valid[:at]
        else:
            byte = data.draw(st.sampled_from(b"\t\n\r#x-0 \xff") | st.integers(0, 255))
            hostile = valid[:at] + bytes([byte]) + valid[at + 1:]
        everything = _outcome(parse_dataset, hostile, DEFAULT_COLUMNS)
        scoped = _outcome(parse_dataset, hostile, DEFAULT_COLUMNS, {pid})
        if isinstance(everything, tuple):
            assert scoped == everything
        else:
            assert scoped == [r for r in everything if r.prompt_id == pid]

    @given(_datasets(), st.integers(1, 4), st.data())
    @settings(max_examples=150)
    def test_a_solution_joins_like_the_two_pass_reference(self, dataset, pid, data):
        valid, ids = dataset
        dropped = data.draw(st.sets(st.sampled_from(ids), max_size=2) if ids else st.just(set()))
        scores = {rid: data.draw(st.integers(0, 3)) for rid in ids if rid not in dropped}
        scores["not in the file"] = 1
        want = _outcome(attach_scores, parse_dataset(valid, DEFAULT_COLUMNS), scores)
        assert _outcome(parse_dataset, valid, DEFAULT_COLUMNS, None, scores) == want
        scoped = _outcome(parse_dataset, valid, DEFAULT_COLUMNS, {pid}, scores)
        if isinstance(want, tuple):
            assert scoped == want
        else:
            assert scoped == [r for r in want if r.prompt_id == pid]

    def test_the_test_files_own_score_cells_are_checked_before_the_join(self):
        data = f"{HEADER}\n1\t2\tx\t\tan answer\n"
        with pytest.raises(NonIntegerScore, match="^row 2: score 'x' is not an integer$"):
            parse_dataset(data, DEFAULT_COLUMNS, {1}, {"1": 2})

    def test_an_id_of_another_prompt_missing_from_the_solution(self):
        data = f"{HEADER}\n1\t1\t\t\ta\n2\t2\t\t\tb\n"
        with pytest.raises(UnknownResponseId, match="^no score for response '2'$"):
            parse_dataset(data, DEFAULT_COLUMNS, {1}, {"1": 2})


class TestSplitDev:
    def test_reproduces_published_set_sizes(self):
        responses = make_toy_responses(n=1672, seed=0)
        train, dev = split_dev(responses, dev_fraction=0.2005, seed=0)
        assert (len(train), len(dev)) == (1337, 335)

    def test_same_seed_same_partition(self):
        responses = make_toy_responses(n=10)
        first = split_dev(responses, 0.2, seed=123)
        second = split_dev(responses, 0.2, seed=123)
        assert first == second

    def test_matches_reference_shuffle_for_two_seeds(self):
        responses = make_toy_responses(n=5)
        for seed in (1, 2):
            rng = random.Random(seed)
            order = list(range(5))
            for i in range(4, 0, -1):
                j = rng.randrange(i + 1)
                order[i], order[j] = order[j], order[i]
            dev_idx = set(order[: round(0.2 * 5)])
            train, dev = split_dev(responses, 0.2, seed=seed)
            assert [r.id for r in dev] == [
                r.id for i, r in enumerate(responses) if i in dev_idx
            ]
            assert [r.id for r in train] == [
                r.id for i, r in enumerate(responses) if i not in dev_idx
            ]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            split_dev([], 0.2, seed=0)

    def test_bad_fraction(self):
        responses = make_toy_responses(n=4)
        with pytest.raises(ValueError):
            split_dev(responses, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_dev(responses, 1.0, seed=0)

    @given(
        n=st.integers(1, 60),
        fraction=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=150)
    def test_partition_property(self, n, fraction, seed):
        responses = make_toy_responses(n=n, seed=1)
        if round(fraction * n) in (0, n):
            with pytest.raises(EmptyInput, match=f"^a dev fraction of {fraction} of {n}"):
                split_dev(responses, fraction, seed)
            return
        train, dev = split_dev(responses, fraction, seed)
        assert len(dev) == round(fraction * n)
        assert sorted(r.id for r in train + dev) == sorted(r.id for r in responses)
        assert not {r.id for r in train} & {r.id for r in dev}


class TestBuildCorpus:
    def test_derives_label_range(self):
        pool = [
            ScoredResponse(id=str(i), prompt_id=1, text="t", score1=s, score2=s2)
            for i, (s, s2) in enumerate([(1, 1), (2, 3), (3, 2), (1, None), (2, 2)])
        ]
        corpus = build_corpus(pool, prompt_id=1, dev_fraction=0.2, seed=0)
        assert corpus.num_classes == 3
        assert corpus.min_score == 1
        labels = corpus.labels(corpus.train)
        assert labels.min() >= 0 and labels.max() < 3

    def test_rejects_missing_score1(self):
        pool = [ScoredResponse(id="1", prompt_id=1, text="t", score1=None)]
        with pytest.raises(MalformedRow):
            build_corpus(pool, prompt_id=1)

    def test_rejects_unknown_prompt(self):
        pool = make_toy_responses(n=5, prompt_id=2)
        with pytest.raises(EmptyInput):
            build_corpus(pool, prompt_id=1)

    def test_rejects_test_ids_colliding_with_train(self):
        pool = make_toy_responses(n=10)
        with pytest.raises(DuplicateId):
            build_corpus(pool, prompt_id=1, test=pool[:2])

    def test_per_prompt_seed_helper(self):
        assert prompt_seed(7, 3) == 10


class TestCorpusStats:
    def _corpus(self, dev):
        return PromptCorpus(
            prompt_id=1, train=[], dev=dev, test=[], num_classes=3, min_score=0
        )

    def test_identical_reads(self):
        dev = [
            ScoredResponse(id=str(i), prompt_id=1, text="a b c", score1=s, score2=s)
            for i, s in enumerate([0, 1, 2, 1])
        ]
        stats = self._corpus(dev).train, corpus_stats(self._corpus(dev))
        assert stats[1].dev_qwk == 1.0
        assert stats[1].dev_accuracy == 1.0

    def test_three_response_dev_with_one_disagreement(self):
        dev = [
            ScoredResponse(id="a", prompt_id=1, text="one two three", score1=0, score2=0),
            ScoredResponse(id="b", prompt_id=1, text="one two", score1=1, score2=1),
            ScoredResponse(id="c", prompt_id=1, text="one", score1=2, score2=1),
        ]
        stats = corpus_stats(self._corpus(dev))
        assert stats.dev_qwk == pytest.approx(
            float(qwk_exact([0, 1, 2], [0, 1, 1], 3)), abs=1e-12
        )
        assert stats.dev_accuracy == pytest.approx(2 / 3)
        assert stats.avg_length == pytest.approx((3 + 2 + 1) / 3)
        assert (stats.n_train, stats.n_dev, stats.n_test) == (0, 3, 0)

    def test_missing_second_read(self):
        dev = [ScoredResponse(id="a", prompt_id=1, text="t", score1=0, score2=None)]
        with pytest.raises(MissingSecondRead):
            corpus_stats(self._corpus(dev))

    def test_length_ignores_surrounding_whitespace(self):
        dev = [
            ScoredResponse(id="a", prompt_id=1, text="one two", score1=0, score2=0),
            ScoredResponse(id="b", prompt_id=1, text="  one two  ", score1=1, score2=1),
        ]
        stats = corpus_stats(self._corpus(dev))
        assert stats.avg_length == pytest.approx(2.0)


@st.composite
def _logprob_files(draw):
    """A log-probability file with comments and large row offsets, sometimes
    with one faulty row; returns (text, k, n, with_corpus)."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(0, 20))
    rows = []
    for i in range(n):
        offset = draw(st.sampled_from([0.0, 700.0, -1e6, 1e9, 3e300]))
        values = draw(st.lists(st.floats(-60, 60), min_size=k, max_size=k))
        rows.append([f"r{i}", *(repr(v + offset) for v in values)])
    faults = ["short", "long", "duplicate", "unknown", "text", "non-finite"]
    fault = draw(st.sampled_from([None] * 5 + faults))
    with_corpus = fault == "unknown" or draw(st.booleans())
    if fault and rows:
        at = draw(st.integers(0, n - 1))
        if fault == "short":
            rows[at].pop()
        elif fault == "long":
            rows[at].append("0.5")
        elif fault == "duplicate":
            rows.append(list(rows[at]))
        elif fault == "unknown":
            rows[at][0] = "stranger"
        elif fault == "non-finite":
            rows[at][draw(st.integers(1, k))] = draw(st.sampled_from(["-inf", "inf", "nan"]))
        else:
            rows[at][draw(st.integers(1, k))] = draw(st.sampled_from(["abc", "", "1.0.0"]))
    lines = [f"#model=m\tprompt=1\tk={k}"]
    for row in rows:
        if draw(st.integers(0, 3)) == 0:
            lines.append("# comment\tline")
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n", k, n, with_corpus


class TestLoadLogprobs:
    def test_rows_renormalized(self):
        data = "#model=m\tprompt=1\tk=2\nr1\t-0.105\t-2.303\n"
        matrix = load_logprobs(data)
        row = matrix.rows["r1"]
        lse = math.log(math.exp(-0.105) + math.exp(-2.303))
        assert row == pytest.approx([-0.105 - lse, -2.303 - lse], abs=1e-12)
        assert abs(math.log(sum(math.exp(v) for v in row))) <= 1e-6

    def test_zero_row_becomes_uniform(self):
        matrix = load_logprobs("#model=m\tprompt=1\tk=2\nr1\t0\t0\n")
        assert matrix.rows["r1"] == pytest.approx([-math.log(2)] * 2)

    def test_row_length_mismatch(self):
        with pytest.raises(RowLengthMismatch):
            load_logprobs("#model=m\tprompt=1\tk=2\nr1\t0\t0\t0\n")

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatch):
            load_logprobs("model m k 2\nr1\t0\t0\n")
        with pytest.raises(HeaderMismatch):
            load_logprobs("#model=m\tprompt=1\n")

    def test_duplicate_id(self):
        data = "#model=m\tprompt=1\tk=2\nr1\t0\t0\nr1\t0\t-1\n"
        with pytest.raises(DuplicateId):
            load_logprobs(data)

    def test_unknown_response_id_against_corpus(self):
        pool = make_toy_responses(n=10, k=2)
        corpus = build_corpus(pool, prompt_id=1, dev_fraction=0.2, seed=0)
        good = "#model=m\tprompt=1\tk=2\n0\t0\t-1\n"
        assert load_logprobs(good, corpus).rows
        bad = "#model=m\tprompt=1\tk=2\nnope\t0\t-1\n"
        with pytest.raises(UnknownResponseId):
            load_logprobs(bad, corpus)

    def test_prompt_mismatch_against_corpus(self):
        pool = make_toy_responses(n=10, k=2)
        corpus = build_corpus(pool, prompt_id=1, dev_fraction=0.2, seed=0)
        # the ids exist in this prompt too: only line 1 tells the files apart
        with pytest.raises(HeaderMismatch, match="^file declares prompt=2 but corpus is prompt 1$"):
            load_logprobs("#model=m\tprompt=2\tk=2\n0\t0\t-1\n", corpus)

    def test_k_mismatch_against_corpus(self):
        pool = make_toy_responses(n=10, k=2)
        corpus = build_corpus(pool, prompt_id=1, dev_fraction=0.2, seed=0)
        with pytest.raises(HeaderMismatch):
            load_logprobs("#model=m\tprompt=1\tk=4\n0\t0\t0\t0\t0\n", corpus)

    @given(
        row=st.lists(st.floats(-30, 30), min_size=2, max_size=6),
        shift=st.floats(-100, 100),
    )
    @settings(max_examples=100)
    def test_shift_invariance(self, row, shift):
        k = len(row)
        def render(values):
            cells = "\t".join(repr(v) for v in values)
            return f"#model=m\tprompt=1\tk={k}\nr\t{cells}\n"
        base = load_logprobs(render(row)).rows["r"]
        shifted = load_logprobs(render([v + shift for v in row])).rows["r"]
        assert shifted == pytest.approx(base, abs=1e-9)

    @given(files=_logprob_files())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_per_row_reference(self, files):
        data, k, n, with_corpus = files
        corpus = None
        known = None
        if with_corpus:
            members = [ScoredResponse(f"r{i}", 1, "text", score1=0) for i in range(n)]
            corpus = PromptCorpus(1, members, [], [], num_classes=k, min_score=0)
            known = {r.id for r in members}
        try:
            want = load_logprobs_per_row(data, known, k)
        except AsasError as exc:
            with pytest.raises(type(exc)) as caught:
                load_logprobs(data, corpus)
            assert str(caught.value) == str(exc)
            return
        got = load_logprobs(data, corpus).rows
        assert list(got) == list(want)
        assert all(got[rid].tobytes() == want[rid].tobytes() for rid in want)

    @pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\r"])
    def test_dump_refuses_a_model_name_the_loader_would_not_read_back(self, name):
        with pytest.raises(ValueError, match="holds a tab, LF or CR"):
            dump_logprobs(LogProbMatrix(name, 1, 2, {"r1": np.zeros(2)}))

    def test_dump_round_trip(self):
        data = "#model=m\tprompt=2\tk=3\nr1\t-0.1\t-3\t-4\nr2\t0\t0\t0\n"
        matrix = load_logprobs(data)
        again = load_logprobs(dump_logprobs(matrix))
        assert again.model_name == "m" and again.prompt_id == 2 and again.k == 3
        for rid in matrix.rows:
            assert again.rows[rid] == pytest.approx(matrix.rows[rid], abs=0)
        crlf = load_logprobs(dump_logprobs(matrix).replace(b"\n", b"\r\n") + b"\r\n")
        assert list(crlf.rows) == list(again.rows)
        assert all(crlf.rows[rid].tobytes() == again.rows[rid].tobytes() for rid in again.rows)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.text("abcXYZ019_-.\t\n\r", min_size=1, max_size=12),
        st.integers(0, 10**6),
        st.integers(2, 6),
        st.lists(st.text("abc019_", min_size=1, max_size=8), min_size=1, max_size=20, unique=True),
        st.integers(0, 2**32 - 1),
        st.floats(0.1, 40.0),
    )
    def test_reading_then_writing_keeps_the_file(self, name, prompt, k, ids, seed, spread):
        """Header and ids survive exactly, or the dump refuses a model name
        the loader would change. Values only to 1e-12: each reload
        renormalises every row, which can move its last bits."""
        logits = np.random.default_rng(seed).normal(scale=spread, size=(len(ids), k))
        rows = dict(zip(ids, log_softmax(logits, axis=1)))
        matrix = LogProbMatrix(name, prompt, k, rows)
        if any(c in name for c in "\t\n\r"):
            with pytest.raises(ValueError, match="holds a tab, LF or CR"):
                dump_logprobs(matrix)
            return
        first = dump_logprobs(matrix).decode().splitlines()
        again = dump_logprobs(load_logprobs("\n".join(first))).decode().splitlines()
        assert again[0] == first[0] == f"#model={name}\tprompt={prompt}\tk={k}"
        cells, cells_again = (np.array([ln.split("\t") for ln in f[1:]]) for f in (first, again))
        assert list(cells_again[:, 0]) == list(cells[:, 0]) == ids
        values, values_again = (c[:, 1:].astype(float) for c in (cells, cells_again))
        np.testing.assert_allclose(values_again, values, rtol=0, atol=1e-12)

    def test_error_after_a_blank_line_names_the_files_own_line(self):
        with pytest.raises(RowLengthMismatch, match="^row 4: expected 2 values, got 1$"):
            load_logprobs("#model=m\tprompt=1\tk=2\nr1\t0\t0\n\nr2\t0\n")

    @pytest.mark.parametrize("width", [2, 4])
    def test_dump_refuses_a_row_of_another_width(self, width):
        rows = {"r1": np.zeros(3), "r2": np.zeros(width)}
        with pytest.raises(RowLengthMismatch, match=f"'r2': expected 3 values, got {width}"):
            dump_logprobs(LogProbMatrix("m", 1, 3, rows))


class TestLoadEmbeddings:
    def test_dim_from_header(self):
        table = load_embeddings("#dim=4\nr1\t0\t0\t0\t0\n")
        assert table.dim == 4
        assert table.rows["r1"] == pytest.approx([0, 0, 0, 0])

    def test_sentence_vector_width_364(self):
        rng = np.random.default_rng(0)
        rows = "\n".join(
            f"r{i}\t" + "\t".join(repr(float(v)) for v in rng.normal(size=364))
            for i in range(3)
        )
        table = load_embeddings(f"#dim=364\n{rows}\n")
        assert table.dim == 364
        assert all(vec.shape == (364,) for vec in table.rows.values())
        crlf = load_embeddings(f"#dim=364\n{rows}\n\n".replace("\n", "\r\n"))
        assert list(crlf.rows) == list(table.rows)
        assert all(np.array_equal(crlf.rows[r], table.rows[r]) for r in table.rows)

    def test_error_after_a_blank_line_names_the_files_own_line(self):
        with pytest.raises(RowLengthMismatch, match="^row 4: expected 2 values, got 1$"):
            load_embeddings("#dim=2\nr1\t0\t1\n\nr2\t0\n")

    def test_dim_mismatch(self):
        with pytest.raises(RowLengthMismatch):
            load_embeddings("#dim=4\nr1\t0\t0\t0\t0\t0\n")

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            load_embeddings("#dim=1\nr1\t0\nr1\t1\n")

    def test_bad_header(self):
        with pytest.raises(HeaderMismatch):
            load_embeddings("dim 4\n")

    def test_non_numeric_value_names_the_row(self):
        with pytest.raises(MalformedRow, match="row 3: non-numeric value for id 'r2'"):
            load_embeddings("#dim=2\nr1\t0\t1\nr2\t0\tx\n")


# Line 1 of each kind of id-keyed file, declaring rows of two values.
_FIRST_LINES = {"member": "#model=m\tprompt=1\tk={}", "embedding": "#dim={}"}
_LOADERS = {"member": load_logprobs, "embedding": load_embeddings}


@pytest.mark.parametrize("kind", ["member", "embedding"])
class TestMemberAndEmbeddingFiles:
    """Member and embedding files share one line-1 rule and one row rule."""

    def _load(self, kind, rows, width="2"):
        return _LOADERS[kind](_FIRST_LINES[kind].format(width) + "\n" + rows)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e309", "-Infinity", "NaN"])
    def test_a_value_that_is_not_finite_names_row_and_id(self, kind, value):
        with pytest.raises(MalformedRow, match="^row 4: non-finite value for id 'r2'$"):
            self._load(kind, f"r1\t0\t1\n# comment\nr2\t0.5\t{value}\nr3\t0\t1\n")

    @pytest.mark.parametrize("value", ["x", "", "1.0.0"])
    def test_a_value_that_is_not_a_number_names_row_and_id(self, kind, value):
        with pytest.raises(MalformedRow, match="^row 3: non-numeric value for id 'r2'$"):
            self._load(kind, f"r1\t0\t1\nr2\t{value}\t0\n")

    @pytest.mark.parametrize(
        "row, got", [("r2\t0", 1), ("r2\t0\t1\t2", 3), ("r2", 0)], ids=["short", "long", "bare-id"]
    )
    def test_a_row_of_another_width(self, kind, row, got):
        with pytest.raises(RowLengthMismatch, match=f"^row 3: expected 2 values, got {got}$"):
            self._load(kind, f"r1\t0\t1\n{row}\n")

    @pytest.mark.parametrize("width", ["0", "-1", "x", "2.0", "", " 2"])
    def test_the_width_is_a_positive_integer(self, kind, width):
        with pytest.raises(HeaderMismatch, match="must be a positive integer"):
            self._load(kind, "r1\t0\t1\n", width)

    @pytest.mark.parametrize("spoil", [
        lambda first: first + "\tnote",  # a field without '='
        lambda first: "\n" + first,  # line 1 is blank
    ], ids=["bare-field", "blank-line-1"])
    def test_line_1_is_key_value_fields(self, kind, spoil):
        first = _FIRST_LINES[kind].format(2)
        with pytest.raises(HeaderMismatch, match="^expected '#.*' on line 1"):
            _LOADERS[kind](spoil(first) + "\nr1\t0\t1\n")


def _mutated(data, valid: bytes) -> bytes:
    """``valid`` cut at a drawn byte, or with a byte put in before it or in its place."""
    at = data.draw(st.integers(0, len(valid) - 1), label="at")
    how = data.draw(st.sampled_from(["cut", "insert", "change"]), label="how")
    if how == "cut":
        return valid[:at]
    byte = data.draw(st.sampled_from(b"\t\n\r#x-0.e \xff") | st.integers(0, 255), label="byte")
    return valid[:at] + bytes([byte]) + valid[at + (how == "change"):]


def _records(result):
    """A reader's result with every matrix row as its bytes, so == is bitwise."""
    if isinstance(result, (LogProbMatrix, EmbeddingTable)):
        meta = {k: v for k, v in vars(result).items() if k != "rows"}
        return meta, [(rid, vec.tobytes()) for rid, vec in result.rows.items()]
    return result


_SCORE_CELL = st.sampled_from(["0", "1", "2", "12", " 3", "+1", "1.0", "٢", ""])


@st.composite
def _solutions(draw):
    """The bytes of a solution table, comma- or tab-separated."""
    delim = draw(st.sampled_from([",", "\t"]))
    rows = draw(st.lists(st.tuples(st.integers(0, 20), _SCORE_CELL), max_size=10))
    lines = [delim.join(["id", "essay_score"])]
    for rid, score in rows:
        lines += draw(st.lists(st.sampled_from(["", "# note"]), max_size=1))
        lines.append(delim.join([str(rid), score]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return (ending.join(lines) + ending).encode()


_DERANDOMIZED = settings(max_examples=300, deadline=None, derandomize=True)


class TestReadersMatchPerCellReferences:
    """Each reader gives the records of its per-cell reference in
    ``oracles``, bitwise, or raises the same class with the same message,
    on files cut at a byte, or with one byte put in or changed."""

    @given(_datasets(), st.sampled_from([None, {1}, {2, 3}]), st.booleans(), st.data())
    @_DERANDOMIZED
    def test_dataset(self, dataset, prompts, with_solution, data):
        valid, ids = dataset
        solution = None
        if with_solution:
            solution = {rid: data.draw(st.integers(0, 3)) for rid in ids[1:]}
        hostile = _mutated(data, valid)
        args = (DEFAULT_COLUMNS, prompts, solution)
        assert _outcome(parse_dataset, hostile, *args) == _outcome(
            parse_dataset_per_cell, hostile, *args
        )

    @given(_solutions(), st.data())
    @_DERANDOMIZED
    def test_solution_table(self, table, data):
        hostile = _mutated(data, table)
        args = (hostile, "id", "essay_score")
        assert _outcome(parse_score_table, *args) == _outcome(parse_score_table_per_cell, *args)

    def test_cells_that_share_a_prefix_or_a_value_read_alike(self):
        cells = ["1", "12", "01", " 1", "1 ", "+1", "1", "12", "2"]
        dataset = "\n".join(
            [HEADER] + [f"r{i}\t{c}\t{c}\t{c.strip()}\ttext" for i, c in enumerate(cells)]
        )
        want = parse_dataset_per_cell(dataset)
        assert parse_dataset(dataset) == want and {r.prompt_id for r in want} == {1, 2, 12}
        solution = "\n".join(["id,score"] + [f"r{i},{c}" for i, c in enumerate(cells)])
        want = parse_score_table_per_cell(solution, "id", "score")
        assert parse_score_table(solution, "id", "score") == want
        assert set(want.values()) == {1, 2, 12}

    @pytest.mark.parametrize("kind", ["member", "member with corpus", "embedding"])
    @given(files=_logprob_files(), data=st.data())
    @_DERANDOMIZED
    def test_member_and_embedding_files(self, kind, files, data):
        text, k, n, _ = files
        if kind == "embedding":
            text = f"#dim={k}\n" + text.split("\n", 1)[1]
        corpus = None
        if kind == "member with corpus":
            members = [ScoredResponse(f"r{i}", 1, "text", score1=0) for i in range(n)]
            corpus = PromptCorpus(1, members, [], [], num_classes=k, min_score=0)
        hostile = _mutated(data, text.encode())
        load = load_embeddings if kind == "embedding" else load_logprobs
        got = _records(_outcome(load, hostile, corpus))
        with mock.patch.object(asas.corpus, "_table_rows", table_rows_per_cell):
            want = _records(_outcome(load, hostile, corpus))
        assert got == want


class TestCellLanguage:
    """Number cells read as ``float`` reads them and score cells as ``int``
    does, so a stricter or looser parser cannot slip in unnoticed."""

    @pytest.mark.parametrize("kind", ["member", "embedding"])
    @pytest.mark.parametrize("cell", ["1_0", " 1.5", "١", "+.5e-3", "nan", "1e400", "0x10", ""])
    def test_a_number_cell_reads_as_float_reads_it(self, kind, cell):
        first = _FIRST_LINES[kind].format(2)
        try:
            value = float(cell)
        except ValueError:
            with pytest.raises(MalformedRow, match="^row 3: non-numeric value for id 'r2'$"):
                _LOADERS[kind](f"{first}\nr1\t0\t1\nr2\t{cell}\t0\n")
            return
        if not math.isfinite(value):
            with pytest.raises(MalformedRow, match="^row 3: non-finite value for id 'r2'$"):
                _LOADERS[kind](f"{first}\nr1\t0\t1\nr2\t{cell}\t0\n")
            return
        got = _LOADERS[kind](f"{first}\nr2\t{cell}\t0\n").rows["r2"]
        want = _LOADERS[kind](f"{first}\nr2\t{value!r}\t0\n").rows["r2"]
        assert got.tobytes() == want.tobytes()
        if kind == "embedding":
            assert got[0] == value

    @pytest.mark.parametrize("cell", [" 2", "+2", "2.0", "٢"])
    def test_a_score_cell_reads_as_int_reads_it(self, cell):
        try:
            value = int(cell)
        except ValueError:
            value = None
        dataset = f"{HEADER}\n1\t1\t{cell}\t{cell}\tan answer\n"
        solution = f"id,essay_score\n1,{cell}\n"
        if value is None:
            with pytest.raises(NonIntegerScore, match=f"^row 2: score {cell.strip()!r}"):
                parse_dataset(dataset)
            with pytest.raises(NonIntegerScore, match=f"^row 2: score {cell!r}$"):
                parse_score_table(solution, "id", "essay_score")
            return
        row = parse_dataset(dataset)[0]
        assert (row.score1, row.score2) == (value, value)
        assert parse_score_table(solution, "id", "essay_score") == {"1": value}


class TestScoreTable:
    def test_comma_and_tab(self):
        assert parse_score_table("id,essay_score\na,2\n", "id", "essay_score") == {"a": 2}
        assert parse_score_table("id\tessay_score\na\t2\n", "id", "essay_score") == {"a": 2}
        crlf = "id,essay_score\r\na,2\r\n\r\n"
        assert parse_score_table(crlf, "id", "essay_score") == {"a": 2}

    def test_case_insensitive_columns(self):
        assert parse_score_table("Id,Essay_Score\na,1\n", "id", "essay_score") == {"a": 1}


@requires_dataset
def test_real_prompt_5_statistics():
    from conftest import data_dir

    pool = parse_dataset((data_dir() / "train.tsv").read_bytes())
    corpus = build_corpus(pool, prompt_id=5, dev_fraction=0.2, seed=prompt_seed(7, 5))
    stats = corpus_stats(corpus)
    assert stats.dev_qwk == pytest.approx(0.935, abs=0.03)
    assert stats.dev_accuracy == pytest.approx(0.959, abs=0.03)
    assert abs(stats.avg_length - 28) <= 5
