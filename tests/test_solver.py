"""Boxed-answer extraction, n-gram degeneracy gates, and gated solving."""
from __future__ import annotations

import functools
import json
import random
import re
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mathsynth.solver as solver
from conftest import make_chat
from mathsynth.corpus import SeedProblem
from mathsynth.curriculum import DifficultyScore, save_scores
from mathsynth.providers import TransportError
from mathsynth.solver import (
    GateConfig,
    NgramStats,
    SolutionRecord,
    SolverError,
    check_gates,
    extract_boxed,
    ngram_degeneracy,
    render_solution_prompt,
    solve_dataset,
    solve_each,
    tokenize,
)
from mathsynth.synthesis import SynthesizedQuestion

LOW = SeedProblem(id="a", question="easy crates question", answer="3", difficulty=3.0)
HIGH = SeedProblem(id="b", question="hard pallets question", answer="9", difficulty=6.0)


def _question(**overrides) -> SynthesizedQuestion:
    fields = dict(
        id="hybrid:a",
        question="How many parts remain after the final day?",
        category="hybrid",
        nominal_difficulty=7.0,
        parent_low_id="a",
        parent_high_id="b",
        status="verified",
    )
    fields.update(overrides)
    return SynthesizedQuestion(**fields)


def _solve(question: SynthesizedQuestion, client, cfg: GateConfig | None = None) -> SolutionRecord:
    """The record of one question solved alone, with LOW and HIGH as its parents."""
    (record,) = solve_each([question], {"a": LOW, "b": HIGH}, client, cfg)
    return record


# --- boxed answers -----------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("The result is \\boxed{42}.", "42"),
        ("\\boxed{\\frac{1}{2}} is the value", "\\frac{1}{2}"),
        ("nested \\boxed{a{b{c}}} works", "a{b{c}}"),
        ("first \\boxed{1} then \\boxed{2}", "2"),
        ("\\boxed{  spaced  }", "spaced"),
        ("no box anywhere", None),
        ("\\boxed{}", None),
        ("\\boxed{   }", None),
        ("\\boxed{\\frac{1}{2}", None),
        ("", None),
    ],
)
def test_extract_boxed(text, expected):
    assert extract_boxed(text) == expected


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=200))
def test_extract_boxed_never_crashes(text):
    result = extract_boxed(text)
    assert result is None or (isinstance(result, str) and result.strip() == result != "")


def test_tokenize():
    assert tokenize("Don't stop!") == ["don", "'", "t", "stop", "!"]
    assert tokenize("A a.  B") == ["a", "a", ".", "b"]
    assert tokenize("") == []


# The tokenizer as a regex: a run of word characters, or one character that
# is neither a word character nor whitespace.
WORD_OR_PUNCT = re.compile(r"\w+|[^\w\s]")


@pytest.mark.parametrize(
    "text",
    [
        "\x1c",  # a separator that both `str.split` and `\s` take as whitespace
        " ",
        "\xa0",
        "a\x1cb\x1fc\u3000d\u2028e",
        "İ",  # lowercases to two code points, "i" and a combining dot
        "Co\u0301te",  # a combining mark is neither a word character nor a space
        "_",
        "snake_case + x_1",
    ],
)
def test_tokenize_cuts_as_the_word_or_punctuation_regex(text):
    assert tokenize(text) == WORD_OR_PUNCT.findall(text.lower())


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_tokenize_cuts_any_text_as_the_word_or_punctuation_regex(text):
    assert tokenize(text) == WORD_OR_PUNCT.findall(text.lower())


# --- degeneracy statistics ----------------------------------------------------


def test_ngram_stats_distinct_text():
    stats = ngram_degeneracy("a b c d e", 2)
    assert (stats.total, stats.distinct) == (4, 4)
    assert stats.duplicate_ratio == 0.0
    assert stats.max_consecutive == 1


def test_ngram_stats_alternating_text():
    stats = ngram_degeneracy("x y x y x y x y", 2)
    assert stats.total == 7 and stats.distinct == 2
    assert stats.duplicate_ratio == pytest.approx(5 / 7)
    assert stats.max_consecutive == 4  # four back-to-back "x y" chunks


def test_ngram_run_counts_looping_phrase_at_any_phase():
    text = "the answer is " * 20
    assert ngram_degeneracy(text, 3).max_consecutive == 20
    # the same loop shifted by one token is still caught by phase scanning
    shifted = "lead " + text
    assert ngram_degeneracy(shifted, 3).max_consecutive == 20


def oracle_ngram_stats(tokens: list[str], n: int) -> NgramStats:
    """Reference statistics: one tuple per position and per chunk, scanned in Python."""
    total = len(tokens) - n + 1
    if total < 1:
        return NgramStats(n=n, total=0, distinct=0, duplicate_ratio=0.0, max_consecutive=0)
    grams = [tuple(tokens[i : i + n]) for i in range(total)]
    distinct = len(set(grams))
    longest = 1
    for phase in range(n):
        run = 0
        previous = None
        for start in range(phase, len(tokens) - n + 1, n):
            chunk = tuple(tokens[start : start + n])
            run = run + 1 if chunk == previous else 1
            previous = chunk
            longest = max(longest, run)
    return NgramStats(
        n=n,
        total=total,
        distinct=distinct,
        duplicate_ratio=1.0 - distinct / total,
        max_consecutive=longest,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda size: st.lists(st.sampled_from(["a", "b", "c", "d"][:size]), max_size=300)
    ),
    st.integers(1, 4),
)
def test_ngram_stats_match_reference_loop(tokens, n):
    # Exact equality, floats included: the ratio is the same expression.
    assert ngram_degeneracy(tokens, n) == oracle_ngram_stats(tokens, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lead", [0, 1, 2, 3])
def test_ngram_stats_match_reference_on_loops_and_short_texts(n, lead):
    phrase = ["so", "x", "is", "odd"][:n]
    looping = ["lead"] * lead + phrase * 15 + ["done"]
    stats = ngram_degeneracy(looping, n)
    assert stats == oracle_ngram_stats(looping, n)
    assert stats.max_consecutive == 15
    short = phrase[: n - 1]
    assert ngram_degeneracy(short, n) == oracle_ngram_stats(short, n)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize(
    "tokens",
    [
        [],
        ["a"],
        ["a", "b", "a", "c"],  # the last token is new: its id is the largest there is
        ["c", "a", "b", "a", "b", "a", "d"],
        list("abcabcabcabd"),
        list("aaaaaaaaaaaaab"),
        list("abababababababababc"),
        list("xyzxyzwxyzxyzw") * 3 + ["v"],
    ],
)
def test_ngram_stats_match_reference_for_chained_n(tokens, n):
    assert ngram_degeneracy(tokens, n) == oracle_ngram_stats(tokens, n)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=120),
    st.integers(1, 6),
)
def test_ngram_stats_match_reference_for_any_n_up_to_six(tokens, n):
    assert ngram_degeneracy(tokens, n) == oracle_ngram_stats(tokens, n)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1000, 3000),
    st.sampled_from([30, 300, 5000]),
    st.integers(0, 2**32),
    st.integers(1, 4),
)
def test_ngram_stats_match_reference_over_a_large_vocabulary(size, vocabulary, seed, n):
    # Thousands of distinct tokens make the ids, the codes and the ranks of
    # each level large, where a rank from the wrong level or a code that does
    # not fit its multiplier collides. The tokens are drawn from a seeded RNG:
    # hypothesis keeps the lists it draws itself to a few dozen items.
    rng = random.Random(seed)
    tokens = [str(rng.randrange(vocabulary)) for _ in range(size)]
    assert ngram_degeneracy(tokens, n) == oracle_ngram_stats(tokens, n)


def _long_looping_trace() -> str:
    """About 40k tokens: varied reasoning over a 3,000-word vocabulary, then a loop."""
    rng = random.Random(17)
    words = [f"w{i}" for i in range(3000)] + ["=", "+", "(", ")", ",", "."]
    body = " ".join(rng.choice(words) for _ in range(38_000))
    return body + " the answer is" * 300 + " x y" * 300 + " \\boxed{4}"


def test_gate_stats_match_reference_on_a_long_looping_trace():
    text = _long_looping_trace()
    tokens = WORD_OR_PUNCT.findall(text.lower())
    assert 39_000 < len(tokens) < 41_000
    report = check_gates(text)
    assert report.stats == (oracle_ngram_stats(tokens, 2), oracle_ngram_stats(tokens, 3))
    assert (report.stats[0].max_consecutive, report.stats[1].max_consecutive) == (300, 300)
    assert not report.passed and report.final_answer == "4"


TEXTS = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", "sum", "x1", "=", "+", "İ", "\\boxed{2}", "", "\u0301"]),
        st.sampled_from([" ", "", "\n", "\xa0", ", "]),
    ),
    max_size=150,
).map(lambda parts: "".join(word + sep for word, sep in parts))


@settings(max_examples=300, deadline=None)
@given(TEXTS)
def test_gate_stats_match_reference_on_random_texts(text):
    # check_gates derives the 3-gram codes from the 2-gram ones in one pass.
    tokens = WORD_OR_PUNCT.findall(text.lower())
    stats = check_gates(text).stats
    assert stats == (oracle_ngram_stats(tokens, 2), oracle_ngram_stats(tokens, 3))


def _unchunked_ids(text: str) -> np.ndarray:
    return solver._ids([tokenize(text)])


def _report(text: str, token_ids) -> solver.GateReport:
    """check_gates(text) with its token ids from `token_ids`."""
    with mock.patch.object(solver, "_token_ids", token_ids):
        return check_gates(text)


def _assert_chunks_change_nothing(text: str, chunk: int) -> None:
    ids = solver._token_ids(text, chunk)
    assert ids.dtype == np.int64 and np.array_equal(ids, _unchunked_ids(text))
    chunked = functools.partial(solver._token_ids, chunk=chunk)
    assert _report(text, chunked) == _report(text, _unchunked_ids)


SEPARATED = st.lists(
    st.tuples(
        st.sampled_from(["x", "sum", "İ", "ΑΣ", "x1", "=", "+,", "\\boxed{2}", "", "\u0301"]),
        st.sampled_from([" ", "", "\u3000", "\x1c", "\x85", "\n", "\xa0", ". "]),
    ),
    max_size=200,
).map(lambda parts: "".join(word + sep for word, sep in parts))


@settings(max_examples=300, deadline=None)
@given(SEPARATED, st.integers(1, 9))
def test_gate_in_chunks_matches_the_whole_text_over_many_chunks(text, chunk):
    # tiny chunks cut next to punctuation, combining marks, a final sigma and
    # the non-ASCII separators \u3000, \x1c and \x85
    _assert_chunks_change_nothing(text, chunk)


@settings(max_examples=300, deadline=None)
@given(st.text(), st.integers(1, 6))
def test_gate_in_chunks_matches_the_whole_text_on_any_text(text, chunk):
    _assert_chunks_change_nothing(text, chunk)


@pytest.mark.parametrize(
    "text",
    [
        "a.b, c!d ?e (f) g.",  # punctuation on both sides of every cut
        "x.\u3000.y\x1c,z\x85!w",
        "abc.def,ghi;" * 40 + "\\boxed{3}",  # no whitespace at all: one piece
        "the answer is " * 50 + "\\boxed{4}",
    ],
)
@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13, 1 << 14])
def test_gate_in_chunks_matches_the_whole_text_at_every_cut(text, chunk):
    _assert_chunks_change_nothing(text, chunk)


@pytest.mark.parametrize("n", [5, 6, 7, 9])
def test_ngram_codes_are_ranked_before_they_could_overflow(n):
    # 3,000 tokens: 3000**6 > 2**63, so from n = 6 a level's codes must be
    # ranked before the next level multiplies them by the token count.
    rng = random.Random(n)
    tokens = [str(rng.randrange(40)) for _ in range(3000)]
    tokens[1000:1000] = ["loop", "of", "six", "tokens", "in", "it"] * 12
    assert ngram_degeneracy(tokens, n) == oracle_ngram_stats(tokens, n)


def test_gate_holds_under_two_mib_on_a_30k_token_reply():
    rng = random.Random(30)
    words = [f"w{i}" for i in range(4000)] + [",", "=", "."]
    text = " ".join(rng.choices(words, k=30_000)) + " so \\boxed{4}"
    assert 30_000 < len(tokenize(text)) < 31_000
    check_gates(text)  # anything the first call sets up is not the reply's
    tracemalloc.start()
    try:
        report = check_gates(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2 << 20, f"check_gates peaked at {peak / 2**20:.2f} MiB"


def test_ngram_stats_edge_cases():
    empty = ngram_degeneracy("one", 2)
    assert (empty.total, empty.duplicate_ratio, empty.max_consecutive) == (0, 0.0, 0)
    assert ngram_degeneracy(["pre", "tokenized", "pre", "tokenized"], 2).distinct == 2
    with pytest.raises(SolverError):
        ngram_degeneracy("a b", 0)


# --- gate checks ---------------------------------------------------------------


def test_gate_config_validation():
    with pytest.raises(SolverError):
        GateConfig(max_duplicate_2gram_ratio=1.5)
    with pytest.raises(SolverError):
        GateConfig(max_attempts=0)
    with pytest.raises(SolverError):
        GateConfig(max_consecutive_repeat=0)


def test_clean_solution_passes():
    report = check_gates(
        "First we compute 3 times 4, then subtract 5 and simplify the remainder "
        "carefully to reach \\boxed{12}."
    )
    assert report.passed and report.failures == ()
    assert report.final_answer == "12"


def test_missing_boxed_fails():
    report = check_gates("A careful derivation with no final marker.")
    assert not report.passed
    assert any("boxed" in f for f in report.failures)
    assert report.final_answer == ""


def test_repetitive_solution_fails_ratio_and_run_gates():
    report = check_gates("x y " * 12 + "\\boxed{1}")
    assert not report.passed
    assert any("2-gram duplicate ratio" in f for f in report.failures)
    assert any("consecutive repeat run" in f for f in report.failures)
    assert report.final_answer == "1"  # extraction still reported for diagnostics


def test_gates_fail_only_strictly_above_thresholds():
    # "x y x y x y x y": 2-gram ratio 5/7, 3-gram ratio 4/6, longest chunk run 4.
    # Thresholds are written as 1 - distinct/total so they are bit-identical
    # to the measured ratios; the gate trips only strictly above its limit.
    text = "x y x y x y x y"
    at_boundary = GateConfig(
        require_boxed=False,
        max_duplicate_2gram_ratio=1.0 - 2 / 7,
        max_duplicate_3gram_ratio=1.0 - 2 / 6,
        max_consecutive_repeat=4,
    )
    assert check_gates(text, at_boundary).passed
    assert not check_gates(text, replace(at_boundary, max_duplicate_2gram_ratio=0.71)).passed
    assert not check_gates(text, replace(at_boundary, max_consecutive_repeat=3)).passed


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c", "sum"]), min_size=1, max_size=60))
def test_loosening_thresholds_never_fails_a_passing_text(tokens):
    text = " ".join(tokens)
    tight = GateConfig(
        require_boxed=False,
        max_duplicate_2gram_ratio=0.3,
        max_duplicate_3gram_ratio=0.2,
        max_consecutive_repeat=3,
    )
    loose = GateConfig(
        require_boxed=False,
        max_duplicate_2gram_ratio=0.8,
        max_duplicate_3gram_ratio=0.7,
        max_consecutive_repeat=12,
    )
    if check_gates(text, tight).passed:
        assert check_gates(text, loose).passed


# --- solution prompts -----------------------------------------------------------


def test_solution_prompt_orders_parents_and_checks_ids():
    prompt = render_solution_prompt(_question(), (LOW, HIGH))
    assert prompt == render_solution_prompt(_question(), (HIGH, LOW))
    assert prompt.index("difficulty 6.0") < prompt.index("difficulty 3.0")
    assert "Answer: 9" in prompt and "Answer: 3" in prompt
    assert _question().question in prompt

    stranger = SeedProblem(id="z", question="unrelated", answer="0", difficulty=5.0)
    with pytest.raises(SolverError, match="recorded pair"):
        render_solution_prompt(_question(), (LOW, stranger))


# --- gated solving ---------------------------------------------------------------


def test_solve_happy_path():
    client, transport = make_chat()
    record = _solve(_question(), client)
    assert record.status == "accepted"
    assert record.attempts == 1
    assert record.final_answer.isdigit()
    assert record.gate_report.passed
    assert transport.calls == 1


def test_solve_regenerates_until_gates_pass():
    marker = _question().question
    bad = "the answer is " * 20
    good = "Add the counts and subtract the discards to get \\boxed{7}."
    client, transport = make_chat(script={marker: [bad, bad, good, good]})
    record = _solve(_question(), client)
    assert record.status == "accepted"
    assert record.attempts == 3
    assert record.final_answer == "7"
    assert transport.calls == 3


def test_solve_fails_after_attempt_budget():
    marker = _question().question
    client, transport = make_chat(script={marker: "never a boxed answer"})
    cfg = GateConfig(max_attempts=3)
    record = _solve(_question(), client, cfg)
    assert record.status == "failed"
    assert record.attempts == 3
    assert record.final_answer == ""
    assert not record.gate_report.passed
    assert transport.calls == 3


def test_provider_errors_consume_attempts():
    marker = _question().question
    outage = TransportError("down", retryable=False)
    good = "Count carefully: \\boxed{11}."
    client, _ = make_chat(script={marker: [outage, outage, good, good]})
    record = _solve(_question(), client)
    assert record.status == "accepted" and record.attempts == 3

    always_down, _ = make_chat(script={marker: outage})
    failed = _solve(_question(), always_down)
    assert failed.status == "failed"
    assert "provider" in failed.gate_report.failures[0]


def test_failed_record_carries_its_last_attempt():
    marker = _question().question
    outage = TransportError("down", retryable=False)
    bad = "never a boxed answer"
    cfg = GateConfig(max_attempts=2)
    client, _ = make_chat(script={marker: [bad, outage]})
    failed = _solve(_question(), client, cfg)
    assert (failed.status, failed.attempts, failed.solution_text) == ("failed", 2, "")
    assert failed.gate_report.failures[0].startswith("provider: ")

    client, _ = make_chat(script={marker: [outage, bad]})
    failed = _solve(_question(), client, cfg)
    assert (failed.status, failed.attempts, failed.solution_text) == ("failed", 2, bad)
    assert failed.gate_report.failures == check_gates(bad, cfg).failures


def test_rate_limit_storms_and_empty_replies(tmp_path):
    # max_retries 3 (make_chat), no backoff sleeps, three attempts per question.
    storm = TransportError("429 too many requests", retryable=True, status=429)
    good = "Count carefully: \\boxed{11}."
    first = _question()
    second = _question(id="hybrid:b", question="How many pallets ship on the last day?")
    script = {
        # attempt 1: three 429s outlast the retries; attempt 2: an empty reply, retried
        first.question: [storm, storm, storm, "", good],
        second.question: storm,  # every call of every attempt
    }
    client, transport = make_chat(script=script, cache_dir=tmp_path, max_in_flight=2)
    ok, down = solve_each([first, second], {"a": LOW, "b": HIGH}, client)

    assert (ok.status, ok.attempts, ok.final_answer) == ("accepted", 2, "11")
    assert (down.status, down.attempts, down.final_answer) == ("failed", 3, "")
    assert down.gate_report.failures[0].startswith("provider: ")
    assert "429" in down.gate_report.failures[0]

    log = (tmp_path / "log").read_text(encoding="utf-8")
    salts = {json.loads(line[65:])["salt"] for line in log.splitlines()}
    assert salts == {"solve:hybrid:a:2"}  # failed attempts leave nothing cached
    # first: 3 + 2 calls, 2 + 1 retries; second: 3 attempts of 3 calls, 2 retries each
    assert client.stats.snapshot() == {
        "requests": 2 + 3,
        "cache_hits": 0,
        "transport_calls": 5 + 9,
        "retries": 3 + 6,
    }
    assert transport.calls == 14


def test_each_attempt_asks_under_its_own_salt(tmp_path):
    marker = _question().question
    good = "Count carefully: \\boxed{11}."

    def reply(payload, salt):
        return good if salt == "solve:hybrid:a:3" else "the answer is " * 20

    client, transport = make_chat(script={marker: reply}, cache_dir=tmp_path)
    record = _solve(_question(), client)
    assert (record.status, record.attempts, transport.calls) == ("accepted", 3, 3)


def test_unboxed_reply_is_accepted_when_boxed_answers_are_not_required():
    marker = _question().question
    text = "Add the twelve crates to the nine pallets and report twenty one."
    client, transport = make_chat(script={marker: text})
    record = _solve(_question(), client, GateConfig(require_boxed=False))
    assert (record.status, record.attempts, record.final_answer) == ("accepted", 1, "")
    assert record.gate_report.passed and transport.calls == 1


def test_solve_requires_verified_status():
    client, _ = make_chat()
    with pytest.raises(SolverError, match="unverified"):
        _solve(_question(status="unverified"), client)


def test_solution_record_invariants():
    good = check_gates("Total is \\boxed{5}.")
    with pytest.raises(SolverError, match="passing gate report"):
        SolutionRecord(
            question_id="q",
            solution_text="t",
            final_answer="5",
            attempts=1,
            status="accepted",
            gate_report=check_gates("t"),
        )
    with pytest.raises(SolverError):
        SolutionRecord(
            question_id="q",
            solution_text="t",
            final_answer="5",
            attempts=0,
            status="accepted",
            gate_report=good,
        )


def test_solve_dataset_and_persistence(tmp_path):
    questions = [_question(), _question(id="hybrid:b", question="How many pallets total?")]
    parents = {"a": LOW, "b": HIGH}
    client, _ = make_chat(max_in_flight=2)
    records = list(solve_each(questions, parents, client))
    assert [r.question_id for r in records] == ["hybrid:a", "hybrid:b"]
    assert all(r.status == "accepted" for r in records)

    outputs = (tmp_path / "solutions.jsonl", tmp_path / "gates.jsonl")
    assert solve_dataset(questions, parents, client, GateConfig(), *outputs) == (2, 0)
    rows = [
        json.loads(line)
        for line in (tmp_path / "solutions.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert rows == [r.to_record() for r in records]
    assert set(rows[0]) == {"question_id", "solution", "final_answer", "attempts", "status"}
    gate_rows = [
        json.loads(line)
        for line in (tmp_path / "gates.jsonl").read_text(encoding="utf-8").splitlines()
    ]
    assert gate_rows == [r.gate_record() for r in records]
    assert gate_rows[0]["passed"] is True and gate_rows[0]["question_id"] == "hybrid:a"

    with pytest.raises(SolverError, match="unknown parent"):
        list(solve_each(questions, {"a": LOW}, client))


# The keys of each row, in order, as README "File formats" documents them: a
# question, score or gate-report row is its dataclass's fields in declaration
# order, so a renamed field, or a row class declared with slots=True (which
# has no field dict), fails here instead of silently changing the files.
_QUESTION_KEYS = [
    "id", "question", "category", "nominal_difficulty", "parent_low_id", "parent_high_id", "status"
]
_SCORE_KEYS = ["question_id", "score", "scorer_tag"]
_GATE_KEYS = ["question_id", "attempts", "status", "passed", "final_answer", "failures", "stats"]
_NGRAM_KEYS = ["n", "total", "distinct", "duplicate_ratio", "max_consecutive"]


def test_rows_are_their_dataclass_fields_in_declaration_order(tmp_path):
    question = _question()
    record = question.to_record()
    assert list(record) == _QUESTION_KEYS
    record["status"] = "rejected"  # a copy: the question does not change
    assert question.status == "verified"

    save_scores([DifficultyScore("hybrid:a", 5.0, "m")], tmp_path / "scores.jsonl")
    row = json.loads((tmp_path / "scores.jsonl").read_text(encoding="utf-8"))
    assert list(row) == _SCORE_KEYS

    report = check_gates("Add the crates: 3 + 4 = 7, so \\boxed{7}.")
    gate_row = SolutionRecord("hybrid:a", "text", "7", 1, "accepted", report).gate_record()
    assert list(gate_row) == _GATE_KEYS
    assert gate_row["failures"] == [] and [list(s) for s in gate_row["stats"]] == [_NGRAM_KEYS] * 2
    gate_row["stats"][0]["n"] = 5
    assert report.stats[0].n == 2


def _questions(count: int) -> list[SynthesizedQuestion]:
    return [
        _question(id=f"hybrid:{i}", question=f"How many parts remain on day {i}?")
        for i in range(count)
    ]


def test_solve_dataset_writes_the_serial_bytes_when_replies_finish_out_of_order(tmp_path):
    questions, finished = _questions(6), []

    def first_is_slow(payload, salt):  # a per-item latency: question 0 takes longest
        index = int(salt.split(":")[2])
        time.sleep(0.05 if index == 0 else 0.002)
        finished.append(index)
        return None  # the mock's usual reply

    files = {}
    for workers in (1, 2):
        finished.clear()
        client, _ = make_chat(
            script={"How many parts": first_is_slow}, latency=0.001, max_in_flight=workers
        )
        out = [tmp_path / str(workers) / name for name in ("solutions.jsonl", "gates.jsonl")]
        assert solve_dataset(questions, {"a": LOW, "b": HIGH}, client, GateConfig(), *out) == (6, 0)
        files[workers] = [path.read_bytes() for path in out]
        assert sorted(finished) == list(range(6))
        assert (finished == sorted(finished)) == (workers == 1)
    assert files[1] == files[2]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_fatal_error_mid_solve_keeps_the_old_files_and_the_paid_replies(tmp_path, workers):
    questions = _questions(6)
    questions[4] = replace(questions[4], status="unverified")  # a SolverError at its first ask
    out = [tmp_path / "solutions" / name for name in ("solutions.jsonl", "gates.jsonl")]
    for path in out:
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(b'{"old": "' + path.name.encode() + b'"}\n')
    client, _ = make_chat(cache_dir=tmp_path / "cache", latency=0.001, max_in_flight=workers)
    with pytest.raises(SolverError, match="hybrid:4 has status 'unverified'"):
        solve_dataset(questions, {"a": LOW, "b": HIGH}, client, GateConfig(), *out)
    client.cache.close()
    assert [path.read_bytes() for path in out] == [
        b'{"old": "solutions.jsonl"}\n',
        b'{"old": "gates.jsonl"}\n',
    ]
    assert sorted(p.name for p in out[0].parent.iterdir()) == ["gates.jsonl", "solutions.jsonl"]
    log = (tmp_path / "cache" / "log").read_text(encoding="utf-8")
    salts = {json.loads(line[65:])["salt"] for line in log.splitlines()}
    assert salts == {f"solve:hybrid:{i}:1" for i in range(4)}  # every reply paid for
