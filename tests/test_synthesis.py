"""Generation prompts, output parsing, difficulty labeling, and batch synthesis."""
from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chat, topic_pair_corpus
from mathsynth.corpus import Corpus, SeedProblem
from mathsynth.pairing import EmbeddingVector, PairingConfig, QuestionPair, build_pairs
from mathsynth.prompts import (
    format_difficulty,
    pair_input_block,
    render_generation_prompt,
    render_verification_prompt,
)
from mathsynth.providers import TransportError, mock_embedding
from mathsynth.synthesis import (
    GenerationParseError,
    SynthesisConfig,
    SynthesisError,
    SynthesizedQuestion,
    load_originals,
    load_questions,
    multiple_choice_markers,
    nominal_difficulty,
    parse_generation,
    save_originals,
    save_questions,
    save_skip_report,
    synthesize_category,
)

GOOD_OUTPUT = (
    "#Core Elements#:\n- crates and totals\n\n"
    "#Scenario Integration#:\n- one depot, two schedules\n\n"
    "#New Problem#:\nA depot receives 6 crates of 9 parts each. "
    "After 5 parts are discarded, how many parts remain?"
)


def _pair(d_low: float = 4.0, d_high: float = 7.0) -> QuestionPair:
    low = SeedProblem(id="lo", question="easy crate question", answer="3", difficulty=d_low)
    high = SeedProblem(id="hi", question="hard crate question", answer="9", difficulty=d_high)
    return QuestionPair(low=low, high=high, similarity=0.9)


def toy_pairs(corpus: Corpus):
    embeddings = {
        p.id: EmbeddingVector(mock_embedding(p.question)) for p in corpus.problems
    }
    return build_pairs(corpus, embeddings, PairingConfig(tau=0.8))


# --- prompt rendering --------------------------------------------------------


def test_format_difficulty():
    assert format_difficulty(7) == "7.0"
    assert format_difficulty(4.5) == "4.5"


def test_input_block_puts_harder_parent_first():
    block = pair_input_block(_pair())
    assert block.index("#Problem 1#: hard crate question") < block.index(
        "#Problem 2#: easy crate question"
    )
    assert "Difficulty 1: 7.0" in block
    assert "Difficulty 2: 4.0" in block
    assert "Answer 1: 9" in block and "Answer 2: 3" in block


def test_generation_prompts_carry_their_section_headers():
    hybrid = render_generation_prompt("hybrid", _pair())
    decomposed = render_generation_prompt("decomposed", _pair())
    assert "#Scenario Integration#:" in hybrid and "#Simplification Strategy#:" not in hybrid
    assert "#Simplification Strategy#:" in decomposed
    assert hybrid.endswith(pair_input_block(_pair()))
    assert render_generation_prompt("hybrid", _pair()) == hybrid  # pure
    with pytest.raises(ValueError):
        render_generation_prompt("mashup", _pair())


def test_verification_prompt_lists_all_dimensions():
    prompt = render_verification_prompt("Is 2 + 2 even?")
    for name in ("Clarity", "Completeness", "Formatting", "Relevance", "Solvability"):
        assert name in prompt
    assert "Logical Flow" in prompt
    assert "Is 2 + 2 even?" in prompt
    with pytest.raises(ValueError):
        render_verification_prompt("   ")


# --- output parsing ----------------------------------------------------------


def test_parse_extracts_body_after_last_header():
    assert parse_generation(GOOD_OUTPUT, "hybrid").startswith("A depot receives 6 crates")
    echoed = "#New Problem#:\n(echoed instructions)\n" + GOOD_OUTPUT
    assert parse_generation(echoed, "hybrid") == parse_generation(GOOD_OUTPUT, "hybrid")


def test_parse_accepts_header_without_colon():
    assert parse_generation("#New Problem#\nWhat is 3 + 4?", "hybrid") == "What is 3 + 4?"


@pytest.mark.parametrize(
    "output,reason",
    [
        ("A fine question without any header.", "missing"),
        ("#New Problem#:\n   \n", "empty"),
        ("#New Problem#:\nA question?\n\n#Note#: extra commentary", "trailing"),
        ("#New Problem#:\nAs computed in Problem 1, find x.", "Problem 1"),
        ("#New Problem#:\nUnlike Problem 2, count the crates.", "Problem 2"),
    ],
)
def test_parse_rejections(output, reason):
    with pytest.raises(GenerationParseError, match=reason):
        parse_generation(output, "hybrid")


def test_parse_multiple_choice_only_blocks_decomposed():
    output = "#New Problem#:\nPick the total.\n(A) 4\n(B) 5"
    with pytest.raises(GenerationParseError, match="multiple-choice"):
        parse_generation(output, "decomposed")
    assert "(A) 4" in parse_generation(output, "hybrid")
    single = "#New Problem#:\nOnly one marker here.\n(A) 4"
    assert parse_generation(single, "decomposed")


def test_multiple_choice_markers():
    assert multiple_choice_markers("(A) x\n (B) y\ntext (C) inline") == ["A", "B"]
    assert multiple_choice_markers("no options") == []


# --- difficulty labels -------------------------------------------------------


def test_difficulty_anchor_values():
    assert nominal_difficulty("hybrid", 4.0, 7.0) == 8.0
    assert nominal_difficulty("decomposed", 4.0, 7.0) == 5.0


def test_difficulty_edge_cases():
    assert nominal_difficulty("hybrid", 4.0, 7.0, SynthesisConfig(hybrid_offset=2.0)) == 9.0
    # fractional labels: the floored midpoint may drop below the easier
    # parent; the label is clamped so ordering survives
    assert nominal_difficulty("decomposed", 4.6, 4.9) == 4.6
    with pytest.raises(SynthesisError):
        nominal_difficulty("hybrid", 7.0, 7.0)
    with pytest.raises(SynthesisError):
        nominal_difficulty("hybrid", 7.0, 4.0)
    with pytest.raises(SynthesisError):
        nominal_difficulty("original", 4.0, 7.0)
    with pytest.raises(SynthesisError):
        SynthesisConfig(hybrid_offset=-0.5)


@settings(max_examples=200, deadline=None)
@given(
    d_low=st.floats(min_value=1.0, max_value=10.0, allow_nan=False),
    span=st.floats(min_value=0.1, max_value=9.0, allow_nan=False),
)
def test_difficulty_bounds_property(d_low, span):
    d_high = d_low + span
    hybrid = nominal_difficulty("hybrid", d_low, d_high)
    decomposed = nominal_difficulty("decomposed", d_low, d_high)
    assert hybrid > d_high
    assert d_low <= decomposed < d_high
    assert decomposed == max(d_low, math.floor((d_low + d_high) / 2))


# --- question objects --------------------------------------------------------


def _question(**overrides) -> SynthesizedQuestion:
    fields = dict(
        id="hybrid:x",
        question="How many crates?",
        category="hybrid",
        nominal_difficulty=7.0,
        parent_low_id="a",
        parent_high_id="b",
    )
    fields.update(overrides)
    return SynthesizedQuestion(**fields)


def test_question_validation():
    with pytest.raises(SynthesisError):
        _question(category="original")
    with pytest.raises(SynthesisError):
        _question(status="pending")
    with pytest.raises(SynthesisError):
        _question(parent_low_id="")
    assert _question().with_status("verified").status == "verified"


def test_question_record_round_trip(tmp_path):
    q = _question()
    path = tmp_path / "q.jsonl"
    save_questions([q], path)
    loaded = load_questions(path)
    assert len(loaded) == 1
    assert loaded[0] == q

    path.write_text('{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(SynthesisError, match="line 1"):
        load_questions(path)


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("nominal_difficulty", "hard", id="hard"),
        pytest.param("nominal_difficulty", None, id="None"),
        pytest.param("nominal_difficulty", [7.0], id="difficulty2"),
        pytest.param("nominal_difficulty", True, id="bool-difficulty"),
        pytest.param("question", 5, id="int-question"),
        pytest.param("id", 7, id="int-id"),
    ],
)
def test_load_questions_names_the_line_of_a_non_numeric_difficulty(tmp_path, field, value):
    path = tmp_path / "q.jsonl"
    records = [_question().to_record(), _question(id="hybrid:y").to_record()]
    records[1][field] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    with pytest.raises(SynthesisError, match=rf"^{re.escape(str(path))}: line 2: "):
        load_questions(path)


# --- batch synthesis ---------------------------------------------------------


def test_synthesize_happy_path(toy_corpus):
    pairs = toy_pairs(toy_corpus)
    client, _ = make_chat()
    result = synthesize_category(toy_corpus, pairs, "hybrid", client)
    assert len(result.questions) == 20
    assert result.skipped == () and result.failures == ()
    sample = {q.id: q for q in result.questions}["hybrid:q00a"]
    assert sample.category == "hybrid"
    assert sample.nominal_difficulty == 7.0  # harder parent 6.0 plus offset
    assert {sample.parent_low_id, sample.parent_high_id} == {"q00a", "q00b"}
    assert sample.status == "unverified"

    decomposed = synthesize_category(toy_corpus, pairs, "decomposed", client)
    assert {q.nominal_difficulty for q in decomposed.questions} == {4.0}


def test_synthesize_skips_unpaired_seeds(toy_corpus):
    client, transport = make_chat()
    result = synthesize_category(toy_corpus, [], "hybrid", client)
    assert result.questions == ()
    assert len(result.skipped) == 20
    assert transport.calls == 0
    assert all("no pair" in reason for _, reason in result.skipped)


def test_parse_failure_gets_one_salted_retry():
    corpus = topic_pair_corpus(n_topics=1)
    pairs = toy_pairs(corpus)
    good = "#New Problem#:\nA single tidy question about crates?"
    client, transport = make_chat(
        script={"#Scenario Integration#": ["no header at all", good, good]}, max_in_flight=1
    )
    result = synthesize_category(corpus, pairs, "hybrid", client)
    assert len(result.questions) == 2 and result.failures == ()
    assert transport.calls == 3  # one seed needed a second attempt


def test_persistent_parse_failure_is_recorded():
    corpus = topic_pair_corpus(n_topics=1)
    client, transport = make_chat(
        script={"#Scenario Integration#": "never a header"}, max_in_flight=1
    )
    result = synthesize_category(corpus, toy_pairs(corpus), "hybrid", client)
    assert result.questions == ()
    assert len(result.failures) == 2
    assert transport.calls == 4  # two attempts per seed
    assert all(reason.startswith("parse:") for _, reason in result.failures)


def test_provider_failure_is_recorded():
    corpus = topic_pair_corpus(n_topics=1)
    client, transport = make_chat(
        script={"#Scenario Integration#": TransportError("down", retryable=False)},
        max_in_flight=1,
    )
    result = synthesize_category(corpus, toy_pairs(corpus), "hybrid", client)
    assert len(result.failures) == 2
    assert transport.calls == 2  # a provider error ends its seed without a retry
    assert all(reason.startswith("provider:") for _, reason in result.failures)


def test_every_seed_lands_in_exactly_one_bucket(toy_corpus):
    pairs = toy_pairs(toy_corpus)[:4]  # only the first few topics stay pairable
    client, _ = make_chat()
    result = synthesize_category(toy_corpus, pairs, "decomposed", client)
    ids = (
        [q.id.split(":", 1)[1] for q in result.questions]
        + [sid for sid, _ in result.skipped]
        + [sid for sid, _ in result.failures]
    )
    assert sorted(ids) == sorted(p.id for p in toy_corpus.problems)


def test_original_records(tmp_path, toy_corpus):
    path = tmp_path / "original.jsonl"
    problems = save_originals(toy_corpus, path)
    assert load_originals(path) == problems
    assert len(problems) == 20
    assert [p.id for p in problems] == sorted(p.id for p in problems)
    first = problems[0]
    assert first.id == "original:q00a"
    assert first.answer == "10"
    assert first.difficulty == 3.0


def test_original_rows_are_question_rows_then_the_answer(tmp_path, toy_corpus):
    path = tmp_path / "original.jsonl"
    save_originals(toy_corpus, path)
    first = path.read_bytes().splitlines()[0]
    keys = [field.name for field in dataclasses.fields(SynthesizedQuestion)]
    assert list(json.loads(first)) == [*keys, "answer"]
    assert first == (
        b'{"id": "original:q00a", "question": "Topic 00 inventory count puzzle with 3 crates '
        b'and a simple twist.", "category": "original", "nominal_difficulty": 3.0, '
        b'"parent_low_id": "", "parent_high_id": "", "status": "verified", "answer": "10"}'
    )


def test_skip_report_is_sorted(tmp_path):
    path = tmp_path / "skips.jsonl"
    save_skip_report(
        skipped=[("zz", "no pair above the similarity threshold")],
        failures=[("aa", "provider: down")],
        path=path,
    )
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert '"aa"' in lines[0] and '"zz"' in lines[1]
    assert '"kind": "failure"' in lines[0]
