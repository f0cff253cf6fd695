"""Rubric verification, structural short-circuits, and the manual review loop."""
from __future__ import annotations

import itertools
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_chat
from mathsynth.providers import TransportError
from mathsynth.quality import (
    DIMENSION_LABELS,
    DIMENSIONS,
    REVIEW_HEADER_KIND,
    QualityError,
    ReviewBatch,
    VerdictParseError,
    VerificationVerdict,
    apply_review,
    export_review_batch,
    import_review_batch,
    parse_verdict,
    sample_for_review,
    structural_issues,
    verify_dataset,
)
from mathsynth.synthesis import SynthesizedQuestion


def _question(text: str = "How many crates arrive in total?", **overrides) -> SynthesizedQuestion:
    fields = dict(
        id="hybrid:q1",
        question=text,
        category="hybrid",
        nominal_difficulty=7.0,
        parent_low_id="a",
        parent_high_id="b",
    )
    fields.update(overrides)
    return SynthesizedQuestion(**fields)


def verdict_text(bits: dict[str, bool], overall_line: str | None = None) -> str:
    lines = [
        f"{DIMENSION_LABELS[d]}: {'PASS' if bits[d] else 'FAIL'}" for d in DIMENSIONS
    ]
    if overall_line is not None:
        lines.append(overall_line)
    return "\n".join(lines)


# --- verdicts ----------------------------------------------------------------


def test_overall_is_conjunction_for_all_64_combinations():
    for combo in itertools.product([True, False], repeat=len(DIMENSIONS)):
        bits = dict(zip(DIMENSIONS, combo))
        # a stated Overall line is never trusted; the parser recomputes it
        verdict = parse_verdict(verdict_text(bits, overall_line="Overall: PASS"), "q")
        assert verdict.overall == all(combo)
        assert dict(verdict.dimension_scores) == bits


def test_verdict_object_requires_every_dimension():
    with pytest.raises(QualityError):
        VerificationVerdict(question_id="q", dimension_scores={"clarity": True})


def test_parse_verdict_tolerates_case_and_bullets():
    text = "\n".join(
        [
            "- Clarity: pass",
            "* Completeness: PASS",
            "  Formatting: Pass",
            "Relevance: PASS",
            "Solvability: FAIL",
            "Logical Flow: pass",
        ]
    )
    verdict = parse_verdict(text, "q")
    assert verdict.overall is False
    assert verdict.dimension_scores["solvability"] is False
    assert verdict.rationale == text.strip()


def test_parse_verdict_requires_every_dimension():
    bits = {d: True for d in DIMENSIONS}
    text = verdict_text(bits).replace("Formatting: PASS\n", "")
    with pytest.raises(VerdictParseError, match="Formatting"):
        parse_verdict(text, "q")
    with pytest.raises(VerdictParseError):
        parse_verdict("total gibberish", "q")


# --- structural checks --------------------------------------------------------


def test_structural_issue_detection():
    assert structural_issues("") == [("completeness", "question text is empty")]
    assert structural_issues("As shown in Problem 2, count.")[0][0] == "relevance"
    assert structural_issues("Choose:\n(A) 1\n(B) 2")[0][0] == "formatting"
    assert structural_issues("A perfectly ordinary question?") == []


def test_structural_reject_skips_the_provider():
    client, transport = make_chat()
    outcome = verify_dataset([_question("Recall Problem 1 and extend it.")], client)
    assert transport.calls == 0
    (verdict,) = outcome.verdicts
    assert outcome.questions[0].status == "rejected" and not outcome.errors
    assert verdict.overall is False
    assert verdict.dimension_scores["relevance"] is False
    assert sum(not ok for ok in verdict.dimension_scores.values()) == 1
    assert "structural" in verdict.rationale


def test_verify_question_happy_path():
    client, transport = make_chat()
    outcome = verify_dataset([_question()], client)
    assert [v.overall for v in outcome.verdicts] == [True]
    assert outcome.questions[0].status == "verified"
    assert transport.calls == 1


# --- batch verification --------------------------------------------------------


def test_verify_dataset_statuses_and_errors():
    failing_text = verdict_text({**{d: True for d in DIMENSIONS}, "solvability": False})
    questions = [
        _question("A clean counting question?", id="hybrid:ok"),
        _question("This riddle cannot be pinned down.", id="hybrid:bad"),
        _question("The verifier will answer nonsense here.", id="hybrid:ugly"),
        _question("Already settled.", id="hybrid:done", status="verified"),
        _question("The endpoint refuses this one.", id="hybrid:down"),
    ]
    client, transport = make_chat(
        script={
            "cannot be pinned down": failing_text,
            "nonsense here": "I refuse to follow the format.",
            "endpoint refuses": TransportError("bad request", retryable=False, status=400),
        },
        max_in_flight=1,
    )
    outcome = verify_dataset(questions, client)
    by_id = {q.id: q.status for q in outcome.questions}
    assert by_id == {
        "hybrid:ok": "verified",
        "hybrid:bad": "rejected",
        "hybrid:ugly": "unverified",
        "hybrid:done": "verified",
        "hybrid:down": "unverified",
    }
    assert [q.id for q in outcome.questions] == [q.id for q in questions]  # order kept
    assert len(outcome.verdicts) == 2
    assert [qid for qid, _ in outcome.errors] == ["hybrid:ugly", "hybrid:down"]
    assert outcome.errors[1][1].endswith("bad request")  # the provider error's text
    assert transport.calls == 4  # the pre-verified item never went out; no retry of a 400


# --- review sampling ------------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(7, 1), (100, 10), (1000, 100), (4, 0)])
def test_sample_size_rounds_half_up(n, expected):
    ids = [f"q{i:04d}" for i in range(n)]
    batch = sample_for_review(ids, rate=0.10, seed=1)
    assert len(batch.items) == expected
    assert batch.population == n


def test_sampling_is_deterministic_and_seed_sensitive():
    ids = [f"q{i:03d}" for i in range(100)]
    a = sample_for_review(ids, rate=0.10, seed=42)
    b = sample_for_review(list(reversed(ids)), rate=0.10, seed=42)
    c = sample_for_review(ids, rate=0.10, seed=43)
    assert a.items == b.items  # input order is irrelevant
    assert a.items != c.items


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    rate=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=999),
)
def test_sampling_subset_property(n, rate, seed):
    ids = [f"q{i}" for i in range(n)]
    batch = sample_for_review(ids, rate=rate, seed=seed)
    assert set(batch.items) <= set(ids)
    assert len(set(batch.items)) == len(batch.items)
    assert len(batch.items) == int(rate * n + 0.5)


def test_sampling_input_validation():
    with pytest.raises(QualityError):
        sample_for_review(["a"], rate=0.0)
    with pytest.raises(QualityError):
        sample_for_review(["a"], rate=1.5)
    with pytest.raises(QualityError):
        sample_for_review(["a", "a"], rate=0.5)
    with pytest.raises(QualityError):
        ReviewBatch(sample_rate=0.1, seed=0, items=("a", "a"), population=2)


def test_review_batch_verdicts_default_empty_read_only_and_copied():
    batch = sample_for_review(["a", "b"], rate=1.0)
    assert batch.verdicts == {}
    with pytest.raises(TypeError):
        batch.verdicts["a"] = ("accept", "")  # type: ignore[index]

    given_verdicts = {"a": ("reject", "typo")}
    annotated = ReviewBatch(
        sample_rate=1.0, seed=0, items=("a", "b"), population=2, verdicts=given_verdicts
    )
    given_verdicts["b"] = ("accept", "")
    given_verdicts["a"] = ("accept", "")
    assert dict(annotated.verdicts) == {"a": ("reject", "typo")}


# --- review files ---------------------------------------------------------------


def _export(tmp_path, texts: dict[str, str], rate=0.5, seed=0):
    batch = sample_for_review(sorted(texts), rate=rate, seed=seed)
    path = tmp_path / "batch.jsonl"
    export_review_batch(batch, texts, path)
    return batch, path


def test_export_and_import_round_trip(tmp_path):
    texts = {f"hybrid:q{i}": f"question text {i}" for i in range(8)}
    batch, path = _export(tmp_path, texts)
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert f'"kind": "{REVIEW_HEADER_KIND}"' in lines[0]
    assert len(lines) == 1 + len(batch.items)

    imported = import_review_batch(path)
    assert imported.items == batch.items
    assert imported.sample_rate == batch.sample_rate
    assert imported.verdicts == {}  # nothing annotated yet


def test_import_rejects_bad_verdict_strings(tmp_path):
    texts = {"hybrid:q0": "text", "hybrid:q1": "text one"}
    _, path = _export(tmp_path, texts, rate=1.0)
    content = path.read_text(encoding="utf-8").replace('"verdict": ""', '"verdict": "maybe"', 1)
    path.write_text(content, encoding="utf-8")
    with pytest.raises(QualityError, match="line 2"):
        import_review_batch(path)


_DELETED = object()


@pytest.mark.parametrize(
    "row,key,value,message",
    [
        (0, "sample_rate", _DELETED, "line 1: missing field 'sample_rate'"),
        (0, "seed", None, "line 1: seed must be an integer, got None"),
        (1, "question_id", ["q0"], "line 2: question_id must be a string, got ['q0']"),
    ],
    ids=["missing-sample-rate", "null-seed", "list-question-id"],
)
def test_import_names_the_line_of_a_missing_or_mistyped_value(tmp_path, row, key, value, message):
    _, path = _export(tmp_path, {"hybrid:q0": "text", "hybrid:q1": "text one"}, rate=1.0)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    if value is _DELETED:
        del rows[row][key]
    else:
        rows[row][key] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    with pytest.raises(QualityError, match=re.escape(f"{path}: {message}")):
        import_review_batch(path)


def test_import_requires_header(tmp_path):
    path = tmp_path / "headless.jsonl"
    path.write_text('{"question_id": "q", "verdict": ""}\n', encoding="utf-8")
    with pytest.raises(QualityError, match="header"):
        import_review_batch(path)


def test_apply_review_marks_rejects(tmp_path):
    questions = [
        _question("keep me", id="hybrid:keep"),
        _question("drop me", id="hybrid:drop"),
        _question("skip me", id="hybrid:skip"),
    ]
    texts = {q.id: q.question for q in questions}
    _, path = _export(tmp_path, texts, rate=1.0)
    content = path.read_text(encoding="utf-8")
    content = content.replace(
        '{"question_id": "hybrid:drop", "question": "drop me", "verdict": "", "note": ""}',
        '{"question_id": "hybrid:drop", "question": "drop me", "verdict": "reject", '
        '"note": "ambiguous"}',
    )
    content = content.replace(
        '{"question_id": "hybrid:keep", "question": "keep me", "verdict": "", "note": ""}',
        '{"question_id": "hybrid:keep", "question": "keep me", "verdict": "accept", "note": ""}',
    )
    path.write_text(content, encoding="utf-8")
    batch = import_review_batch(path)
    assert batch.verdicts["hybrid:drop"] == ("reject", "ambiguous")

    updated = apply_review(batch, questions)
    statuses = {q.id: q.status for q in updated}
    assert statuses == {
        "hybrid:keep": "unverified",
        "hybrid:drop": "rejected",
        "hybrid:skip": "unverified",
    }


def test_apply_review_rejects_unknown_ids():
    batch = ReviewBatch(
        sample_rate=0.5,
        seed=0,
        items=("hybrid:ghost",),
        population=2,
        verdicts={"hybrid:ghost": ("reject", "")},
    )
    with pytest.raises(QualityError, match="ghost"):
        apply_review(batch, [_question()])


def test_export_requires_question_text(tmp_path):
    batch = sample_for_review(["hybrid:q0"], rate=1.0)
    with pytest.raises(QualityError, match="hybrid:q0"):
        export_review_batch(batch, {}, tmp_path / "batch.jsonl")
