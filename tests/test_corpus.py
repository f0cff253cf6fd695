"""Seed corpus loading and validation."""
from __future__ import annotations

import json

import pytest

from mathsynth.corpus import (
    CorpusError,
    SeedProblem,
    load_corpus,
    problem_from_record,
    question_hash,
)


def test_seed_problem_rejects_blank_fields():
    with pytest.raises(CorpusError):
        SeedProblem(id="", question="q", answer="1", difficulty=3.0)
    with pytest.raises(CorpusError):
        SeedProblem(id="a", question="   ", answer="1", difficulty=3.0)
    with pytest.raises(CorpusError):
        SeedProblem(id="a", question="q", answer="", difficulty=3.0)


@pytest.mark.parametrize(
    "bad",
    [True, False, "7", None, float("nan"), float("inf"), pytest.param(10**400, id="10**400")],
)
def test_seed_problem_rejects_bad_difficulty(bad):
    with pytest.raises(CorpusError, match=r"^difficulty must be a number, got "):
        SeedProblem(id="a", question="q", answer="1", difficulty=bad)


def test_extra_keys_are_ignored(tmp_path):
    rec = {"id": "a", "question": "What is 2+2?", "answer": "4", "difficulty": 1.5}
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(rec | {"source": "unit", "topic": "arith"}) + "\n", encoding="utf-8")
    assert load_corpus(path).problems == (SeedProblem(**rec),)


def test_default_id_is_question_hash():
    rec = {"question": "What   is\n 2+2?", "answer": "4", "difficulty": 1.0}
    p = problem_from_record(rec)
    assert p.id == question_hash("What is 2+2?")
    assert problem_from_record(rec | {"id": None}) == p
    # hash ignores whitespace layout, not content
    assert question_hash("a b") != question_hash("a c")
    assert question_hash(" a\tb \n") == question_hash("a b")


@pytest.mark.parametrize("bad", [0, False, "", [], 5], ids=repr)
def test_a_given_id_must_be_a_non_empty_string(tmp_path, bad):
    path = tmp_path / "ids.jsonl"
    rows = [
        {"id": "a", "question": "q1", "answer": "1", "difficulty": 1.0},
        {"id": bad, "question": "q2", "answer": "2", "difficulty": 2.0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    reason = "empty id" if bad == "" else f"id must be a string, got {bad!r}"
    assert str(exc.value) == f"{path}: line 2: {reason}"


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    rows = [
        {"id": "a", "question": "q1", "answer": "1", "difficulty": 1.0},
        {"id": "b", "question": "q2", "answer": "2"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_load_rejects_duplicate_ids_with_first_seen_line(tmp_path):
    path = tmp_path / "dup.jsonl"
    rows = [
        {"id": "a", "question": "q1", "answer": "1", "difficulty": 1.0},
        {"id": "b", "question": "q2", "answer": "2", "difficulty": 2.0},
        {"id": "a", "question": "q3", "answer": "3", "difficulty": 3.0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError) as exc:
        load_corpus(path)
    msg = str(exc.value)
    assert "line 3" in msg and "line 1" in msg and "'a'" in msg


def test_load_rejects_duplicate_question_text(tmp_path):
    path = tmp_path / "dupq.jsonl"
    rows = [
        {"id": "a", "question": "same question", "answer": "1", "difficulty": 1.0},
        {"id": "b", "question": "same question", "answer": "2", "difficulty": 2.0},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


def test_load_skips_blank_lines(tmp_path):
    path = tmp_path / "blanks.jsonl"
    rec = {"id": "a", "question": "q", "answer": "1", "difficulty": 1.0}
    path.write_text("\n" + json.dumps(rec) + "\n\n", encoding="utf-8")
    assert len(load_corpus(path)) == 1


def test_by_id_lookup(toy_corpus):
    table = toy_corpus.by_id()
    assert table["q03b"].difficulty == 6.0
    assert "missing" not in table
