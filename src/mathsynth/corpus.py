"""Seed corpora: load and validate difficulty-annotated problems.

A corpus file is UTF-8, one JSON object per line. Required keys: "question"
(string), "answer" (string), "difficulty" (number). Optional: "id". Other
keys are ignored.
"""
from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import jsonl

_WHITESPACE = re.compile(r"\s+")


class CorpusError(ValueError):
    """Malformed or inconsistent corpus data."""


def question_hash(text: str) -> str:
    """Stable content hash of a question: sha256 hex of whitespace-normalized text."""
    normalized = _WHITESPACE.sub(" ", text.strip())
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()


def _check_difficulty(value: Any) -> float:
    # bool is an int subclass; JSON true/false must not pass as a difficulty
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CorpusError("non-numeric difficulty")
    value = float(value)
    if not math.isfinite(value):
        raise CorpusError("difficulty must be finite")
    return value


@dataclass(frozen=True)
class SeedProblem:
    """One (question, answer, difficulty) record from a seed corpus."""

    id: str
    question: str
    answer: str
    difficulty: float

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("empty id")
        if not self.question.strip():
            raise CorpusError("empty question")
        if not self.answer.strip():
            raise CorpusError("empty answer")
        object.__setattr__(self, "difficulty", _check_difficulty(self.difficulty))


@dataclass(frozen=True)
class Corpus:
    """An ordered, duplicate-free collection of seed problems."""

    problems: tuple[SeedProblem, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "problems", tuple(self.problems))
        seen_ids: set[str] = set()
        seen_questions: set[str] = set()
        for problem in self.problems:
            if problem.id in seen_ids:
                raise CorpusError(f"duplicate id {problem.id!r}")
            if problem.question in seen_questions:
                raise CorpusError(
                    f"duplicate question text (id {problem.id!r}); "
                    "exact duplicates are rejected at load"
                )
            seen_ids.add(problem.id)
            seen_questions.add(problem.question)

    def __len__(self) -> int:
        return len(self.problems)

    def by_id(self) -> dict[str, SeedProblem]:
        return {problem.id: problem for problem in self.problems}


def problem_from_record(record: dict[str, Any]) -> SeedProblem:
    """Build a SeedProblem from a parsed record, validating the schema; other keys are ignored."""
    for key in ("question", "answer", "difficulty"):
        if key not in record:
            raise CorpusError(f"missing field {key!r}")
    question = record["question"]
    answer = record["answer"]
    if not isinstance(question, str) or not question.strip():
        raise CorpusError("question must be a non-empty string")
    if not isinstance(answer, str) or not answer.strip():
        raise CorpusError("answer must be a non-empty string")
    problem_id = record.get("id") or question_hash(question)
    if not isinstance(problem_id, str):
        raise CorpusError("id must be a string")
    return SeedProblem(
        id=problem_id, question=question, answer=answer, difficulty=record["difficulty"]
    )


def load_corpus(path: str | Path) -> Corpus:
    """Load a line-delimited corpus file.

    Missing ids are assigned from the content hash of the question text.
    Malformed lines, duplicate ids, and byte-identical duplicate questions are
    hard errors with line-numbered diagnostics.
    """
    path = Path(path)
    problems: list[SeedProblem] = []
    seen_ids: dict[str, int] = {}
    seen_questions: dict[str, int] = {}
    for lineno, record in jsonl.read_records(path):
        try:
            problem = problem_from_record(record)
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from None
        if problem.id in seen_ids:
            raise CorpusError(
                f"{path}: line {lineno}: duplicate id {problem.id!r} "
                f"(first seen on line {seen_ids[problem.id]})"
            )
        if problem.question in seen_questions:
            raise CorpusError(
                f"{path}: line {lineno}: duplicate question text "
                f"(first seen on line {seen_questions[problem.question]})"
            )
        seen_ids[problem.id] = lineno
        seen_questions[problem.question] = lineno
        problems.append(problem)
    return Corpus(problems=tuple(problems))

