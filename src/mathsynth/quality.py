"""Quality control: rubric-based automated verification plus a sampled manual review loop.

Stage one judges every synthesized question on six fixed dimensions via the
verifier model (`client.cfg.models.verifier`), with cheap structural checks
short-circuiting the provider call; a verdict's overall pass is the
conjunction of its dimensions. Stage two exports a seeded random sample to a
file a human annotator fills in; imported rejects drop items from the dataset.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from . import jsonl
from .prompts import render_verification_prompt
from .providers import ChatClient, ChatRequest, ProviderError, map_bounded
from .synthesis import (
    PARENT_REFERENCES,
    SynthesizedQuestion,
    multiple_choice_markers,
)

DIMENSIONS = (
    "clarity",
    "completeness",
    "formatting",
    "relevance",
    "solvability",
    "logical_flow",
)
DIMENSION_LABELS = {
    "clarity": "Clarity",
    "completeness": "Completeness",
    "formatting": "Formatting",
    "relevance": "Relevance",
    "solvability": "Solvability",
    "logical_flow": "Logical Flow",
}

REVIEW_SAMPLE_ALGORITHM = "mt19937-shuffle-prefix/v1"
REVIEW_HEADER_KIND = "review_batch_header"
_REVIEW_VERDICTS = ("accept", "reject")


class QualityError(ValueError):
    """Invalid verification or review data."""


class VerdictParseError(ValueError):
    """The verifier response did not contain a readable verdict."""


@dataclass(frozen=True)
class VerificationVerdict:
    """Per-dimension pass/fail for one question; `overall` is derived, never stored."""

    question_id: str
    dimension_scores: Mapping[str, bool]
    rationale: str = ""

    def __post_init__(self) -> None:
        scores = dict(self.dimension_scores)
        if tuple(sorted(scores)) != tuple(sorted(DIMENSIONS)):
            raise QualityError(
                f"dimension_scores must cover exactly {DIMENSIONS}, got {sorted(scores)}"
            )
        object.__setattr__(self, "dimension_scores", MappingProxyType(scores))

    @property
    def overall(self) -> bool:
        """The conjunction of the dimensions."""
        return all(self.dimension_scores.values())

    def to_record(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "dimensions": {d: self.dimension_scores[d] for d in DIMENSIONS},
            "overall": self.overall,
            "rationale": self.rationale,
        }


def structural_issues(question_text: str) -> list[tuple[str, str]]:
    """Cheap rejections mapped onto the rubric dimensions; empty list means clean."""
    issues: list[tuple[str, str]] = []
    if not question_text.strip():
        issues.append(("completeness", "question text is empty"))
        return issues
    for token in PARENT_REFERENCES:
        if token in question_text:
            issues.append(("relevance", f"references {token!r}"))
            break
    if len(multiple_choice_markers(question_text)) >= 2:
        issues.append(("formatting", "multiple-choice option markers"))
    return issues


def parse_verdict(text: str, question_id: str) -> VerificationVerdict:
    """Read one "<Label>: PASS|FAIL" line per dimension; the reply's own "Overall" line
    is not read, as the verdict derives overall from the dimensions."""
    scores: dict[str, bool] = {}
    for dim in DIMENSIONS:
        label = DIMENSION_LABELS[dim]
        match = re.search(
            rf"(?im)^[^\w\n]*{re.escape(label)}\s*:\s*(PASS|FAIL)\b", text
        )
        if match is None:
            raise VerdictParseError(f"no {label!r} line in verifier response")
        scores[dim] = match.group(1).upper() == "PASS"
    return VerificationVerdict(question_id, scores, rationale=text.strip())


def verify_question(question: SynthesizedQuestion, client: ChatClient) -> VerificationVerdict:
    """Verdict for one unverified question from the client's verifier model;
    structural rejects never call the provider."""
    if question.status != "unverified":
        raise QualityError(f"{question.id} has status {question.status!r}, expected unverified")
    issues = structural_issues(question.question)
    if issues:
        scores = {d: True for d in DIMENSIONS}
        for dim, _ in issues:
            scores[dim] = False
        rationale = "; ".join(f"structural: {reason}" for _, reason in issues)
        return VerificationVerdict(question.id, scores, rationale=rationale)
    request = ChatRequest.user(
        client.cfg.models.verifier,
        render_verification_prompt(question.question),
        temperature=0.0,
        max_tokens=512,
        cache_salt=f"verify:{question.id}",
    )
    return parse_verdict(client.complete(request), question.id)


@dataclass(frozen=True)
class VerificationOutcome:
    questions: tuple[SynthesizedQuestion, ...]
    verdicts: tuple[VerificationVerdict, ...]
    errors: tuple[tuple[str, str], ...]


def verify_dataset(
    questions: Sequence[SynthesizedQuestion], client: ChatClient
) -> VerificationOutcome:
    """Verify every unverified question; unparseable verdicts leave items unverified.

    Returns updated questions in input order, verdicts for every judged item,
    and (id, reason) entries for provider or parse errors.
    """

    def run_one(
        question: SynthesizedQuestion,
    ) -> tuple[SynthesizedQuestion, VerificationVerdict | None, tuple[str, str] | None]:
        if question.status != "unverified":
            return question, None, None
        try:
            verdict = verify_question(question, client)
        except (ProviderError, VerdictParseError) as exc:
            return question, None, (question.id, str(exc))
        status = "verified" if verdict.overall else "rejected"
        return question.with_status(status), verdict, None

    results = map_bounded(run_one, list(questions), client.cfg.max_in_flight)
    updated = tuple(q for q, _, _ in results)
    verdicts = tuple(v for _, v, _ in results if v is not None)
    errors = tuple(e for _, _, e in results if e is not None)
    return VerificationOutcome(questions=updated, verdicts=verdicts, errors=errors)


def save_verdicts(verdicts: Sequence[VerificationVerdict], path: str | Path) -> None:
    jsonl.write_records(path, (v.to_record() for v in verdicts))


# --- manual review sampling -------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ReviewBatch:
    """A reproducible sample of question ids for human annotation."""

    sample_rate: float
    seed: int
    items: tuple[str, ...]
    population: int
    algorithm: str = REVIEW_SAMPLE_ALGORITHM
    verdicts: Mapping[str, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_rate <= 1.0:
            raise QualityError(f"sample_rate must be in (0, 1], got {self.sample_rate}")
        if len(set(self.items)) != len(self.items):
            raise QualityError("review batch contains duplicate ids")
        object.__setattr__(self, "verdicts", MappingProxyType(dict(self.verdicts)))


def sample_for_review(
    population: Sequence[str], rate: float = 0.10, seed: int = 0
) -> ReviewBatch:
    """Seeded-shuffle prefix sample of round(rate * N) ids; a pure function of its inputs."""
    if not 0.0 < rate <= 1.0:
        raise QualityError(f"rate must be in (0, 1], got {rate}")
    ids = sorted(set(population))
    if len(ids) != len(population):
        raise QualityError("population contains duplicate ids")
    rng = random.Random(seed)
    rng.shuffle(ids)
    take = _round_half_up(rate * len(ids))
    return ReviewBatch(
        sample_rate=rate, seed=seed, items=tuple(ids[:take]), population=len(population)
    )


def export_review_batch(
    batch: ReviewBatch,
    questions_by_id: Mapping[str, str],
    path: str | Path,
) -> None:
    """Write the annotation file: a header record, then one blank-verdict row per item."""
    header = {
        "kind": REVIEW_HEADER_KIND,
        "sample_rate": batch.sample_rate,
        "seed": batch.seed,
        "population": batch.population,
        "algorithm": batch.algorithm,
    }
    rows: list[dict[str, Any]] = [header]
    for qid in batch.items:
        if qid not in questions_by_id:
            raise QualityError(f"sampled id {qid!r} has no question text")
        rows.append(
            {"question_id": qid, "question": questions_by_id[qid], "verdict": "", "note": ""}
        )
    jsonl.write_records(path, rows)


def import_review_batch(path: str | Path) -> ReviewBatch:
    """Read an annotated batch; verdicts must be "accept", "reject", or "" (unreviewed).

    A missing or mistyped header value, question_id or verdict is a
    QualityError naming the file and line.
    """
    records = list(jsonl.read_records(path))
    if not records or records[0][1].get("kind") != REVIEW_HEADER_KIND:
        raise QualityError(f"{path}: first line must be the review batch header")
    header_line, header = records[0]
    header = {"algorithm": REVIEW_SAMPLE_ALGORITHM, **header}
    sample_rate, seed, population, algorithm = _review_fields(
        path, header_line, header, sample_rate=float, seed=int, population=int, algorithm=str
    )
    items: list[str] = []
    verdicts: dict[str, tuple[str, str]] = {}
    for lineno, record in records[1:]:
        qid, verdict = _review_fields(path, lineno, record, question_id=str, verdict=str)
        items.append(qid)
        if verdict == "":
            continue
        if verdict not in _REVIEW_VERDICTS:
            raise QualityError(
                f"{path}: line {lineno}: verdict must be one of "
                f"{_REVIEW_VERDICTS} or empty, got {verdict!r}"
            )
        verdicts[qid] = (verdict, record.get("note", ""))
    return ReviewBatch(
        sample_rate=float(sample_rate),
        seed=seed,
        items=tuple(items),
        population=population,
        algorithm=algorithm,
        verdicts=verdicts,
    )


def _review_fields(
    path: str | Path, lineno: int, record: dict[str, Any], **kinds: type
) -> list[Any]:
    """`jsonl.fields`, raising its error as a QualityError."""
    try:
        return jsonl.fields(path, lineno, record, **kinds)
    except ValueError as exc:
        raise QualityError(str(exc)) from None


def apply_review(
    batch: ReviewBatch, questions: Sequence[SynthesizedQuestion]
) -> list[SynthesizedQuestion]:
    """Mark rejects from the batch; accepted and unreviewed items pass through."""
    by_id = {q.id: q for q in questions}
    for qid in batch.verdicts:
        if qid not in by_id:
            raise QualityError(f"review verdict for unknown question id {qid!r}")
    out = []
    for question in questions:
        verdict = batch.verdicts.get(question.id)
        if verdict is not None and verdict[0] == "reject":
            out.append(question.with_status("rejected"))
        else:
            out.append(question)
    return out
