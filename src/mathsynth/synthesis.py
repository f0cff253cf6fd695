"""Question synthesis: render generation prompts, parse outputs, assign difficulty labels.

Two templates have the generator model (`client.cfg.models.generator`, asked
through `client.complete_each`) write new questions from a pair of similar
seed problems: "hybrid" fuses both parents into one harder scenario,
"decomposed" simplifies the harder parent toward the easier one. Seed problems
are also re-emitted unchanged as the "original" category, giving three
difficulty levels per seed corpus.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence, get_type_hints

from . import jsonl
from .corpus import Corpus, SeedProblem
from .pairing import QuestionPair, generation_pairs
from .prompts import render_generation_prompt
from .providers import ChatClient, ChatRequest, ProviderError

# Total order used by curriculum staging: easiest to hardest.
CATEGORIES = ("decomposed", "original", "hybrid")
GENERATION_TEMPLATES = ("hybrid", "decomposed")
STATUSES = ("unverified", "verified", "rejected")

NEW_PROBLEM_HEADER = re.compile(r"#New Problem#:?")
_TRAILING_HEADER = re.compile(r"(?m)^\s*#[A-Za-z][^#\n]*#:?\s*$|#[A-Za-z][^#\n]*#:")
_CHOICE_MARKER = re.compile(r"(?m)^\s*\(([A-E])\)")
PARENT_REFERENCES = ("Problem 1", "Problem 2")


class SynthesisError(ValueError):
    """Invalid synthesized-question data or request."""


class GenerationParseError(ValueError):
    """The provider output could not be turned into a usable question."""


@dataclass(frozen=True)
class SynthesizedQuestion:
    id: str
    question: str
    category: str
    nominal_difficulty: float
    parent_low_id: str
    parent_high_id: str
    status: str = "unverified"

    def __post_init__(self) -> None:
        if self.category not in GENERATION_TEMPLATES:
            raise SynthesisError(
                f"category must be one of {GENERATION_TEMPLATES}, got {self.category!r}; "
                "original items pass through as plain records"
            )
        if not self.id or not self.question.strip():
            raise SynthesisError("id and question must be non-empty")
        if self.status not in STATUSES:
            raise SynthesisError(f"unknown status {self.status!r}")
        if not self.parent_low_id or not self.parent_high_id:
            raise SynthesisError("both parent ids are required")

    def with_status(self, status: str) -> "SynthesizedQuestion":
        return replace(self, status=status)

    def to_record(self) -> dict[str, Any]:
        """The question row: a copy of the fields, in declaration order."""
        return dict(vars(self))


@dataclass(frozen=True)
class SynthesisConfig:
    """The `synthesis` config section; the hybrid_offset default matches the worked anchors."""

    templates: tuple[str, ...] = GENERATION_TEMPLATES
    hybrid_offset: float = 1.0
    temperature: float = 0.7
    max_tokens: int = 4096

    def __post_init__(self) -> None:
        if not self.templates:
            raise SynthesisError("templates must enable at least one template")
        for template in self.templates:
            if template not in GENERATION_TEMPLATES:
                raise SynthesisError(
                    f"templates must come from {GENERATION_TEMPLATES}, got {template!r}"
                )
        if len(set(self.templates)) != len(self.templates):
            raise SynthesisError(f"templates must not repeat, got {list(self.templates)}")
        if self.hybrid_offset < 0:
            raise SynthesisError(f"hybrid_offset must be non-negative, got {self.hybrid_offset}")
        if not 0.0 <= self.temperature <= 2.0:
            raise SynthesisError(f"temperature must be in [0, 2], got {self.temperature}")
        if self.max_tokens < 1:
            raise SynthesisError(f"max_tokens must be positive, got {self.max_tokens}")


def multiple_choice_markers(text: str) -> list[str]:
    """Distinct line-leading option letters like "(A)"; two or more flags the text."""
    return sorted(set(_CHOICE_MARKER.findall(text)))


def parse_generation(output: str, template: str) -> str:
    """Extract the question body after the last "#New Problem#:" header.

    Rejects missing headers, empty bodies, trailing section headers after the
    body (commentary the prompt forbids), leaked parent references, and, for
    the decomposed template, multiple-choice option markers.
    """
    matches = list(NEW_PROBLEM_HEADER.finditer(output))
    if not matches:
        raise GenerationParseError("missing #New Problem# header")
    body = output[matches[-1].end() :].strip()
    if not body:
        raise GenerationParseError("empty problem body")
    if _TRAILING_HEADER.search(body):
        raise GenerationParseError("trailing section header after the problem body")
    for token in PARENT_REFERENCES:
        if token in body:
            raise GenerationParseError(f"body references {token!r}")
    if template == "decomposed" and len(multiple_choice_markers(body)) >= 2:
        raise GenerationParseError("multiple-choice markers in decomposed output")
    return body


def nominal_difficulty(
    category: str,
    d_low: float,
    d_high: float,
    cfg: SynthesisConfig | None = None,
) -> float:
    """Difficulty metadata for a synthesized question, from its parents' labels.

    hybrid targets above the harder parent (d_high + cfg.hybrid_offset);
    decomposed targets between the parents (floor of the mean, clamped to
    d_low so the bound survives fractional labels). These labels drive
    curriculum ordering only; they are not measurements.
    """
    cfg = cfg or SynthesisConfig()
    if not d_low < d_high:
        raise SynthesisError(f"need d_low < d_high, got {d_low} and {d_high}")
    if category == "hybrid":
        return float(d_high) + cfg.hybrid_offset
    if category == "decomposed":
        return max(float(d_low), float(math.floor((d_low + d_high) / 2)))
    raise SynthesisError(f"no difficulty formula for category {category!r}")


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of one template over one corpus: questions plus per-seed skips and failures.

    `skipped` holds seeds with no usable pair; `failures` holds provider or
    parse errors. Every seed lands in exactly one of the three buckets.
    """

    questions: tuple[SynthesizedQuestion, ...]
    skipped: tuple[tuple[str, str], ...]
    failures: tuple[tuple[str, str], ...]


def synthesize_category(
    corpus: Corpus,
    pairs: Sequence[QuestionPair],
    template: str,
    client: ChatClient,
    cfg: SynthesisConfig | None = None,
) -> SynthesisResult:
    """Generate one question per pairable seed with the client's generator model.

    Attempt n carries the salt `gen:{template}:{seed}:{n}`; a parse failure
    gets one retry, a provider error ends the seed.
    """
    if template not in GENERATION_TEMPLATES:
        raise SynthesisError(f"unknown template {template!r}")
    cfg = cfg or SynthesisConfig()
    seeds = sorted(corpus.problems, key=lambda p: p.id)
    pair_of = generation_pairs(pairs)

    def request(seed: SeedProblem, attempt: int) -> ChatRequest:
        return ChatRequest(
            client.cfg.models.generator,
            render_generation_prompt(template, pair_of[seed.id]),
            temperature=cfg.temperature,
            max_tokens=cfg.max_tokens,
            cache_salt=f"gen:{template}:{seed.id}:{attempt}",
        )

    def accept(
        seed: SeedProblem, attempt: int, reply: str | ProviderError
    ) -> tuple[bool, SynthesizedQuestion | tuple[str, str]]:
        if isinstance(reply, ProviderError):
            return True, (seed.id, f"provider: {reply}")
        try:
            body = parse_generation(reply, template)
        except GenerationParseError as exc:
            return False, (seed.id, f"parse: {exc}")
        pair = pair_of[seed.id]
        return True, SynthesizedQuestion(
            id=f"{template}:{seed.id}",
            question=body,
            category=template,
            nominal_difficulty=nominal_difficulty(
                template, pair.low.difficulty, pair.high.difficulty, cfg
            ),
            parent_low_id=pair.low.id,
            parent_high_id=pair.high.id,
        )

    paired = [seed for seed in seeds if seed.id in pair_of]
    outcomes = list(client.complete_each(paired, request, accept, 2))
    return SynthesisResult(
        questions=tuple(o for o in outcomes if isinstance(o, SynthesizedQuestion)),
        skipped=tuple(
            (seed.id, "no pair above the similarity threshold")
            for seed in seeds
            if seed.id not in pair_of
        ),
        failures=tuple(o for o in outcomes if not isinstance(o, SynthesizedQuestion)),
    )


def original_records(corpus: Corpus) -> list[dict[str, Any]]:
    """Seed problems re-emitted as the original category, trusted as-is.

    The extra `answer` field carries the official answer so the curriculum
    stage can use it as the training solution; generated categories get their
    solutions from the solver instead.
    """
    records = []
    for seed in sorted(corpus.problems, key=lambda p: p.id):
        records.append(
            {
                "id": f"original:{seed.id}",
                "question": seed.question,
                "category": "original",
                "nominal_difficulty": float(seed.difficulty),
                "parent_low_id": "",
                "parent_high_id": "",
                "status": "verified",
                "answer": seed.answer,
            }
        )
    return records


def save_questions(questions: Sequence[SynthesizedQuestion], path: str | Path) -> None:
    jsonl.write_records(path, (q.to_record() for q in questions))


# Each field of a question row, in SynthesizedQuestion's order, and its kind.
_QUESTION_KINDS = get_type_hints(SynthesizedQuestion)


def _question_from_record(record: dict[str, Any]) -> SynthesizedQuestion:
    return SynthesizedQuestion(*jsonl.fields({"status": "unverified", **record}, **_QUESTION_KINDS))


def load_questions(path: str | Path) -> list[SynthesizedQuestion]:
    """The questions of a generated or verified file; a row without `status` is unverified.

    A missing or mistyped field, or a row the question checks reject, is a
    SynthesisError naming the file and line.
    """
    return jsonl.load(path, _question_from_record, SynthesisError)


def save_skip_report(
    skipped: Sequence[tuple[str, str]],
    failures: Sequence[tuple[str, str]],
    path: str | Path,
) -> None:
    rows = [{"seed_id": sid, "reason": reason, "kind": "skip"} for sid, reason in skipped]
    rows += [{"seed_id": sid, "reason": reason, "kind": "failure"} for sid, reason in failures]
    rows.sort(key=lambda r: r["seed_id"])
    jsonl.write_records(path, rows)
