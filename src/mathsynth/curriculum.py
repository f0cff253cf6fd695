"""Curriculum construction: stage graded items from easiest to hardest and export SFT files.

Two plan shapes exist. The pure plan keeps one dataset's three categories in
their fixed difficulty order. The blended plan merges several graded datasets,
ranks whole categories by the mean of their items' difficulty scores, and
groups consecutive categories into stages (two per stage by default), so a
fine-tune can walk a merged corpus from easy to hard. Scores come from the
client's scorer model (`client.cfg.models.scorer`) via `client.complete_each`.
"""
from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, NamedTuple, Sequence, get_type_hints

from . import jsonl
from .prompts import render_scoring_prompt
from .providers import ChatClient, ChatRequest, ProviderError
from .solver import read_solutions
from .synthesis import CATEGORIES

SCORE_RANGE = (1.0, 10.0)
_SCORE_OVER_TEN = re.compile(r"(-?\d+(?:\.\d+)?)\s*/\s*10")
_FIRST_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


class CurriculumError(ValueError):
    """Invalid curriculum inputs or an impossible staging request."""


class StoredSolution(NamedTuple):
    """A solution left in its solutions file: the file and its row's span.

    The row was checked when the span was taken; `export_sft_stages` reads
    the text back when it writes the item.
    """

    path: Path
    span: jsonl.Span


@dataclass(frozen=True)
class GradedItem:
    """One training example with its category label and difficulty metadata.

    The solution is the text itself (an original's official answer) or, for a
    solver's reply, where it is stored, so that a plan holds no reply's text.
    """

    question_id: str
    question: str
    solution: str | StoredSolution
    category_label: str
    difficulty_score: float | None = None

    def __post_init__(self) -> None:
        if not self.question_id or not self.category_label:
            raise CurriculumError("question_id and category_label must be non-empty")
        stored = isinstance(self.solution, StoredSolution)
        if not self.question.strip() or not (stored or self.solution.strip()):
            raise CurriculumError(f"{self.question_id}: question and solution must be non-empty")

    def split_label(self) -> tuple[str, str]:
        """(dataset, category) parts of a "dataset/category" label; dataset may be ""."""
        if "/" in self.category_label:
            dataset, category = self.category_label.split("/", 1)
            return dataset, category
        return "", self.category_label


@dataclass(frozen=True)
class Stage:
    name: str
    items: tuple[GradedItem, ...]
    mean_difficulty: float
    categories: tuple[str, ...]


@dataclass(frozen=True)
class CurriculumPlan:
    stages: tuple[Stage, ...]
    grouping: int

    def __post_init__(self) -> None:
        if not self.stages:
            raise CurriculumError("a plan needs at least one stage")
        seen: set[str] = set()
        for stage in self.stages:
            for item in stage.items:
                if item.question_id in seen:
                    raise CurriculumError(
                        f"item {item.question_id!r} appears in more than one stage"
                    )
                seen.add(item.question_id)

    def total_items(self) -> int:
        return sum(len(stage.items) for stage in self.stages)


def _mean_difficulty(items: Sequence[GradedItem]) -> float:
    scores = [i.difficulty_score for i in items if i.difficulty_score is not None]
    if not scores:
        return 0.0
    return sum(scores) / len(scores)


def build_pure_curriculum(
    items: Sequence[GradedItem], *, allow_empty: bool = False
) -> CurriculumPlan:
    """Three stages in the fixed category order, items sorted by id within each.

    The fixed order wins over measured means: real data can put an easy-seed
    corpus's original questions below its decomposed ones, so a mean inversion
    is warned about, never an error.
    """
    buckets: dict[str, list[GradedItem]] = {c: [] for c in CATEGORIES}
    for item in items:
        _, category = item.split_label()
        if category not in buckets:
            raise CurriculumError(
                f"{item.question_id}: category {category!r} is not one of {CATEGORIES}"
            )
        buckets[category].append(item)
    stages = []
    for category in CATEGORIES:
        members = sorted(buckets[category], key=lambda i: i.question_id)
        if not members and not allow_empty:
            raise CurriculumError(
                f"category {category!r} has no items; pass allow_empty to emit it anyway"
            )
        if not members:
            warnings.warn(f"emitting empty stage for category {category!r}", stacklevel=2)
        stages.append(
            Stage(
                name=category,
                items=tuple(members),
                mean_difficulty=_mean_difficulty(members),
                categories=(category,),
            )
        )
    means = [s.mean_difficulty for s in stages if s.items]
    if any(b < a for a, b in zip(means, means[1:])):
        warnings.warn(
            "stage mean difficulties are not non-decreasing; fixed category order kept",
            stacklevel=2,
        )
    return CurriculumPlan(stages=tuple(stages), grouping=1)


@dataclass(frozen=True)
class DifficultyScore:
    question_id: str
    score: float
    scorer_tag: str

    def __post_init__(self) -> None:
        lo, hi = SCORE_RANGE
        if not lo <= self.score <= hi:
            raise CurriculumError(f"score {self.score} outside [{lo}, {hi}]")
        object.__setattr__(self, "score", float(self.score))


# Each field of a score row, in DifficultyScore's order, and its kind.
_SCORE_KINDS = get_type_hints(DifficultyScore)


def parse_score(text: str) -> float | None:
    """First number before "/10" if present, else the first standalone number."""
    match = _SCORE_OVER_TEN.search(text)
    if match is None:
        match = _FIRST_NUMBER.search(text)
    if match is None:
        return None
    return float(match.group(1) if match.lastindex else match.group(0))


def _clamp_score(value: float, question_id: str) -> float:
    lo, hi = SCORE_RANGE
    if value < lo or value > hi:
        warnings.warn(
            f"{question_id}: score {value} clamped into [{lo}, {hi}]", stacklevel=3
        )
    return min(hi, max(lo, value))


def score_difficulty(
    items: Sequence[GradedItem], client: ChatClient
) -> tuple[list[DifficultyScore], list[tuple[str, str]]]:
    """One difficulty score per item from the client's scorer model, which each
    score names; attempt n carries the salt `score:{id}:{n}`, and an
    unparseable response gets one retry, then the item goes missing."""
    model = client.cfg.models.scorer

    def request(item: GradedItem, attempt: int) -> ChatRequest:
        return ChatRequest(
            model,
            render_scoring_prompt(item.question),
            temperature=0.0,
            max_tokens=64,
            cache_salt=f"score:{item.question_id}:{attempt}",
        )

    def accept(
        item: GradedItem, attempt: int, reply: str | ProviderError
    ) -> tuple[bool, DifficultyScore | tuple[str, str]]:
        if isinstance(reply, ProviderError):
            return True, (item.question_id, f"provider: {reply}")
        value = parse_score(reply)
        if value is None:
            return False, (item.question_id, f"no number in scorer response: {reply[:80]!r}")
        score = _clamp_score(value, item.question_id)
        return True, DifficultyScore(item.question_id, score, model)

    results = list(client.complete_each(items, request, accept, 2))
    scores = [r for r in results if isinstance(r, DifficultyScore)]
    missing = [r for r in results if not isinstance(r, DifficultyScore)]
    return scores, missing


def build_blended_curriculum(
    datasets: Sequence[Sequence[GradedItem]], grouping: int = 2
) -> CurriculumPlan:
    """Merge datasets, rank categories by mean score, group consecutive categories.

    Category means come from the items' difficulty scores; an item whose score
    is None inherits its category mean so flaky scoring never drops data, and
    a category with no scored item is an error. Ties between category
    means break by (dataset, category) name. Stage means are non-decreasing
    by construction because categories are grouped in rank order.
    """
    if grouping < 1:
        raise CurriculumError("grouping must be at least 1")
    groups: dict[str, list[GradedItem]] = {}
    for dataset in datasets:
        for item in dataset:
            groups.setdefault(item.category_label, []).append(item)
    if not groups:
        raise CurriculumError("no items to stage")

    ranked: list[tuple[float, str, str, str]] = []
    for label, members in groups.items():
        member_scores = [i.difficulty_score for i in members if i.difficulty_score is not None]
        if not member_scores:
            raise CurriculumError(f"category {label!r} has no scored items")
        mean = sum(member_scores) / len(member_scores)
        dataset_part, category_part = members[0].split_label()
        ranked.append((mean, dataset_part, category_part, label))
    ranked.sort()

    stages = []
    for index in range(0, len(ranked), grouping):
        chunk = ranked[index : index + grouping]
        items: list[GradedItem] = []
        for mean, _, _, label in chunk:
            for item in sorted(groups[label], key=lambda i: i.question_id):
                if item.difficulty_score is None:
                    item = replace(item, difficulty_score=mean)
                items.append(item)
        stages.append(
            Stage(
                name=f"stage{index // grouping + 1}",
                items=tuple(items),
                mean_difficulty=_mean_difficulty(items),
                categories=tuple(label for _, _, _, label in chunk),
            )
        )
    return CurriculumPlan(stages=tuple(stages), grouping=grouping)


def export_sft_stages(
    plan: CurriculumPlan, out_dir: str | Path, *, allow_empty: bool = False
) -> Path:
    """Write stage{k}.jsonl conversation files plus manifest.json; returns the manifest path.

    A stage*.jsonl file the plan does not write (left by an export of more
    stages) is removed, so the directory's stage files are the manifest's.

    A `StoredSolution` is read back from its file as its row is written, so
    one solution text is held at a time; each solutions file is opened once
    per export. A stored row that no longer has the item's question_id is a
    CurriculumError naming the file and line; one that is no longer a
    solutions row is a SolverError (`solver.read_solutions`).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solutions = _solution_texts([item for stage in plan.stages for item in stage.items])
    manifest_stages = []
    for index, stage in enumerate(plan.stages, start=1):
        if not stage.items and not allow_empty:
            raise CurriculumError(f"stage {stage.name!r} is empty")
        filename = f"stage{index}.jsonl"
        # map, unlike a generator, holds no row while it builds the next
        jsonl.write_records(out / filename, map(_sft_row, stage.items, solutions))
        manifest_stages.append(
            {
                "name": stage.name,
                "file": filename,
                "size": len(stage.items),
                "mean_difficulty": stage.mean_difficulty,
                "categories": list(stage.categories),
            }
        )
    written = {entry["file"] for entry in manifest_stages}
    for stale in out.glob("stage*.jsonl"):
        if stale.name not in written:
            stale.unlink()
    manifest = {"grouping": plan.grouping, "total_items": plan.total_items(), "stages": manifest_stages}
    manifest_path = out / "manifest.json"
    jsonl.write_json(manifest_path, manifest)
    return manifest_path


def _sft_row(item: GradedItem, solution: str) -> dict[str, Any]:
    return {
        "messages": [
            {"role": "user", "content": item.question},
            {"role": "assistant", "content": solution},
        ],
        "meta": {
            "question_id": item.question_id,
            "category_label": item.category_label,
            "difficulty": item.difficulty_score,
        },
    }


def _solution_texts(items: Sequence[GradedItem]) -> Iterator[str]:
    """Each item's solution text, in order: its own, or its stored row's."""
    spans: dict[Path, list[jsonl.Span]] = {}
    for item in items:
        if isinstance(item.solution, StoredSolution):
            spans.setdefault(item.solution.path, []).append(item.solution.span)
    rows = {path: read_solutions(path, at) for path, at in spans.items()}
    for item in items:
        if not isinstance(item.solution, StoredSolution):
            yield item.solution
            continue
        row, text = next(rows[item.solution.path])
        if row.question_id != item.question_id:
            raise CurriculumError(
                f"{item.solution.path}: line {row.span.lineno}: question_id "
                f"{row.question_id!r} where {item.question_id!r} was read; the file changed"
            )
        yield text
        del text


def save_scores(scores: Sequence[DifficultyScore], path: str | Path) -> dict[str, float]:
    """One row per score (its fields), sorted by question_id; returns what `load_scores` gives."""
    ordered = sorted(scores, key=lambda s: s.question_id)
    jsonl.write_records(path, map(vars, ordered))
    return {s.question_id: s.score for s in ordered}


def load_scores(path: str | Path) -> dict[str, float]:
    def score(record: dict[str, Any]) -> DifficultyScore:
        return DifficultyScore(*jsonl.fields(record, **_SCORE_KINDS))

    return {s.question_id: s.score for s in jsonl.load(path, score, CurriculumError)}
