"""The row contract of stage inputs: a row with a missing or mistyped field,
or a line that is not JSON or not UTF-8, is an error of the reading module's
own class that names the file and line."""
from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import pytest

import mathsynth.cli as cli
from mathsynth.corpus import Corpus, CorpusError, SeedProblem, load_corpus
from mathsynth.curriculum import CurriculumError, load_scores
from mathsynth.pairing import PairingError, load_pairs
from mathsynth.quality import (
    REVIEW_HEADER_KIND,
    REVIEW_SAMPLE_ALGORITHM,
    QualityError,
    import_review_batch,
)
from mathsynth.synthesis import SynthesisError, load_questions


class Loader(NamedTuple):
    files: dict[str, list[dict[str, Any]]]  # valid files, relative to the root
    file: str  # the file whose row a case breaks
    line: int  # the row it breaks, 1-based
    read: Callable[[Path], Any]  # reads the files under a root
    error: type[ValueError]
    missing: str  # a required field
    wrong: tuple[str, Any, str]  # a field, a value of another kind, and the message


_SEEDS = [
    {"id": "a", "question": "question a", "answer": "1", "difficulty": 2.0},
    {"id": "b", "question": "question b", "answer": "2", "difficulty": 5.0},
]
_CORPUS = Corpus(tuple(SeedProblem(**record) for record in _SEEDS))
_QUESTION = {
    "id": "hybrid:a",
    "question": "How many crates?",
    "category": "hybrid",
    "nominal_difficulty": 7.0,
    "parent_low_id": "a",
    "parent_high_id": "b",
}
_REVIEW = [
    {
        "kind": REVIEW_HEADER_KIND,
        "sample_rate": 1.0,
        "seed": 0,
        "population": 1,
        "algorithm": REVIEW_SAMPLE_ALGORITHM,
    },
    {"question_id": "hybrid:a", "question": "How many crates?", "verdict": "", "note": ""},
]
_SOLUTIONS = "artifacts/toy/solutions/solutions.jsonl"
_ORIGINALS = "artifacts/toy/verified/original.jsonl"
_SOLUTION = {"question_id": "hybrid:a", "solution": "Add them: 4.", "status": "accepted"}
_ORIGINAL = {"id": "a", "question": "question a", "answer": "1", "nominal_difficulty": 2.0}


def _graded_items(root: Path) -> Any:
    """The CLI's training items of tag `toy`, with no template enabled."""
    pipe = SimpleNamespace(cfg=SimpleNamespace(synthesis=SimpleNamespace(templates=())))
    return cli._graded_items(pipe, cli.TagPaths(root, "toy"), use_scores=False)


LOADERS = {
    "corpus": Loader(
        {"seeds.jsonl": _SEEDS},
        "seeds.jsonl",
        2,
        lambda root: load_corpus(root / "seeds.jsonl"),
        CorpusError,
        "difficulty",
        ("question", 5, "question must be a string, got 5"),
    ),
    "pairs": Loader(
        {"pairs.jsonl": [{"low_id": "a", "high_id": "b", "similarity": 0.9}]},
        "pairs.jsonl",
        1,
        lambda root: load_pairs(root / "pairs.jsonl", _CORPUS),
        PairingError,
        "similarity",
        ("low_id", 5, "low_id must be a string, got 5"),
    ),
    "questions": Loader(
        {"hybrid.jsonl": [_QUESTION, {**_QUESTION, "id": "hybrid:b"}]},
        "hybrid.jsonl",
        2,
        lambda root: load_questions(root / "hybrid.jsonl"),
        SynthesisError,
        "parent_low_id",
        ("nominal_difficulty", "hard", "nominal_difficulty must be a number, got 'hard'"),
    ),
    "scores": Loader(
        {"scores.jsonl": [{"question_id": "a", "score": 5.0, "scorer_tag": "m"}]},
        "scores.jsonl",
        1,
        lambda root: load_scores(root / "scores.jsonl"),
        CurriculumError,
        "score",
        ("score", float("inf"), "score must be a number, got inf"),
    ),
    "review-header": Loader(
        {"batch.jsonl": _REVIEW},
        "batch.jsonl",
        1,
        lambda root: import_review_batch(root / "batch.jsonl"),
        QualityError,
        "population",
        ("seed", 1.5, "seed must be an integer, got 1.5"),
    ),
    "review-row": Loader(
        {"batch.jsonl": _REVIEW},
        "batch.jsonl",
        2,
        lambda root: import_review_batch(root / "batch.jsonl"),
        QualityError,
        "verdict",
        ("question_id", None, "question_id must be a string, got None"),
    ),
    "cli-solutions": Loader(
        {_SOLUTIONS: [_SOLUTION], _ORIGINALS: [_ORIGINAL]},
        _SOLUTIONS,
        1,
        _graded_items,
        CurriculumError,
        "status",
        ("solution", None, "solution must be a string, got None"),
    ),
    "cli-originals": Loader(
        {_SOLUTIONS: [_SOLUTION], _ORIGINALS: [_ORIGINAL]},
        _ORIGINALS,
        1,
        _graded_items,
        CurriculumError,
        "answer",
        ("nominal_difficulty", True, "nominal_difficulty must be a number, got True"),
    ),
}


# A line written as is, and the message it gives
_RAW_LINES = {
    "not-json": (b"{oops\n", "invalid JSON: Expecting property name enclosed in double quotes"),
    "not-utf-8": (
        b'{"note": "caf\xe9"}\n',
        "invalid JSON: 'utf-8' codec can't decode byte 0xe9 in position 13: "
        "invalid continuation byte",
    ),
}


def _write(root: Path, files: dict[str, list[dict[str, Any] | bytes]]) -> None:
    for name, rows in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = [r if isinstance(r, bytes) else json.dumps(r).encode() + b"\n" for r in rows]
        path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("case", ["missing", "wrong-kind", *_RAW_LINES])
@pytest.mark.parametrize("name", LOADERS)
def test_a_bad_row_names_its_file_and_line_in_the_module_error(tmp_path, name, case):
    loader = LOADERS[name]
    rows: list[dict[str, Any] | bytes] = [dict(row) for row in loader.files[loader.file]]
    row = rows[loader.line - 1]
    if case == "missing":
        del row[loader.missing]
        message = f"missing field {loader.missing!r}"
    elif case == "wrong-kind":
        key, value, message = loader.wrong
        row[key] = value
    else:
        rows[loader.line - 1], message = _RAW_LINES[case]
    _write(tmp_path, {**loader.files, loader.file: rows})
    with pytest.raises(ValueError) as exc:
        loader.read(tmp_path)
    assert type(exc.value) is loader.error
    assert str(exc.value) == f"{tmp_path / loader.file}: line {loader.line}: {message}"
