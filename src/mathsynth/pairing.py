"""Similarity pairing: embed questions and pair similar problems across difficulty levels.

Pair construction is exact pairwise cosine similarity. A vectorized pass
prescreens candidates with a safety margin, then every candidate is rescored
with the same scalar kernel a brute-force check would use, so the result is
bit-identical to a double-loop oracle.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from . import jsonl
from .corpus import Corpus, SeedProblem

# Band the pairing threshold is normally tuned within; values outside it are
# allowed but warned about.
RECOMMENDED_TAU_BAND = (0.75, 0.9)

# Vectorized prescreen keeps every candidate whose blocked-matmul similarity
# exceeds tau - PRESCREEN_MARGIN; the margin dwarfs matmul-vs-dot rounding
# (~1e-13 for thousand-dimensional float64), so no exact-passing pair is lost.
PRESCREEN_MARGIN = 1e-6
_PRESCREEN_BLOCK = 512


class PairingError(ValueError):
    """Invalid embeddings or pairing inputs."""


@dataclass(frozen=True, eq=False)
class EmbeddingVector:
    """A fixed-length float64 embedding with its Euclidean norm computed once, at construction."""

    values: np.ndarray
    norm: float = field(init=False)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise PairingError("embedding must be a non-empty 1-D vector")
        if not np.all(np.isfinite(values)):
            raise PairingError("embedding contains non-finite values")
        norm = float(np.linalg.norm(values))
        if not 0.0 < norm < np.inf:  # zero, or overflowed from finite components
            raise PairingError(f"embedding norm must be positive and finite, got {norm}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "norm", norm)

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def cosine_similarity(a: EmbeddingVector, b: EmbeddingVector) -> float:
    """Cosine of the angle between two embeddings: dot(a,b) / (|a| |b|).

    Symmetric by evaluation order; raises on dimension mismatch. Zero and
    overflowing norms cannot occur (EmbeddingVector rejects them at construction).
    """
    if a.dim != b.dim:
        raise PairingError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(np.dot(a.values, b.values)) / (a.norm * b.norm)


@dataclass(frozen=True)
class QuestionPair:
    """Two similar seed problems with strictly different difficulty, stored (low, high)."""

    low: SeedProblem
    high: SeedProblem
    similarity: float

    def __post_init__(self) -> None:
        if not self.low.difficulty < self.high.difficulty:
            raise PairingError(
                f"pair must be ordered by difficulty: {self.low.difficulty} vs "
                f"{self.high.difficulty}"
            )
        if not -1.0 - 1e-9 <= self.similarity <= 1.0 + 1e-9:
            raise PairingError(f"similarity out of range: {self.similarity}")

    def contains(self, problem_id: str) -> bool:
        return problem_id in (self.low.id, self.high.id)

    def partner_of(self, problem_id: str) -> SeedProblem:
        if problem_id == self.low.id:
            return self.high
        if problem_id == self.high.id:
            return self.low
        raise KeyError(problem_id)


@dataclass(frozen=True)
class PairingConfig:
    """The `pairing` config section."""

    tau: float = 0.8
    max_pairs_per_question: int | None = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise PairingError(f"tau must be in (0, 1), got {self.tau}")
        if self.max_pairs_per_question is not None and self.max_pairs_per_question < 1:
            raise PairingError("max_pairs_per_question must be positive")
        low, high = RECOMMENDED_TAU_BAND
        if not low <= self.tau <= high:
            warnings.warn(
                f"tau={self.tau} is outside the recommended band [{low}, {high}]",
                stacklevel=2,
            )


def _embedding_matrix(
    corpus: Corpus, embeddings: Mapping[str, EmbeddingVector]
) -> tuple[np.ndarray, np.ndarray]:
    missing = [p.id for p in corpus.problems if p.id not in embeddings]
    if missing:
        raise PairingError(f"missing embeddings for {len(missing)} ids, first: {missing[0]!r}")
    dims = {embeddings[p.id].dim for p in corpus.problems}
    if len(dims) > 1:
        raise PairingError(f"embeddings have mixed dimensions: {sorted(dims)}")
    matrix = np.stack([embeddings[p.id].values for p in corpus.problems])
    norms = np.array([embeddings[p.id].norm for p in corpus.problems])
    return matrix, norms


def build_pairs(
    corpus: Corpus,
    embeddings: Mapping[str, EmbeddingVector],
    cfg: PairingConfig,
) -> list[QuestionPair]:
    """Construct all canonical pairs with similarity > tau and unequal difficulty.

    After the threshold filter, each question is capped to its
    max_pairs_per_question most similar partners (ties broken by partner id
    ascending); a pair survives only if both endpoints rank it within their
    own cap. Output is sorted by (low.id, high.id) and is a pure function of
    the inputs.
    """
    problems = corpus.problems
    if len(problems) < 2:
        return []
    matrix, norms = _embedding_matrix(corpus, embeddings)
    cutoff = cfg.tau - PRESCREEN_MARGIN

    pairs: list[QuestionPair] = []
    for start in range(0, len(problems), _PRESCREEN_BLOCK):
        stop = min(start + _PRESCREEN_BLOCK, len(problems))
        block = (matrix[start:stop] @ matrix.T) / np.outer(norms[start:stop], norms)
        rows, cols = np.nonzero(block > cutoff)
        for row, j in zip(rows.tolist(), cols.tolist()):
            i = start + row
            if j <= i:
                continue
            a, b = problems[i], problems[j]
            if a.difficulty == b.difficulty:
                continue
            # Exact rescore with the scalar kernel; the prescreen value is
            # discarded so stored similarities match a double-loop check.
            sim = cosine_similarity(embeddings[a.id], embeddings[b.id])
            if sim > cfg.tau:
                low, high = (a, b) if a.difficulty < b.difficulty else (b, a)
                pairs.append(QuestionPair(low=low, high=high, similarity=sim))

    if cfg.max_pairs_per_question is not None:
        pairs = _cap_per_question(pairs, cfg.max_pairs_per_question)
    pairs.sort(key=lambda p: (p.low.id, p.high.id))
    return pairs


def _cap_per_question(pairs: list[QuestionPair], cap: int) -> list[QuestionPair]:
    incident: dict[str, list[QuestionPair]] = {}
    for pair in pairs:
        incident.setdefault(pair.low.id, []).append(pair)
        incident.setdefault(pair.high.id, []).append(pair)
    allowed: set[tuple[str, str, str]] = set()
    for qid, mine in incident.items():
        mine.sort(key=lambda p: (-p.similarity, p.partner_of(qid).id))
        for pair in mine[:cap]:
            allowed.add((qid, pair.low.id, pair.high.id))
    return [
        pair
        for pair in pairs
        if (pair.low.id, pair.low.id, pair.high.id) in allowed
        and (pair.high.id, pair.low.id, pair.high.id) in allowed
    ]


def _generation_rank(pair: QuestionPair, problem_id: str) -> tuple[float, str]:
    return (-pair.similarity, pair.partner_of(problem_id).id)


def select_generation_pair(
    problem: SeedProblem, pairs: Sequence[QuestionPair]
) -> QuestionPair | None:
    """The highest-similarity pair containing the problem; ties prefer the lower partner id."""
    candidates = [pair for pair in pairs if pair.contains(problem.id)]
    if not candidates:
        return None
    candidates.sort(key=lambda p: _generation_rank(p, problem.id))
    return candidates[0]


def generation_pairs(pairs: Sequence[QuestionPair]) -> dict[str, QuestionPair]:
    """`select_generation_pair` for every problem id in `pairs`, in one pass over them."""
    best: dict[str, QuestionPair] = {}
    for pair in pairs:
        for problem_id in (pair.low.id, pair.high.id):
            current = best.get(problem_id)
            rank = _generation_rank(pair, problem_id)
            if current is None or rank < _generation_rank(current, problem_id):
                best[problem_id] = pair
    return best


# --- embedding and pair persistence -----------------------------------------


def embed_corpus(corpus: Corpus, embedder) -> dict[str, EmbeddingVector]:
    """Embed every question in one `embedder.embed` call, keyed by problem id.

    `embedder` needs `.embed(texts) -> list[EmbeddingVector]`; caching is the
    embedder's job (EmbeddingClient keeps one response-cache entry per text).
    """
    if not corpus.problems:
        return {}
    vectors = embedder.embed([problem.question for problem in corpus.problems])
    return {problem.id: vector for problem, vector in zip(corpus.problems, vectors)}


def save_pairs(pairs: Sequence[QuestionPair], path: str | Path) -> None:
    jsonl.write_records(
        path,
        (
            {"low_id": pair.low.id, "high_id": pair.high.id, "similarity": pair.similarity}
            for pair in pairs
        ),
    )


def load_pairs(path: str | Path, corpus: Corpus) -> list[QuestionPair]:
    by_id = corpus.by_id()

    def pair(record: dict[str, Any]) -> QuestionPair:
        low_id, high_id, similarity = jsonl.fields(
            record, low_id=str, high_id=str, similarity=float
        )
        for problem_id in (low_id, high_id):
            if problem_id not in by_id:
                raise PairingError(f"unknown problem id {problem_id!r}")
        return QuestionPair(by_id[low_id], by_id[high_id], similarity)

    return jsonl.load(path, pair, PairingError)
