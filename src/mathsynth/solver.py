"""Solution generation with format and degeneracy gates.

Solutions for synthesized questions are produced by a long-form reasoning
model, the client's `cfg.models.solver`, with the parent problems and answers
supplied as auxiliary context. Each attempt must end in a well-formed boxed
answer (when `require_boxed` is on) and stay under the 2/3-gram repetition
thresholds; `client.complete_each` regenerates failing attempts up to a bound.
"""
from __future__ import annotations

import contextlib
import re
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import jsonl
from .corpus import SeedProblem
from .prompts import render_solution_prompt as _render_solution_prompt
from .providers import ChatClient, ChatRequest, ProviderError
from .synthesis import SynthesizedQuestion

_PUNCT = re.compile(r"([^\w\s])")
_RUN = re.compile(b"\x01+")
_SPACE = re.compile(r"\s")
_CHUNK = 1 << 14  # characters the gate tokenises at a time
_BOXED = "\\boxed{"


class SolverError(ValueError):
    """Invalid solver inputs or configuration."""


@dataclass(frozen=True)
class GateConfig:
    """The `solver` config section: gate thresholds, attempt budget and sampling."""

    require_boxed: bool = True
    max_duplicate_2gram_ratio: float = 0.60
    max_duplicate_3gram_ratio: float = 0.40
    max_consecutive_repeat: int = 10
    max_attempts: int = 3
    temperature: float = 0.6
    top_p: float = 0.95
    top_k: int = 40
    min_p: float = 0.0
    max_tokens: int = 32768

    def __post_init__(self) -> None:
        for name in ("max_duplicate_2gram_ratio", "max_duplicate_3gram_ratio"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SolverError(f"{name} must be in [0, 1], got {value}")
        for name in ("max_consecutive_repeat", "max_attempts"):
            if getattr(self, name) < 1:
                raise SolverError(f"{name} must be at least 1, got {getattr(self, name)}")


def extract_boxed(text: str) -> str | None:
    """Content of the last \\boxed{...}, with nested braces balanced.

    Returns None when the token is absent, the braces never close, or the
    content is empty after trimming.
    """
    start = text.rfind(_BOXED)
    if start == -1:
        return None
    depth = 1
    pos = start + len(_BOXED)
    for i in range(pos, len(text)):
        ch = text[i]
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                content = text[pos:i].strip()
                return content or None
    return None


def tokenize(text: str) -> list[str]:
    """Lowercase word and punctuation tokens; the unit for n-gram statistics.

    A run of word characters is one token and any other non-space character
    is a token of its own, exactly as `re.findall(r"\\w+|[^\\w\\s]", ...)`
    would cut them. Splitting on the captured punctuation keeps each mark as
    an item of its own, so joining with spaces and `str.split` (which tests
    whitespace as `\\s` does) make the same cuts, all of it in C.
    """
    return " ".join(_PUNCT.split(text.lower())).split()


@dataclass(frozen=True)
class NgramStats:
    n: int
    total: int
    distinct: int
    duplicate_ratio: float
    max_consecutive: int


def _token_ids(text: str, chunk: int = _CHUNK) -> np.ndarray:
    """The id of each token of `tokenize(text)`, tokenised `chunk` characters at a time.

    Each piece ends just before the first whitespace character at or after
    `chunk` characters: no token spans that cut, and lowercasing looks at no
    context across it, so the pieces' tokens are the text's. Only one
    piece's token strings exist at a time, beside the distinct ones that key
    the id table.
    """
    cuts = [0]
    while cuts[-1] < len(text):
        space = _SPACE.search(text, cuts[-1] + chunk)
        cuts.append(space.start() if space else len(text))
    return _ids(tokenize(text[start:stop]) for start, stop in zip(cuts, cuts[1:]))


def _ids(pieces: Iterable[list[str]]) -> np.ndarray:
    """Token ids over the pieces' tokens in turn: a token's id is the position,
    counted across pieces, where it first occurs."""
    first: dict[str, int] = {}
    parts = [np.zeros(0, np.int64)]
    size = 0
    for tokens in pieces:
        ids = map(first.setdefault, tokens, range(size, size + len(tokens)))
        parts.append(np.fromiter(ids, np.int64, len(tokens)))
        size += len(tokens)
    return np.concatenate(parts)


def _ngram_stats(ids: np.ndarray, ns: range) -> list[NgramStats]:
    """Statistics for each n in ns, from one chain of integer-coded n-grams over token ids.

    Ids are below len(ids) (see `_ids`). The n-gram at i is coded as the code
    of its (n-1)-gram prefix at i times len(ids) plus the id of token i+n-1,
    so two n-grams share a code exactly when they are equal. Codes are used
    as they are while the next level's stay below 2**63; before a level whose
    codes could reach it, the codes are replaced by their ranks among the
    distinct ones (`np.unique`), so codes stay exact for any n below 3e9
    tokens. For the gate's 2- and 3-grams no ranking is needed below 2**21
    tokens. A level's distinct n-grams are counted where its sorted codes differ.
    """
    size = len(ids)
    grams, bound = ids, size  # every code is below bound
    stats = []
    for n in range(1, min(ns.stop, size + 1)):
        total = size - n + 1
        if n > 1:
            if bound * size > 1 << 63:
                distinct_codes, grams = np.unique(grams, return_inverse=True)
                bound = len(distinct_codes)
            grams = grams[:total] * size + ids[n - 1 :]
            bound *= size
        if n in ns:
            distinct = 1 + int(np.count_nonzero(np.diff(np.sort(grams))))
            ratio = 1.0 - distinct / total
            stats.append(NgramStats(n, total, distinct, ratio, _longest_run(grams, n)))
    empty = dict(total=0, distinct=0, duplicate_ratio=0.0, max_consecutive=0)
    return stats + [NgramStats(n=n, **empty) for n in ns if n > size]


def _longest_run(grams: np.ndarray, n: int) -> int:
    """The longest run of back-to-back equal n-grams at any phase offset."""
    # The chunk starting at i repeats the one before it at its phase exactly
    # when grams[i] == grams[i + n]; same[phase::n] lists those comparisons in
    # order, so a run of k equal neighbours there is a run of k + 1 chunks.
    same = (grams[:-n] == grams[n:]).tobytes()
    runs = (len(run) for phase in range(n) for run in _RUN.findall(same[phase::n]))
    return 1 + max(runs, default=0)


def ngram_degeneracy(text: str | Sequence[str], n: int) -> NgramStats:
    """Repetition statistics over n-grams of the text or of a token list.

    duplicate_ratio counts overlapping n-grams: 1 - distinct/total.
    max_consecutive is the longest run of back-to-back identical n-token
    chunks, scanned at every phase offset, so a phrase looping with period n
    is measured by how many times it repeats, not by overlapping-window
    coincidence. Texts shorter than n tokens score 0 on both. The distinct
    count sorts the n-gram codes once; the run scan is linear.
    """
    if n < 1:
        raise SolverError("n must be positive")
    ids = _token_ids(text) if isinstance(text, str) else _ids([list(text)])
    return _ngram_stats(ids, range(n, n + 1))[0]


@dataclass(frozen=True)
class GateReport:
    passed: bool
    final_answer: str
    failures: tuple[str, ...]
    stats: tuple[NgramStats, ...]

    def to_record(self) -> dict[str, Any]:
        """The fields, in declaration order, with `failures` as a list and each
        entry of `stats` as its NgramStats fields."""
        stats = [vars(s).copy() for s in self.stats]
        return {**vars(self), "failures": list(self.failures), "stats": stats}


def check_gates(solution_text: str, cfg: GateConfig | None = None) -> GateReport:
    """Apply the boxed-answer and repetition gates; a gate fails only above its threshold."""
    cfg = cfg or GateConfig()
    failures: list[str] = []
    boxed = extract_boxed(solution_text)
    if cfg.require_boxed and boxed is None:
        failures.append("missing, empty, or unbalanced boxed answer")
    stats = _ngram_stats(_token_ids(solution_text), range(2, 4))
    limits = (cfg.max_duplicate_2gram_ratio, cfg.max_duplicate_3gram_ratio)
    for st, limit in zip(stats, limits):
        if st.duplicate_ratio > limit:
            failures.append(
                f"{st.n}-gram duplicate ratio {st.duplicate_ratio:.3f} exceeds {limit}"
            )
        if st.max_consecutive > cfg.max_consecutive_repeat:
            failures.append(
                f"{st.n}-gram consecutive repeat run {st.max_consecutive} exceeds "
                f"{cfg.max_consecutive_repeat}"
            )
    return GateReport(
        passed=not failures,
        final_answer=boxed or "",
        failures=tuple(failures),
        stats=tuple(stats),
    )


def render_solution_prompt(
    question: SynthesizedQuestion, parents: tuple[SeedProblem, SeedProblem]
) -> str:
    """Prompt for solving a synthesized question with its recorded parents as context."""
    given = {p.id for p in parents}
    recorded = {question.parent_low_id, question.parent_high_id}
    if given != recorded:
        raise SolverError(
            f"parents {sorted(given)} do not match the recorded pair {sorted(recorded)}"
        )
    low, high = sorted(parents, key=lambda p: p.difficulty)
    return _render_solution_prompt(question.question, low, high)


@dataclass(frozen=True)
class SolutionRecord:
    question_id: str
    solution_text: str
    final_answer: str
    attempts: int
    status: str
    gate_report: GateReport

    def __post_init__(self) -> None:
        if self.status not in ("accepted", "failed"):
            raise SolverError(f"unknown status {self.status!r}")
        if self.attempts < 1:
            raise SolverError("attempts must be at least 1")
        if self.status == "accepted" and not self.gate_report.passed:
            raise SolverError("accepted record must carry a passing gate report")

    def to_record(self) -> dict[str, Any]:
        return {
            "question_id": self.question_id,
            "solution": self.solution_text,
            "final_answer": self.final_answer,
            "attempts": self.attempts,
            "status": self.status,
        }

    def gate_record(self) -> dict[str, Any]:
        """The gate_reports.jsonl row: the attempt that counted and its gate report."""
        return {
            "question_id": self.question_id,
            "attempts": self.attempts,
            "status": self.status,
        } | self.gate_report.to_record()


def solve_each(
    questions: Sequence[SynthesizedQuestion],
    parents_by_id: dict[str, SeedProblem],
    client: ChatClient,
    cfg: GateConfig | None = None,
) -> Iterator[SolutionRecord]:
    """Solve every question with the client's solver model, gate-check each reply,
    and regenerate up to max_attempts; the prompt never changes. Records come
    in input order as they are ready (`complete_each`).

    Attempt n carries the salt `solve:{id}:{n}`, so a regeneration is a fresh
    sample instead of a cache replay of the rejected one. Provider errors
    count as failed attempts. A question with an unknown parent, or that is
    not verified, is a SolverError before its first call.
    """
    cfg = cfg or GateConfig()

    def request(question: SynthesizedQuestion, attempt: int) -> ChatRequest:
        try:
            parents = (
                parents_by_id[question.parent_low_id],
                parents_by_id[question.parent_high_id],
            )
        except KeyError as exc:
            raise SolverError(f"{question.id}: unknown parent id {exc}") from None
        if question.status != "verified":
            raise SolverError(
                f"{question.id} has status {question.status!r}; only verified questions are solved"
            )
        return ChatRequest(
            client.cfg.models.solver,
            render_solution_prompt(question, parents),
            temperature=cfg.temperature,
            max_tokens=cfg.max_tokens,
            top_p=cfg.top_p,
            top_k=cfg.top_k,
            min_p=cfg.min_p,
            cache_salt=f"solve:{question.id}:{attempt}",
        )

    def accept(
        question: SynthesizedQuestion, attempt: int, reply: str | ProviderError
    ) -> tuple[bool, SolutionRecord]:
        if isinstance(reply, ProviderError):
            text, report = "", GateReport(False, "", (f"provider: {reply}",), ())
        else:
            text, report = reply, check_gates(reply, cfg)
        answer, status = (report.final_answer, "accepted") if report.passed else ("", "failed")
        return report.passed, SolutionRecord(question.id, text, answer, attempt, status, report)

    return client.complete_each(questions, request, accept, cfg.max_attempts)


class SolutionRow(NamedTuple):
    """One row of a solutions file: its question, whether it was accepted, and its span."""

    question_id: str
    accepted: bool
    span: jsonl.Span


def _solution(record: dict[str, Any]) -> tuple[str, bool, str]:
    qid, text, status = jsonl.fields(record, question_id=str, solution=str, status=str)
    if status == "accepted" and not text.strip():
        raise SolverError(f"{qid}: accepted solution must be non-empty")
    return qid, status == "accepted", text


def read_solutions(
    path: str | Path, spans: Iterable[jsonl.Span] | None = None
) -> Iterator[tuple[SolutionRow, str]]:
    """(row, solution text) for each row of a solutions file, or for those at
    `spans`, one text held at a time; a mistyped field or an empty accepted
    solution is a SolverError naming the file and line."""
    for span, (qid, accepted, text) in jsonl.load_spans(path, _solution, SolverError, spans):
        yield SolutionRow(qid, accepted, span), text
        del text  # see jsonl.read_records


def load_solution_rows(path: str | Path) -> list[SolutionRow]:
    """Each row of a solutions file, checked (`read_solutions`), without its text."""
    return list(map(itemgetter(0), read_solutions(path)))  # one text held at a time


def solve_dataset(
    questions: Sequence[SynthesizedQuestion],
    parents_by_id: dict[str, SeedProblem],
    client: ChatClient,
    cfg: GateConfig,
    solutions: str | Path,
    gate_reports: str | Path,
) -> list[SolutionRow]:
    """`solve_each`, writing each record's `solutions` and `gate_reports` rows as it
    arrives, so one reply's text is held at a time; returns the solutions file's
    rows, as `load_solution_rows` reads them back.

    Both files are replaced once every row is written. On an error neither
    is: both keep their old bytes, and the replies already received stay cached.
    """
    rows: list[SolutionRow] = []
    start = 0
    records = solve_each(questions, parents_by_id, client, cfg)
    with (
        contextlib.closing(records),
        jsonl.replacing(gate_reports) as reports,
        jsonl.replacing(solutions) as texts,
    ):
        for record in records:
            line = jsonl.dump_line(record.to_record())
            texts.write(line)
            span = jsonl.Span(len(rows) + 1, start, start + len(line.encode()))  # bytes written
            rows.append(SolutionRow(record.question_id, record.status == "accepted", span))
            reports.write(jsonl.dump_line(record.gate_record()))
            start = span.stop
            del record, line  # before the next reply arrives
    return rows
