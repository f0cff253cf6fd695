"""Shared fixtures: toy corpora, seed files, and offline provider clients."""
from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any

import pytest
from hypothesis import settings

from mathsynth.corpus import Corpus, SeedProblem
from mathsynth.providers import (
    ChatClient,
    MockTransport,
    ModelRoles,
    ProviderConfig,
    ResponseCache,
)

# `pytest --hypothesis-profile=ci` (the CI workflow's tier-1 step): a failing
# property prints a `@reproduce_failure` blob that replays its counterexample,
# and no example fails for its run time on a slow runner.
settings.register_profile("ci", print_blob=True, deadline=None)

# No backoff sleeps in tests; retry behavior itself is still exercised.
FAST_CFG = ProviderConfig(max_retries=3, backoff_base=0.0)


def topic_pair_corpus(n_topics: int = 10, difficulties: tuple[float, float] = (3.0, 6.0)) -> Corpus:
    """A corpus of n_topics related pairs.

    The two questions of a topic share their first 24 characters, which the
    mock embedder maps to near-parallel vectors, so every seed has exactly one
    partner above any realistic pairing threshold.
    """
    low, high = difficulties
    problems = []
    for i in range(n_topics):
        prefix = f"Topic {i:02d} inventory count puzzle"
        problems.append(
            SeedProblem(
                id=f"q{i:02d}a",
                question=f"{prefix} with {i + 3} crates and a simple twist.",
                answer=str(10 + i),
                difficulty=low,
            )
        )
        problems.append(
            SeedProblem(
                id=f"q{i:02d}b",
                question=f"{prefix} with {i + 5} pallets, staged deliveries, and an "
                "inspection step.",
                answer=str(40 + i),
                difficulty=high,
            )
        )
    return Corpus(problems=tuple(problems))


def write_corpus_file(path: Path, corpus: Corpus) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "question", "answer", "difficulty")
    path.write_text(
        "".join(
            json.dumps({key: getattr(p, key) for key in keys}, ensure_ascii=False) + "\n"
            for p in corpus.problems
        ),
        encoding="utf-8",
    )
    return path


def make_chat(
    script: dict[str, Any] | None = None,
    seed: int = 0,
    cache_dir: Path | None = None,
    max_retries: int = 3,
    latency: float = 0.0,
    max_in_flight: int = 8,
    models: ModelRoles = ModelRoles(),
) -> tuple[ChatClient, MockTransport]:
    transport = MockTransport(seed=seed, script=script, latency=latency)
    cache = ResponseCache(cache_dir) if cache_dir is not None else None
    cfg = ProviderConfig(
        max_retries=max_retries, backoff_base=0.0, max_in_flight=max_in_flight, models=models
    )
    return ChatClient(transport, cfg, cache), transport


@pytest.fixture
def toy_corpus() -> Corpus:
    return topic_pair_corpus()


def _executor_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")}


@pytest.fixture(autouse=True)
def no_executor_threads_left_running():
    """Fails a test that leaves a ThreadPoolExecutor worker alive that it did not find.

    Every stage fans out through `map_bounded`, so this checks that each call
    stops its threads before it returns, whether it succeeds or fails.
    """
    before = _executor_threads()
    yield
    left = sorted(t.name for t in _executor_threads() - before)
    assert not left, f"executor threads left running: {left}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance-criteria scoreboard after the run, uncaptured."""
    try:
        import test_acceptance
    except Exception as exc:  # the module's own collection error is reported separately
        terminalreporter.section("acceptance criteria")
        terminalreporter.write_line(
            "scoreboard unavailable: test_acceptance failed to import "
            f"({type(exc).__name__}: {exc})"
        )
        return
    lines = getattr(test_acceptance, "RESULTS", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
