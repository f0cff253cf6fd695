"""Self-tests for the benchmark's checks, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Hand-worked cases for the pairing oracle and the n-gram recomputation, and a
real `run-all --mock` on one block of seeds whose artifacts pass every check
until one of them is corrupted.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402

NO_LOOPS = "\x00"  # a loop mark no question carries: the mock never loops


def seed(qid: str, difficulty: float) -> dict:
    return {"id": qid, "question": f"question {qid}", "answer": "1", "difficulty": difficulty}


def test_oracle_threshold_difficulty_cap_and_tie_break():
    seeds = [seed("a", 1), seed("b", 2), seed("c", 2), seed("d", 1), seed("e", 3)]
    vectors = {
        "a": np.array([1.0, 0.0, 0.0]),
        "b": np.array([1.0, 0.1, 0.0]),
        "c": np.array([0.0, 0.0, 1.0]),
        "d": np.array([1.0, 0.0, 0.0]),
        "e": np.array([0.6, 0.8, 0.0]),
    }
    ab = 1.0 / math.sqrt(1.01)
    be = 0.68 / math.sqrt(1.01)
    # a-d have equal difficulty, c is orthogonal to all, a-e and d-e are at 0.6.
    assert checks.oracle_pairs(seeds, vectors, tau=0.5, cap=None) == sorted(
        [("a", "b", pytest.approx(ab)), ("d", "b", pytest.approx(ab)),
         ("a", "e", pytest.approx(0.6)), ("d", "e", pytest.approx(0.6)),
         ("b", "e", pytest.approx(be))]
    )
    assert checks.oracle_pairs(seeds, vectors, tau=0.8, cap=None) == [
        ("a", "b", pytest.approx(ab)), ("d", "b", pytest.approx(ab))
    ]
    # With a cap of one, b keeps the tie with the lower partner id, a; d's only
    # pair is not in b's cap, so it goes.
    assert checks.oracle_pairs(seeds, vectors, tau=0.8, cap=1) == [("a", "b", pytest.approx(ab))]


def test_best_pair_prefers_similarity_then_lower_partner_id():
    pairs = [("a", "x", 0.9), ("b", "x", 0.95), ("c", "x", 0.95), ("a", "y", 0.9)]
    best = checks.best_pairs(pairs)
    assert best["x"] == ("b", "x", 0.95)
    assert best["a"] == ("a", "x", 0.9)
    assert best["y"] == ("a", "y", 0.9)


def test_nominal_difficulty_formulas():
    assert checks.nominal("hybrid", 3.0, 6.0) == 7.0
    assert checks.nominal("decomposed", 3.0, 6.0) == 4.0
    assert checks.nominal("decomposed", 3.5, 4.0) == 3.5


def test_ngram_profile_hand_worked():
    # 2-grams ab ba ab ba ab: 2 distinct of 5; chunks at phase 0 are ab ab ab.
    assert checks.ngram_profile("a b a b a b", 2) == (pytest.approx(0.6), 3)
    # 3-grams aba bab aba bab: 2 distinct of 4; no two back-to-back chunks agree.
    assert checks.ngram_profile("a b a b a b", 3) == (pytest.approx(0.5), 1)
    assert checks.ngram_profile("One, two.", 2) == (0.0, 1)
    assert checks.ngram_profile("one", 2) == (0.0, 0)


def test_boxed_extraction_and_gates():
    assert checks.last_boxed(r"so \boxed{1} then \boxed{\frac{1}{2}}") == r"\frac{1}{2}"
    assert checks.last_boxed(r"\boxed{ }") is None
    assert checks.last_boxed(r"\boxed{12") is None
    clean = " ".join(f"w{i}" for i in range(200)) + r" \boxed{7}"
    assert checks.gate_problems(clean, checks.GATE_LIMITS, checks.GATE_MAX_RUN) == []
    looping = clean.replace(r" \boxed{7}", "") + " and again" * 40 + r" \boxed{7}"
    assert checks.gate_problems(looping, checks.GATE_LIMITS, checks.GATE_MAX_RUN)


# -- a real mock run, then corrupted ------------------------------------------


@pytest.fixture(scope="module")
def mock_run(tmp_path_factory) -> tuple[Path, list[dict]]:
    root = tmp_path_factory.mktemp("run")
    seeds = inputs.make_corpus("tiny", "grade", 1, seed=5)
    inputs.write_jsonl(root / "tiny.jsonl", seeds)
    cfg = inputs.run_config([("tiny", root / "tiny.jsonl")], root / "out", 1)
    (root / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    subprocess.run(
        [sys.executable, "-m", "mathsynth.cli", "run-all", "--config", str(root / "config.json"),
         "--mock"],
        env=env, check=True, capture_output=True,
    )
    return root / "out" / "artifacts" / "tiny", seeds


@pytest.fixture
def run_copy(mock_run, tmp_path) -> tuple[Path, list[dict]]:
    tag_dir, seeds = mock_run
    copy = tmp_path / "tiny"
    shutil.copytree(tag_dir, copy)
    return copy, seeds


def oracle_for(seeds: list[dict]) -> list[tuple[str, str, float]]:
    from mathsynth.providers import mock_embedding

    vectors = {
        s["id"]: np.asarray(mock_embedding(s["question"], dim=inputs.MOCK_DIM)) for s in seeds
    }
    return checks.oracle_pairs(seeds, vectors, inputs.TAU, inputs.MAX_PAIRS_PER_QUESTION)


def solution_checks(tag_dir: Path, seeds: list[dict]) -> list[str]:
    answers = {}
    for template in checks.TEMPLATES:
        for q in checks.read_jsonl(tag_dir / "verified" / f"{template}.jsonl"):
            answers[q["question"]] = q["id"]
    recorded = {
        s["question_id"]: s["final_answer"]
        for s in checks.read_jsonl(tag_dir / "solutions" / "solutions.jsonl")
    }
    by_id = {s["id"]: s for s in seeds}
    return checks.check_solutions(
        tag_dir, by_id, lambda text: recorded[answers[text]], NO_LOOPS
    )


def rewrite(path: Path, edit) -> None:
    rows = checks.read_jsonl(path)
    edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def test_clean_run_passes_every_check(mock_run):
    tag_dir, seeds = mock_run
    assert checks.check_generation(tag_dir, seeds, oracle_for(seeds)) == []
    assert checks.check_curriculum(tag_dir.parent, ["tiny"], blended=False) == []
    assert checks.check_staged(tag_dir) == []
    assert solution_checks(tag_dir, seeds) == []


def test_dropped_staged_row_fails(run_copy):
    tag_dir, _ = run_copy
    rewrite(tag_dir / "curriculum" / "stage3.jsonl", lambda rows: rows.pop())
    assert checks.check_staged(tag_dir)


def test_swapped_parent_fails(run_copy):
    tag_dir, seeds = run_copy

    def swap(rows):
        q = rows[0]
        q["parent_low_id"], q["parent_high_id"] = q["parent_high_id"], q["parent_low_id"]

    rewrite(tag_dir / "generated" / "hybrid.jsonl", swap)
    assert checks.check_generation(tag_dir, seeds, oracle_for(seeds))


def test_looping_solution_tail_fails(run_copy):
    tag_dir, seeds = run_copy

    def loop(rows):
        rows[0]["solution"] = rows[0]["solution"] + " and check again" * 200

    rewrite(tag_dir / "solutions" / "solutions.jsonl", loop)
    assert any("fails" in p for p in solution_checks(tag_dir, seeds))
