"""Acceptance suite: ten pipeline-level guarantees, one scoreboard line each.

Every test appends a "[criterion NN] PASS/FAIL" line to RESULTS; the conftest
terminal-summary hook prints the scoreboard after the run. The criteria cover
the pairing oracle, the cosine kernel, difficulty anchors, dataset shape, the
solution gates, verification logic, review sampling, curriculum laws,
end-to-end determinism, and provider-layer bounds.
"""
from __future__ import annotations

import itertools
import json
import random
import time
from pathlib import Path
from typing import Callable

import numpy as np

import mathsynth.cli as cli
from conftest import make_chat, topic_pair_corpus, write_corpus_file
from mathsynth.curriculum import build_blended_curriculum, build_pure_curriculum
from mathsynth.pairing import EmbeddingVector, PairingConfig, build_pairs, cosine_similarity
from mathsynth.providers import ChatRequest, map_bounded
from mathsynth.quality import (
    DIMENSIONS,
    parse_verdict,
    sample_for_review,
    verify_question,
)
from mathsynth.solver import GateConfig, check_gates, ngram_degeneracy
from mathsynth.synthesis import SynthesizedQuestion, nominal_difficulty
from test_curriculum import _item, pure_items, scored, two_dataset_items
from test_pairing import as_embeddings, oracle_pairs, pair_set, random_corpus
from test_quality import verdict_text

RESULTS: list[str] = []


def _report(num: int, name: str, check: Callable[[], None]) -> None:
    try:
        check()
    except BaseException:
        RESULTS.append(f"[criterion {num:02d}] FAIL  {name}")
        raise
    RESULTS.append(f"[criterion {num:02d}] PASS  {name}")


def _write_run(tmp_path: Path, stem: str) -> tuple[Path, Path]:
    seeds = tmp_path / "seeds.jsonl"
    if not seeds.exists():
        write_corpus_file(seeds, topic_pair_corpus(n_topics=10))
    out = tmp_path / f"out_{stem}"
    cfg = {
        "seed_corpora": [{"path": str(seeds), "tag": "toy"}],
        "out_dir": str(out),
        "providers": {"mock": True},
    }
    config_path = tmp_path / f"config_{stem}.json"
    config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return config_path, out


def test_criterion_01_pairing_matches_bruteforce_oracle():
    def check():
        corpus, vectors = random_corpus(n=200, dim=6, seed=123)
        started = time.perf_counter()
        built = pair_set(
            build_pairs(
                corpus,
                as_embeddings(vectors),
                PairingConfig(tau=0.8, max_pairs_per_question=None),
            )
        )
        reference = oracle_pairs(corpus, vectors, tau=0.8)
        elapsed = time.perf_counter() - started
        assert reference, "oracle found no pairs; fixture is vacuous"
        assert built == reference  # ids and similarities, zero tolerance
        assert elapsed < 5.0

    _report(1, "pair construction equals the brute-force oracle on 200 questions", check)


def test_criterion_02_cosine_kernel_properties():
    def check():
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            v = rng.normal(size=12)
            w = rng.normal(size=12)
            k, m = rng.uniform(0.1, 10.0, size=2)
            ev, ew = EmbeddingVector(v), EmbeddingVector(w)
            assert abs(cosine_similarity(ev, ev) - 1.0) <= 1e-9
            scaled = cosine_similarity(
                EmbeddingVector(k * v), EmbeddingVector(m * w)
            )
            assert abs(scaled - cosine_similarity(ev, ew)) <= 1e-9
        hand = cosine_similarity(
            EmbeddingVector([1.0, 2.0, 3.0]),
            EmbeddingVector([4.0, 5.0, 6.0]),
        )
        assert abs(hand - 0.974632) <= 1e-6

    _report(2, "cosine kernel: self-similarity, scaling invariance, hand value", check)


def test_criterion_03_difficulty_anchors():
    def check():
        assert nominal_difficulty("hybrid", 4.0, 7.0) == 8.0
        assert nominal_difficulty("decomposed", 4.0, 7.0) == 5.0

    _report(3, "difficulty anchors: hybrid(4,7)=8.0, decomposed(4,7)=5.0", check)


def test_criterion_04_dataset_shape_law(tmp_path, capsys):
    def check():
        config_path, out = _write_run(tmp_path, "shape")
        assert cli.main(["pair", "--config", str(config_path)]) == 0
        assert cli.main(["generate", "--config", str(config_path)]) == 0
        for category in ("decomposed", "original", "hybrid"):
            path = out / "artifacts" / "toy" / "generated" / f"{category}.jsonl"
            rows = path.read_text(encoding="utf-8").splitlines()
            assert len(rows) == 20
        assert cli.main(["stats", "--config", str(config_path)]) == 0
        table = [line.split() for line in capsys.readouterr().out.splitlines()]
        assert ["toy", "20", "20", "20", "60"] in table

    _report(4, "dataset shape: N seeds give N/N/N category files, 3N total", check)


GATE_FIXTURE: list[tuple[str, bool]] = (
    [
        (
            f"First we compute {i} times {i + 2}, then subtract {i + 1} and simplify "
            f"the remainder carefully to reach \\boxed{{{3 * i + 4}}}.",
            True,
        )
        for i in range(20)
    ]
    + [
        (f"A careful derivation numbered {i} that never marks its final answer.", False)
        for i in range(7)
    ]
    + [("x y x y x y x y", False)]  # the hand-derived 5/7 duplicate-ratio fixture
    + [
        (f"Checking case {i}, the value collapses to \\boxed{{}}.", False)
        for i in range(5)
    ]
    + [
        (f"So the fraction {i} equals \\boxed{{\\frac{{{i}}}{{2}}", False)
        for i in range(5)
    ]
    + [("x y " * 12 + f"\\boxed{{{i}}}", False) for i in range(6)]
    + [("the answer is " * 20 + f"so \\boxed{{{i}}}.", False) for i in range(6)]
)


def test_criterion_05_solution_gates_on_labeled_fixture():
    def check():
        assert len(GATE_FIXTURE) == 50
        started = time.perf_counter()
        cfg = GateConfig()
        for text, expected in GATE_FIXTURE:
            assert check_gates(text, cfg).passed is expected, text[:60]
        elapsed = time.perf_counter() - started
        ratio = ngram_degeneracy("x y x y x y x y", 2).duplicate_ratio
        assert abs(ratio - 5 / 7) <= 1e-12
        assert elapsed < 1.0

    _report(5, "solution gates: 50-item labeled fixture, 100% agreement", check)


def test_criterion_06_verification_conjunction_and_short_circuit():
    def check():
        for combo in itertools.product([True, False], repeat=len(DIMENSIONS)):
            bits = dict(zip(DIMENSIONS, combo))
            verdict = parse_verdict(verdict_text(bits), "q")
            assert verdict.overall == all(combo)
            assert dict(verdict.dimension_scores) == bits
        question = SynthesizedQuestion(
            id="hybrid:x",
            question="Extend Problem 1 to five crates.",
            category="hybrid",
            nominal_difficulty=7.0,
            parent_low_id="a",
            parent_high_id="b",
        )
        client, transport = make_chat()
        verdict = verify_question(question, client)
        assert transport.calls == 0
        assert verdict.overall is False

    _report(6, "verification: overall is the 6-way conjunction; structural rejects cost 0 calls", check)


def test_criterion_07_review_sampling_sizes():
    def check():
        for n, expected in ((7, 1), (100, 10), (1000, 100)):
            ids = [f"q{i:05d}" for i in range(n)]
            first = sample_for_review(ids, rate=0.10, seed=11)
            second = sample_for_review(ids, rate=0.10, seed=11)
            assert len(first.items) == expected
            assert first.items == second.items

    _report(7, "review sampling: sizes {1, 10, 100} at rate 0.10, seed-stable", check)


def test_criterion_08_curriculum_laws():
    def check():
        pure = build_pure_curriculum(pure_items())
        assert [s.name for s in pure.stages] == ["decomposed", "original", "hybrid"]
        means = [s.mean_difficulty for s in pure.stages]
        assert means == sorted(means)

        datasets, scores = two_dataset_items()
        blended = build_blended_curriculum(scored(datasets, scores), grouping=2)
        assert len(blended.stages) == 3
        flat = [label for stage in blended.stages for label in stage.categories]
        category_means = {
            label: np.mean([scores[i.question_id] for d in datasets for i in d
                            if i.category_label == label])
            for label in flat
        }
        assert flat == sorted(flat, key=lambda label: category_means[label])

        rng = random.Random(777)
        for _ in range(1000):
            items, trial_scores = [], {}
            for c in range(rng.randint(1, 4)):
                label = f"d{c % 2}/cat{c}"
                for i in range(rng.randint(1, 4)):
                    qid = f"{label}:q{i}"
                    items.append(_item(qid, label))
                    if i == 0 or rng.random() < 0.6:
                        trial_scores[qid] = float(rng.randint(1, 10))
            plan = build_blended_curriculum(scored([items], trial_scores), rng.randint(1, 3))
            staged = [i.question_id for s in plan.stages for i in s.items]
            assert sorted(staged) == sorted(i.question_id for i in items)
            assert len(set(staged)) == len(staged)

    _report(8, "curriculum: fixed pure order, rank-ordered blending, 1000-trial partition", check)


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_09_end_to_end_mock_determinism(tmp_path):
    def check():
        config_a, out_a = _write_run(tmp_path, "detA")
        config_b, out_b = _write_run(tmp_path, "detB")
        started = time.perf_counter()
        assert cli.main(["run-all", "--config", str(config_a)]) == 0
        assert cli.main(["run-all", "--config", str(config_b)]) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        # wall-clock reports and the response cache are the documented
        # exclusions; every dataset artifact must match byte for byte
        assert _tree_bytes(out_a / "artifacts") == _tree_bytes(out_b / "artifacts")
        assert (out_a / "config.json").read_bytes() == (out_b / "config.json").read_bytes()

    _report(9, "end-to-end mock run: < 60 s and byte-identical artifact trees", check)


def test_criterion_10_provider_concurrency_and_cache(tmp_path):
    def check():
        client, transport = make_chat(cache_dir=tmp_path / "cache", latency=0.002)
        requests = [
            ChatRequest.user("burst-model", f"burst request number {i}") for i in range(500)
        ]
        first = map_bounded(client.complete, requests, max_in_flight=8)
        assert transport.max_concurrent <= 8
        assert transport.calls == 500
        assert client.stats.snapshot()["cache_hits"] == 0

        again = map_bounded(client.complete, requests, max_in_flight=8)
        assert transport.calls == 500  # cache absorbed the entire second burst
        assert client.stats.snapshot()["cache_hits"] == 500
        assert again == first

    _report(10, "providers: 500-burst in-flight bound and zero-call warm replay", check)
