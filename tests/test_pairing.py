"""Pair construction checked against an independent brute-force oracle.

The oracle below was written first, straight from the documented contract
(all unordered pairs, scalar cosine, strict > tau, unequal difficulty), and
its outputs are what build_pairs must reproduce exactly.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathsynth.corpus import Corpus, SeedProblem
from mathsynth.pairing import (
    EmbeddingVector,
    PairingConfig,
    PairingError,
    QuestionPair,
    build_pairs,
    cosine_similarity,
    embed_corpus,
    generation_pairs,
    load_pairs,
    save_pairs,
    select_generation_pair,
)
from mathsynth.providers import EmbeddingClient, MockTransport, ResponseCache, mock_embedding


def oracle_pairs(corpus: Corpus, vectors: dict[str, np.ndarray], tau: float):
    """Reference pairing: plain double loop, no blocking, no caps."""
    out = set()
    problems = corpus.problems
    for i in range(len(problems)):
        for j in range(i + 1, len(problems)):
            a, b = problems[i], problems[j]
            va, vb = vectors[a.id], vectors[b.id]
            sim = float(np.dot(va, vb)) / (
                float(np.linalg.norm(va)) * float(np.linalg.norm(vb))
            )
            if sim > tau and a.difficulty != b.difficulty:
                low, high = (a, b) if a.difficulty < b.difficulty else (b, a)
                out.add((low.id, high.id, sim))
    return out


def random_corpus(n: int, dim: int, seed: int) -> tuple[Corpus, dict[str, np.ndarray]]:
    rng = np.random.default_rng(seed)
    problems = []
    vectors: dict[str, np.ndarray] = {}
    for i in range(n):
        pid = f"r{i:04d}"
        problems.append(
            SeedProblem(
                id=pid,
                question=f"random question number {i}",
                answer=str(i),
                difficulty=float(rng.integers(1, 9)),
            )
        )
        v = rng.normal(size=dim)
        vectors[pid] = v / np.linalg.norm(v)
    return Corpus(problems=tuple(problems)), vectors


def as_embeddings(vectors: dict[str, np.ndarray]) -> dict[str, EmbeddingVector]:
    return {k: EmbeddingVector(v) for k, v in vectors.items()}


def pair_set(pairs):
    return {(p.low.id, p.high.id, p.similarity) for p in pairs}


def test_build_pairs_matches_oracle_exactly():
    corpus, vectors = random_corpus(n=150, dim=6, seed=7)
    cfg = PairingConfig(tau=0.8, max_pairs_per_question=None)
    got = pair_set(build_pairs(corpus, as_embeddings(vectors), cfg))
    want = oracle_pairs(corpus, vectors, tau=0.8)
    assert want, "fixture must produce at least one pair to be meaningful"
    assert got == want  # ids and float similarities, zero tolerance


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    dim=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
    tau=st.sampled_from([0.75, 0.8, 0.85]),
)
def test_build_pairs_matches_oracle_property(n, dim, seed, tau):
    corpus, vectors = random_corpus(n=n, dim=dim, seed=seed)
    cfg = PairingConfig(tau=tau, max_pairs_per_question=None)
    got = pair_set(build_pairs(corpus, as_embeddings(vectors), cfg))
    assert got == oracle_pairs(corpus, vectors, tau=tau)


# --- cosine kernel ---------------------------------------------------------


def test_cosine_hand_value():
    a = EmbeddingVector([1.0, 2.0, 3.0])
    b = EmbeddingVector([4.0, 5.0, 6.0])
    # 32 / (sqrt(14) * sqrt(77)), frozen to six decimals
    assert cosine_similarity(a, b) == pytest.approx(0.974632, abs=1e-6)
    assert cosine_similarity(a, b) == cosine_similarity(b, a)


def test_cosine_self_and_scaling_invariance():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.normal(size=16)
        w = rng.normal(size=16)
        ev, ew = EmbeddingVector(v), EmbeddingVector(w)
        assert abs(cosine_similarity(ev, ev) - 1.0) <= 1e-9
        scaled = cosine_similarity(
            EmbeddingVector(3.0 * v), EmbeddingVector(0.5 * w)
        )
        assert abs(scaled - cosine_similarity(ev, ew)) <= 1e-9


def test_cosine_dimension_mismatch():
    with pytest.raises(PairingError):
        cosine_similarity(
            EmbeddingVector([1.0, 0.0]),
            EmbeddingVector([1.0, 0.0, 0.0]),
        )


def test_embedding_vector_validation():
    with pytest.raises(PairingError):
        EmbeddingVector([0.0, 0.0])
    with pytest.raises(PairingError):
        EmbeddingVector([1.0, float("nan")])
    with pytest.raises(PairingError):
        EmbeddingVector([[1.0, 2.0], [3.0, 4.0]])
    assert EmbeddingVector([3.0, 4.0]).norm == 5.0
    # each component is finite, but the norm overflows to inf
    with np.errstate(over="ignore"), pytest.raises(PairingError, match="finite, got inf"):
        EmbeddingVector([1e308, 1.0])


# --- pair semantics --------------------------------------------------------


def _problem(pid: str, difficulty: float) -> SeedProblem:
    return SeedProblem(id=pid, question=f"question {pid}", answer="1", difficulty=difficulty)


def test_pair_orientation_enforced():
    lo, hi = _problem("a", 2.0), _problem("b", 5.0)
    pair = QuestionPair(low=lo, high=hi, similarity=0.9)
    assert pair.partner_of("a").id == "b"
    with pytest.raises(PairingError):
        QuestionPair(low=hi, high=lo, similarity=0.9)
    with pytest.raises(PairingError):
        QuestionPair(low=lo, high=_problem("c", 2.0), similarity=0.9)
    with pytest.raises(PairingError):
        QuestionPair(low=lo, high=hi, similarity=1.5)


def test_equal_difficulty_never_pairs():
    problems = (_problem("a", 4.0), _problem("b", 4.0))
    v = np.array([1.0, 0.0])
    embeddings = {"a": EmbeddingVector(v), "b": EmbeddingVector(v)}
    cfg = PairingConfig(tau=0.8)
    assert build_pairs(Corpus(problems=problems), embeddings, cfg) == []


def test_tau_band_warning():
    with pytest.warns(UserWarning):
        PairingConfig(tau=0.5)
    with pytest.raises(PairingError):
        PairingConfig(tau=0.0)
    with pytest.raises(PairingError):
        PairingConfig(tau=1.0)


def test_cap_requires_mutual_top_rank():
    # Hub H is similar to A, B, C (descending); A, B, C share a difficulty so
    # they never pair with each other. With cap=1 only H-A is mutual.
    angles = {"h": 0.0, "a": 0.08, "b": -0.12, "c": 0.16}
    embeddings = {
        k: EmbeddingVector([np.cos(t), np.sin(t)]) for k, t in angles.items()
    }
    problems = (
        _problem("h", 1.0),
        _problem("a", 2.0),
        _problem("b", 2.0),
        _problem("c", 2.0),
    )
    corpus = Corpus(problems=problems)
    uncapped = build_pairs(corpus, embeddings, PairingConfig(tau=0.8, max_pairs_per_question=None))
    assert {(p.low.id, p.high.id) for p in uncapped} == {("h", "a"), ("h", "b"), ("h", "c")}
    capped = build_pairs(corpus, embeddings, PairingConfig(tau=0.8, max_pairs_per_question=1))
    assert [(p.low.id, p.high.id) for p in capped] == [("h", "a")]


def test_cap_is_subset_and_respects_limit():
    corpus, vectors = random_corpus(n=80, dim=4, seed=11)
    embeddings = as_embeddings(vectors)
    full = build_pairs(corpus, embeddings, PairingConfig(tau=0.8, max_pairs_per_question=None))
    capped = build_pairs(corpus, embeddings, PairingConfig(tau=0.8, max_pairs_per_question=2))
    assert pair_set(capped) <= pair_set(full)
    degree: dict[str, int] = {}
    for p in capped:
        degree[p.low.id] = degree.get(p.low.id, 0) + 1
        degree[p.high.id] = degree.get(p.high.id, 0) + 1
    assert all(count <= 2 for count in degree.values())


def test_select_generation_pair_tie_breaks_by_partner_id():
    anchor = _problem("m", 3.0)
    first = QuestionPair(low=anchor, high=_problem("x", 5.0), similarity=0.9)
    second = QuestionPair(low=anchor, high=_problem("y", 5.0), similarity=0.9)
    best = QuestionPair(low=anchor, high=_problem("z", 5.0), similarity=0.95)
    assert select_generation_pair(anchor, [second, first]).high.id == "x"
    assert select_generation_pair(anchor, [second, first, best]).high.id == "z"
    assert select_generation_pair(_problem("q", 1.0), [first]) is None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from([0.8, 0.85, 0.9])),
        max_size=30,
    )
)
def test_generation_pairs_match_select_generation_pair(edges):
    # Few ids and three similarity values, so most seeds meet tied candidates.
    seeds = [_problem(f"s{i}", float(i)) for i in range(8)]
    pairs = [
        QuestionPair(low=seeds[min(i, j)], high=seeds[max(i, j)], similarity=sim)
        for i, j, sim in edges
        if i != j
    ]
    pair_of = generation_pairs(pairs)
    for seed in seeds:
        assert pair_of.get(seed.id) is select_generation_pair(seed, pairs)


def test_missing_embedding_is_an_error():
    corpus = Corpus(problems=(_problem("a", 1.0), _problem("b", 2.0)))
    embeddings = {"a": EmbeddingVector([1.0, 0.0])}
    with pytest.raises(PairingError, match="'b'"):
        build_pairs(corpus, embeddings, PairingConfig(tau=0.8))


# --- persistence and cache -------------------------------------------------


def test_pairs_round_trip(tmp_path, toy_corpus):
    embeddings = {
        p.id: EmbeddingVector(mock_embedding(p.question))
        for p in toy_corpus.problems
    }
    pairs = build_pairs(toy_corpus, embeddings, PairingConfig(tau=0.8))
    assert len(pairs) == 10  # one per topic
    path = tmp_path / "pairs.jsonl"
    save_pairs(pairs, path)
    loaded = load_pairs(path, toy_corpus)
    assert pair_set(loaded) == pair_set(pairs)

    orphan = Corpus(problems=(_problem("zzz", 1.0), _problem("yyy", 2.0)))
    with pytest.raises(PairingError, match="line 1"):
        load_pairs(path, orphan)


def _cached_embedder(cache_dir) -> tuple[EmbeddingClient, MockTransport]:
    transport = MockTransport(seed=0)
    return EmbeddingClient(transport, cache=ResponseCache(cache_dir)), transport


def test_embedding_cache_round_trip(tmp_path):
    texts = ["a first probe text", "a second probe text"]
    client, transport = _cached_embedder(tmp_path / "cache")
    stored = client.embed(texts)
    assert transport.calls == 1

    fresh, fresh_transport = _cached_embedder(tmp_path / "cache")
    loaded = fresh.embed(texts)
    assert fresh_transport.calls == 0
    for before, after in zip(stored, loaded):
        np.testing.assert_array_equal(after.values, before.values)
        assert after.norm == before.norm


def test_embed_corpus_consults_cache_first(tmp_path, toy_corpus):
    embedder, transport = _cached_embedder(tmp_path / "cache")
    first = embed_corpus(toy_corpus, embedder)
    assert len(first) == len(toy_corpus)
    assert embedder.stats.snapshot()["cache_hits"] == 0 and transport.calls == 1

    again, again_transport = _cached_embedder(tmp_path / "cache")
    second = embed_corpus(toy_corpus, again)
    assert again_transport.calls == 0  # every question served from the response cache
    assert again.stats.snapshot()["cache_hits"] == len(toy_corpus)
    assert list(second) == [p.id for p in toy_corpus.problems]
    for pid in first:
        np.testing.assert_array_equal(first[pid].values, second[pid].values)
        question = toy_corpus.by_id()[pid].question
        np.testing.assert_array_equal(first[pid].values, mock_embedding(question))
