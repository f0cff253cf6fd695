"""Correctness checks on a finished run, computed apart from the program.

Each check returns a list of problems; an empty list means it passed. The
checks read the run's files and recompute what the method promises with the
benchmark's own code: a brute-force pairing oracle, the nominal-difficulty
formulas, boxed-answer extraction and n-gram statistics.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable

import numpy as np

CATEGORY_ORDER = ["decomposed", "original", "hybrid"]
TEMPLATES = ("hybrid", "decomposed")


def read_jsonl(path: Path) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def tree_stat(root: Path) -> dict[str, tuple[int, int]]:
    """(size, mtime_ns) of every file under root, keyed by relative path."""
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            st = p.stat()
            out[str(p.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return out


def diff_trees(before: dict[str, Any], after: dict[str, Any], what: str) -> list[str]:
    added = sorted(set(after) - set(before))
    removed = sorted(set(before) - set(after))
    changed = sorted(k for k in set(before) & set(after) if before[k] != after[k])
    problems = []
    for label, keys in (("added", added), ("removed", removed), ("changed", changed)):
        if keys:
            problems.append(f"{what}: {len(keys)} files {label}, first {keys[0]}")
    return problems


# -- pairing oracle ------------------------------------------------------------


def oracle_pairs(
    seeds: list[dict[str, Any]], vectors: dict[str, np.ndarray], tau: float, cap: int | None
) -> list[tuple[str, str, float]]:
    """All (low id, high id, similarity) pairs with similarity > tau and unequal
    difficulty, capped per question by (similarity desc, partner id asc), sorted."""
    ids = [s["id"] for s in seeds]
    diff = {s["id"]: float(s["difficulty"]) for s in seeds}
    matrix = np.stack([vectors[i] for i in ids])
    norms = [float(np.linalg.norm(vectors[i])) for i in ids]
    # The matrix product only shortlists; each shortlisted pair is scored
    # again with a scalar dot product so stored similarities compare exactly.
    approx = (matrix @ matrix.T) / np.outer(norms, norms)
    found = []
    for i, j in zip(*np.nonzero(np.triu(approx > tau - 1e-6, k=1))):
        a, b = ids[i], ids[j]
        if diff[a] == diff[b]:
            continue
        sim = float(np.dot(vectors[a], vectors[b])) / (norms[i] * norms[j])
        if sim > tau:
            low, high = (a, b) if diff[a] < diff[b] else (b, a)
            found.append((low, high, sim))
    if cap is not None:
        incident: dict[str, list[tuple[str, str, float]]] = defaultdict(list)
        for pair in found:
            incident[pair[0]].append(pair)
            incident[pair[1]].append(pair)
        kept: set[tuple[str, tuple[str, str, float]]] = set()
        for qid, mine in incident.items():
            mine.sort(key=lambda p: (-p[2], p[1] if p[0] == qid else p[0]))
            kept.update((qid, p) for p in mine[:cap])
        found = [p for p in found if (p[0], p) in kept and (p[1], p) in kept]
    return sorted(found)


def best_pairs(pairs: Iterable[tuple[str, str, float]]) -> dict[str, tuple[str, str, float]]:
    """Each seed's generation pair: highest similarity, then lowest partner id."""
    best: dict[str, tuple[str, str, float]] = {}
    for pair in pairs:
        for me, partner in ((pair[0], pair[1]), (pair[1], pair[0])):
            cur = best.get(me)
            if cur is None:
                best[me] = pair
                continue
            cur_partner = cur[1] if cur[0] == me else cur[0]
            if (-pair[2], partner) < (-cur[2], cur_partner):
                best[me] = pair
    return best


def nominal(category: str, d_low: float, d_high: float) -> float:
    if category == "hybrid":
        return d_high + 1.0
    return max(d_low, float(math.floor((d_low + d_high) / 2)))


def check_generation(
    tag_dir: Path, seeds: list[dict[str, Any]], pairs: list[tuple[str, str, float]]
) -> list[str]:
    """pairs.jsonl equals the oracle; parents, skips and difficulties follow from it."""
    problems = []
    stored = [
        (r["low_id"], r["high_id"], r["similarity"]) for r in read_jsonl(tag_dir / "pairs.jsonl")
    ]
    if stored != pairs:
        missing = sorted(set(pairs) - set(stored))[:1]
        extra = sorted(set(stored) - set(pairs))[:1]
        problems.append(
            f"{tag_dir.name}: pairs.jsonl has {len(stored)} pairs, oracle {len(pairs)}; "
            f"missing {missing}, extra {extra}"
        )
    best = best_pairs(pairs)
    diff = {s["id"]: float(s["difficulty"]) for s in seeds}
    all_ids = set(diff)
    for template in TEMPLATES:
        generated = read_jsonl(tag_dir / "generated" / f"{template}.jsonl")
        skips = read_jsonl(tag_dir / "generated" / f"skips_{template}.jsonl")
        gen_seeds = {q["id"].split(":", 1)[1] for q in generated}
        skipped = {r["seed_id"] for r in skips if r["kind"] == "skip"}
        if len(generated) + len(skips) != len(seeds) or gen_seeds | skipped != all_ids:
            problems.append(
                f"{tag_dir.name}/{template}: {len(generated)} generated + {len(skips)} "
                f"skipped != {len(seeds)} seeds"
            )
        if skipped != all_ids - set(best):
            problems.append(f"{tag_dir.name}/{template}: skipped seeds are not the unpaired ones")
        for q in generated:
            seed = q["id"].split(":", 1)[1]
            want = best.get(seed)
            if want is None or (q["parent_low_id"], q["parent_high_id"]) != want[:2]:
                problems.append(f"{q['id']}: parents are not the oracle's best pair {want}")
                break
            expect = nominal(template, diff[want[0]], diff[want[1]])
            if q["nominal_difficulty"] != expect:
                problems.append(
                    f"{q['id']}: nominal difficulty {q['nominal_difficulty']} != {expect}"
                )
                break
    return problems


# -- curriculum ----------------------------------------------------------------


def staged_rows(curriculum_dir: Path) -> list[dict[str, Any]]:
    rows = []
    for path in sorted(curriculum_dir.glob("stage*.jsonl")):
        rows.extend(read_jsonl(path))
    return rows


def check_curriculum(artifacts: Path, tags: list[str], blended: bool) -> list[str]:
    """Pure stage order, non-decreasing blended means, no id staged twice."""
    problems = []
    dirs = [artifacts / tag / "curriculum" for tag in tags]
    for tag, cdir in zip(tags, dirs):
        manifest = json.loads((cdir / "manifest.json").read_text(encoding="utf-8"))
        names = [s["name"] for s in manifest["stages"]]
        if names != CATEGORY_ORDER:
            problems.append(f"{tag}: pure stages are {names}, not {CATEGORY_ORDER}")
        for stage in manifest["stages"]:
            cats = {r["meta"]["category_label"] for r in read_jsonl(cdir / stage["file"])}
            if cats - {f"{tag}/{stage['name']}"}:
                problems.append(f"{tag}: stage {stage['name']} holds {sorted(cats)}")
    if blended:
        cdir = artifacts / "blended" / "curriculum"
        dirs.append(cdir)
        manifest = json.loads((cdir / "manifest.json").read_text(encoding="utf-8"))
        means = [s["mean_difficulty"] for s in manifest["stages"]]
        if any(b < a for a, b in zip(means, means[1:])):
            problems.append(f"blended stage means decrease: {means}")
    for cdir in dirs:
        ids = [r["meta"]["question_id"] for r in staged_rows(cdir)]
        if len(ids) != len(set(ids)):
            problems.append(f"{cdir}: a question id is staged twice")
    return problems


def check_staged(tag_dir: Path) -> list[str]:
    """The pure curriculum stages every original and every verified question with
    an accepted solution, once each."""
    want = {r["id"] for r in read_jsonl(tag_dir / "verified" / "original.jsonl")}
    accepted = {
        s["question_id"]
        for s in read_jsonl(tag_dir / "solutions" / "solutions.jsonl")
        if s["status"] == "accepted"
    }
    for template in TEMPLATES:
        for q in read_jsonl(tag_dir / "verified" / f"{template}.jsonl"):
            if q["status"] == "verified" and q["id"] in accepted:
                want.add(q["id"])
    staged = [r["meta"]["question_id"] for r in staged_rows(tag_dir / "curriculum")]
    if sorted(staged) != sorted(want):
        return [
            f"{tag_dir.name}: {len(staged)} staged rows for {len(want)} expected items, "
            f"first missing {sorted(want - set(staged))[:1]}"
        ]
    return []


# -- solution gates, recomputed ------------------------------------------------

_TOKEN = re.compile(r"\w+|[^\w\s]")


def last_boxed(text: str) -> str | None:
    """Content of the last \\boxed{...} with balanced braces, or None."""
    start = text.rfind("\\boxed{")
    if start < 0:
        return None
    depth, body = 1, start + len("\\boxed{")
    for i in range(body, len(text)):
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        if depth == 0:
            return text[body:i].strip() or None
    return None


def ngram_profile(text: str, n: int) -> tuple[float, int]:
    """(duplicate ratio of overlapping n-grams, longest run of equal back-to-back
    n-token chunks over every phase)."""
    tokens = _TOKEN.findall(text.lower())
    total = len(tokens) - n + 1
    if total < 1:
        return 0.0, 0
    grams = list(zip(*(tokens[k:] for k in range(n))))
    ratio = 1.0 - len(set(grams)) / total
    longest = 1
    for phase in range(n):
        chunks = grams[phase::n]
        run = 1
        for prev, cur in zip(chunks, chunks[1:]):
            run = run + 1 if cur == prev else 1
            longest = max(longest, run)
    return ratio, longest


def gate_problems(text: str, limits: dict[int, float], max_run: int) -> list[str]:
    problems = []
    if last_boxed(text) is None:
        problems.append("no boxed answer")
    for n, limit in limits.items():
        ratio, run = ngram_profile(text, n)
        if ratio > limit:
            problems.append(f"{n}-gram duplicate ratio {ratio:.3f} > {limit}")
        if run > max_run:
            problems.append(f"{n}-gram repeat run {run} > {max_run}")
    return problems


GATE_LIMITS = {2: 0.60, 3: 0.40}
GATE_MAX_RUN = 10


def check_solutions(
    tag_dir: Path, seeds: dict[str, dict[str, Any]], expected_answer, loop_mark: str
) -> list[str]:
    """Accepted solutions pass the gates and carry the stand-in's boxed answer;
    a second attempt was needed exactly where the stand-in's first reply looped,
    that is for questions whose parents carry loop_mark."""
    problems = []
    questions = {}
    for template in TEMPLATES:
        for q in read_jsonl(tag_dir / "verified" / f"{template}.jsonl"):
            questions[q["id"]] = q
    solutions = read_jsonl(tag_dir / "solutions" / "solutions.jsonl")
    retried: dict[str, int] = defaultdict(int)
    looping: dict[str, bool] = {}
    for sol in solutions:
        qid = sol["question_id"]
        q = questions[qid]
        if sol["status"] != "accepted":
            problems.append(f"{qid}: solution {sol['status']}")
            continue
        found = gate_problems(sol["solution"], GATE_LIMITS, GATE_MAX_RUN)
        if found:
            problems.append(f"{qid}: accepted solution fails {found}")
        want = expected_answer(q["question"])
        if sol["final_answer"] != want:
            problems.append(f"{qid}: final answer {sol['final_answer']!r} != {want!r}")
        if sol["attempts"] not in (1, 2):
            problems.append(f"{qid}: {sol['attempts']} attempts")
        retried[q["question"]] += sol["attempts"] - 1
        looping[q["question"]] = loop_mark in seeds[q["parent_high_id"]]["question"]
    # Questions with the same text send the same solver payload, and only the
    # first arrival of a payload loops, so each looping text retries once.
    for text, count in retried.items():
        if count != int(looping[text]):
            problems.append(f"{count} retries for a question that should have {int(looping[text])}")
            break
    accepted = {s["question_id"]: s["solution"] for s in solutions if s["status"] == "accepted"}
    for row in staged_rows(tag_dir / "curriculum"):
        qid = row["meta"]["question_id"]
        if qid in accepted and row["messages"][1]["content"] != accepted[qid]:
            problems.append(f"{qid}: staged assistant message differs from its solution")
            break
    return problems
