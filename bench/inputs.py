"""Seeded synthetic seed corpora and run configs for the benchmark workloads.

A corpus is built from topic groups: the questions of one group share their
first 24 characters, which the mock embedder (and the stand-in endpoint,
which uses the same fabrication) maps to near-parallel vectors, while
questions of different groups stay near orthogonal at 1024 dimensions. So the
pairs of a corpus are exactly the pairs inside a group whose difficulties
differ.

The group make-up is fixed and only the text, ids, answers, difficulty values
and group order come from the seed. Each group pattern lists difficulty ranks;
equal ranks get equal difficulty values. No seed ever has more partners than
`max_pairs_per_question` unless all its partners have fewer, so the per-
question cap never leaves a seed without a pair and the number of paired
seeds, generated questions and staged rows is the same for every seed.
"""
from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any

MAX_PAIRS_PER_QUESTION = 5
TAU = 0.8
MOCK_DIM = 1024

# Difficulty-rank patterns of one topic group, and how many of each make one
# block of 41 seeds. "flat" pairs nothing (equal difficulty), "single" has no
# partner, and in "capped" the rank-2 seed has six partners against a cap of
# five, each of which has four.
PATTERNS: dict[str, tuple[int, ...]] = {
    "single": (0,),
    "flat": (0, 0),
    "pair": (0, 1),
    "tri": (0, 0, 1),
    "quad": (0, 1, 1, 2),
    "five": (0, 1, 2, 2, 3),
    "six": (0, 0, 1, 1, 2, 2),
    "capped": (0, 0, 0, 1, 1, 1, 2),
}
BLOCK: dict[str, int] = {
    "single": 3,
    "flat": 1,
    "pair": 4,
    "tri": 2,
    "quad": 1,
    "five": 1,
    "six": 1,
    "capped": 1,
}

# Difficulty scales of the corpora: a grade-school style 1-5 scale and a
# competition style 3-10 scale in half steps.
SCALES: dict[str, tuple[float, ...]] = {
    "grade": (1.0, 2.0, 3.0, 4.0, 5.0),
    "contest": tuple(3.0 + 0.5 * k for k in range(15)),
}

# In each block, this many groups of a pattern say "riddle" where the others
# say "puzzle". The stand-in's long profile makes the first solver reply loop
# for questions made from such a group: exactly 2 distinct solver payloads
# per "pair" group and 4 per "tri" group, whatever the seed.
LOOP_MARK = "riddle"
LOOP_GROUPS: dict[str, int] = {"pair": 1, "tri": 1}

# A short block of 16 seeds in 7 groups: 13 paired seeds, one looping "pair"
# group (2 looping solver payloads). Its `run-all` processes take a few
# seconds against the stand-in endpoint, so one run times several of them.
SHORT_BLOCK: dict[str, int] = {"single": 1, "flat": 1, "pair": 3, "tri": 1, "quad": 1}
SHORT_LOOP_GROUPS: dict[str, int] = {"pair": 1}
BLOCKS: dict[str, tuple[dict[str, int], dict[str, int]]] = {
    "full": (BLOCK, LOOP_GROUPS),
    "short": (SHORT_BLOCK, SHORT_LOOP_GROUPS),
}

# Fixed groups whose text does not depend on the seed. The stand-in endpoint
# marks the questions generated from them and garbles their verifier replies.
AUDIT_PREFIX = "Audit ledger "
AUDIT_GROUPS = 1

_OBJECTS = (
    "crates", "pallets", "tickets", "marbles", "seedlings", "bottles", "coins",
    "lanterns", "notebooks", "tiles", "buckets", "ribbons", "stamps", "pebbles",
)
_SETTINGS = (
    "warehouse", "orchard", "library", "harbor", "bakery", "workshop", "garden",
    "station", "market", "school", "farm", "museum", "studio", "clinic",
)
_TARGETS = (
    "total count", "remaining amount", "average per day", "number left over",
    "smallest possible total", "largest share", "difference between the two",
)


def _group_question(prefix: str, member: int, rng: random.Random) -> str:
    a, b, c = rng.randrange(3, 97), rng.randrange(3, 97), rng.randrange(2, 13)
    return (
        f"{prefix} variant {member}: a {rng.choice(_SETTINGS)} holds {a} "
        f"{rng.choice(_OBJECTS)} and receives {b} more every {c} days. "
        f"Find the {rng.choice(_TARGETS)}."
    )


def make_corpus(
    tag: str, scale: str, blocks: int, seed: int, audit_groups: int = 0, block: str = "full"
) -> list[dict[str, Any]]:
    """Seed records for one corpus: `blocks` blocks of topic groups, plus fixed audit groups."""
    rng = random.Random(f"{seed}:{tag}")
    values = SCALES[scale]
    make_up, loop_groups = BLOCKS[block]
    groups = [
        (name, k < loop_groups.get(name, 0) * blocks)
        for name, count in make_up.items()
        for k in range(count * blocks)
    ]
    rng.shuffle(groups)
    codes: set[str] = set()
    records: list[dict[str, Any]] = []
    for pattern, looping in groups:
        code = f"{rng.getrandbits(32):08x}"
        while code in codes:
            code = f"{rng.getrandbits(32):08x}"
        codes.add(code)
        kind = LOOP_MARK if looping else "puzzle"
        prefix = f"Topic {code} {rng.choice(_SETTINGS)} {kind}"
        ranks = PATTERNS[pattern]
        levels = sorted(rng.sample(values, max(ranks) + 1))
        for member, rank in enumerate(ranks):
            records.append(
                {
                    "id": f"{tag}-{rng.getrandbits(40):010x}",
                    "question": _group_question(prefix, member, rng),
                    "answer": str(rng.randrange(1, 10_000)),
                    "difficulty": levels[rank],
                }
            )
    for g in range(audit_groups):
        for member, difficulty in enumerate((values[0], values[-1])):
            records.append(
                {
                    "id": f"{tag}-audit-{g}-{member}",
                    "question": f"{AUDIT_PREFIX}{g:02d} reconciliation case {member}: "
                    f"a clerk posts {12 + member} entries of {7 + g} units each. "
                    "Find the ledger total.",
                    "answer": str((12 + member) * (7 + g)),
                    "difficulty": difficulty,
                }
            )
    ids = {r["id"] for r in records}
    if len(ids) != len(records):
        raise RuntimeError(f"seed {seed}: duplicate ids in corpus {tag}")
    rng.shuffle(records)
    return records


def write_jsonl(path: Path, records: list[dict[str, Any]]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def run_config(
    corpora: list[tuple[str, Path]],
    out_dir: Path,
    max_in_flight: int,
    *,
    base_url: str | None = None,
    use_scores: bool = False,
    blend: bool = False,
) -> dict[str, Any]:
    """A run-all config; mock providers unless a stand-in base_url is given."""
    providers: dict[str, Any] = {
        "mock_dim": MOCK_DIM,
        "max_in_flight": max_in_flight,
    }
    if base_url is not None:
        providers["base_url"] = base_url
    return {
        "seed_corpora": [{"path": str(path), "tag": tag} for tag, path in corpora],
        "out_dir": str(out_dir),
        "pairing": {"tau": TAU, "max_pairs_per_question": MAX_PAIRS_PER_QUESTION},
        "curriculum": {"use_scores": use_scores, "blend": blend},
        "providers": providers,
    }
