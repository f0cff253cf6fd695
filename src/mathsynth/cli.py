"""Command-line pipeline driver.

Each subcommand reads and writes files under one output directory, so the
directory itself is the pipeline state: pair -> generate -> verify -> solve
-> (score) -> curriculum, plus review-export/review-import for the manual
annotation loop and stats for dataset counts. run-all chains the automated
stages. Given the same config, seed, and cache, every command rewrites
byte-identical artifacts; wall-clock run reports live in reports/ and are
excluded from that guarantee.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

from . import jsonl
from .config import ConfigError, RunConfig, load_run_config
from .corpus import Corpus, load_corpus
from .curriculum import (
    GradedItem,
    build_blended_curriculum,
    build_pure_curriculum,
    export_sft_stages,
    load_scores,
    save_scores,
    score_difficulty,
)
from .pairing import build_pairs, embed_corpus, load_pairs, save_pairs
from .providers import (
    ChatClient,
    EmbeddingClient,
    HttpTransport,
    MockTransport,
    ProviderError,
    ResponseCache,
    WorkerPool,
)
from .quality import (
    apply_review,
    export_review_batch,
    import_review_batch,
    sample_for_review,
    save_verdicts,
    verify_dataset,
)
from .solver import save_gate_reports, save_solutions, solve_dataset
from .synthesis import (
    load_questions,
    original_records,
    save_questions,
    save_skip_report,
    synthesize_category,
)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3

GENERATED_CATEGORIES = ("hybrid", "decomposed", "original")


class PrerequisiteError(RuntimeError):
    """A command needs an artifact an earlier command has not produced yet."""


class TagPaths:
    """All artifact locations for one corpus tag."""

    def __init__(self, out_dir: Path, tag: str):
        root = out_dir / "artifacts" / tag
        self.root = root
        self.pairs = root / "pairs.jsonl"
        self.generated = root / "generated"
        self.verified = root / "verified"
        self.verdicts = root / "verified" / "verdicts.jsonl"
        self.verify_errors = root / "verified" / "verify_errors.jsonl"
        self.review_batch = root / "review" / "batch.jsonl"
        self.solutions = root / "solutions" / "solutions.jsonl"
        self.gate_reports = root / "solutions" / "gate_reports.jsonl"
        self.scores = root / "scores" / "scores.jsonl"
        self.scores_missing = root / "scores" / "missing.jsonl"
        self.curriculum = root / "curriculum"

    def generated_file(self, category: str) -> Path:
        return self.generated / f"{category}.jsonl"

    def verified_file(self, category: str) -> Path:
        return self.verified / f"{category}.jsonl"


class Pipeline:
    """Shared runtime state for one invocation: config, clients, worker pool, and paths.

    Stages run inside `pool.use()` share the pool's threads, and with them
    the transport's per-thread connections.
    """

    def __init__(self, cfg: RunConfig, out_dir: Path, resume: bool = False):
        self.cfg = cfg
        self.out = out_dir
        self.resume = resume
        if cfg.providers.mock:
            self.transport: Any = MockTransport(seed=cfg.seed, dim=cfg.providers.mock_dim)
        else:
            self.transport = HttpTransport(cfg.providers)
        self.cache = ResponseCache(self.out / "cache" / "responses")
        self.chat = ChatClient(self.transport, cfg.providers, self.cache)
        self.pool = WorkerPool()

    def corpora(self) -> list[tuple[str, Corpus]]:
        return [
            (entry.name, load_corpus(entry.path, source_tag=entry.name))
            for entry in self.cfg.seed_corpora
        ]

    def tags(self) -> list[str]:
        return [entry.name for entry in self.cfg.seed_corpora]

    def paths(self, tag: str) -> TagPaths:
        return TagPaths(self.out, tag)

    def write_config_copy(self) -> None:
        # out_dir is omitted: it is wherever this copy sits, and pinning it
        # would make otherwise-identical runs differ byte-wise.
        record = dataclasses.asdict(self.cfg)
        del record["out_dir"]
        for entry in record["seed_corpora"]:
            if entry["tag"] is None:
                del entry["tag"]
        self.out.mkdir(parents=True, exist_ok=True)
        target = self.out / "config.json"
        text = json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        if not target.exists() or target.read_text(encoding="utf-8") != text:
            target.write_text(text, encoding="utf-8")

    def close(self) -> None:
        self.pool.close()
        self.cache.close()
        if isinstance(self.transport, HttpTransport):
            self.transport.close()


def _require(path: Path, producer: str) -> None:
    if not path.exists():
        raise PrerequisiteError(f"missing artifact {path}; run '{producer}' first")


def _done(*paths: Path) -> bool:
    return all(p.exists() for p in paths)


# --- commands ---------------------------------------------------------------


def cmd_pair(pipe: Pipeline) -> dict[str, Any]:
    details: dict[str, Any] = {}
    for tag, corpus in pipe.corpora():
        paths = pipe.paths(tag)
        if pipe.resume and _done(paths.pairs):
            details[tag] = {"skipped": True}
            continue
        embedder = EmbeddingClient(
            pipe.transport, pipe.cfg.providers.models.embedder, pipe.cfg.providers, pipe.cache
        )
        embeddings = embed_corpus(corpus, embedder)
        pairs = build_pairs(corpus, embeddings, pipe.cfg.pairing)
        save_pairs(pairs, paths.pairs)
        paired = len({qid for p in pairs for qid in (p.low.id, p.high.id)})
        details[tag] = {
            "problems": len(corpus.problems),
            "pairs": len(pairs),
            "paired_questions": paired,
        }
    return {"failures": 0, "details": details}


def cmd_generate(pipe: Pipeline) -> dict[str, Any]:
    failures = 0
    details: dict[str, Any] = {}
    for tag, corpus in pipe.corpora():
        paths = pipe.paths(tag)
        targets = [paths.generated_file(t) for t in pipe.cfg.synthesis.templates]
        targets.append(paths.generated_file("original"))
        if pipe.resume and _done(*targets):
            details[tag] = {"skipped": True}
            continue
        _require(paths.pairs, "pair")
        pairs = load_pairs(paths.pairs, corpus)
        tag_detail: dict[str, Any] = {}
        for template in pipe.cfg.synthesis.templates:
            result = synthesize_category(
                corpus,
                pairs,
                template,
                pipe.chat,
                pipe.cfg.providers.models.generator,
                pipe.cfg.synthesis,
                max_in_flight=pipe.cfg.providers.max_in_flight,
            )
            save_questions(result.questions, paths.generated_file(template))
            save_skip_report(
                result.skipped, result.failures, paths.generated / f"skips_{template}.jsonl"
            )
            failures += len(result.failures)
            tag_detail[template] = {
                "generated": len(result.questions),
                "skipped": len(result.skipped),
                "failed": len(result.failures),
            }
        originals = original_records(corpus)
        jsonl.write_records(paths.generated_file("original"), originals)
        tag_detail["original"] = {"generated": len(originals)}
        details[tag] = tag_detail
    return {"failures": failures, "details": details}


def cmd_verify(pipe: Pipeline) -> dict[str, Any]:
    failures = 0
    details: dict[str, Any] = {}
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        targets = [paths.verified_file(t) for t in pipe.cfg.synthesis.templates] + [
            paths.verified_file("original"),
            paths.verdicts,
        ]
        if pipe.resume and _done(*targets):
            details[tag] = {"skipped": True}
            continue
        verdicts = []
        errors: list[tuple[str, str]] = []
        tag_detail: dict[str, Any] = {}
        for template in pipe.cfg.synthesis.templates:
            source = paths.generated_file(template)
            _require(source, "generate")
            questions = load_questions(source)
            outcome = verify_dataset(
                questions,
                pipe.chat,
                pipe.cfg.providers.models.verifier,
                max_in_flight=pipe.cfg.providers.max_in_flight,
            )
            save_questions(outcome.questions, paths.verified_file(template))
            verdicts.extend(outcome.verdicts)
            errors.extend(outcome.errors)
            counts = {"verified": 0, "rejected": 0, "unverified": 0}
            for q in outcome.questions:
                counts[q.status] += 1
            tag_detail[template] = counts
        original_source = paths.generated_file("original")
        _require(original_source, "generate")
        jsonl.write_records(
            paths.verified_file("original"),
            (record for _, record in jsonl.read_records(original_source)),
        )
        save_verdicts(sorted(verdicts, key=lambda v: v.question_id), paths.verdicts)
        jsonl.write_records(
            paths.verify_errors,
            ({"question_id": qid, "reason": reason} for qid, reason in sorted(errors)),
        )
        failures += len(errors)
        details[tag] = tag_detail
    return {"failures": failures, "details": details}


def cmd_review_export(pipe: Pipeline) -> dict[str, Any]:
    qcfg = pipe.cfg.quality
    details: dict[str, Any] = {}
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        texts: dict[str, str] = {}
        for template in pipe.cfg.synthesis.templates:
            source = paths.verified_file(template)
            _require(source, "verify")
            for q in load_questions(source):
                if q.status == "verified":
                    texts[q.id] = q.question
        batch = sample_for_review(sorted(texts), rate=qcfg.sample_rate, seed=qcfg.review_seed)
        export_review_batch(batch, texts, paths.review_batch)
        details[tag] = {"population": batch.population, "sampled": len(batch.items)}
    return {"failures": 0, "details": details}


def cmd_review_import(pipe: Pipeline) -> dict[str, Any]:
    details: dict[str, Any] = {}
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        _require(paths.review_batch, "review-export")
        batch = import_review_batch(paths.review_batch)
        merged = []
        for template in pipe.cfg.synthesis.templates:
            source = paths.verified_file(template)
            _require(source, "verify")
            merged.extend(load_questions(source))
        updated = apply_review(batch, merged)
        for template in pipe.cfg.synthesis.templates:
            save_questions(
                [q for q in updated if q.category == template], paths.verified_file(template)
            )
        rejected = sum(
            1 for verdict, _ in batch.verdicts.values() if verdict == "reject"
        )
        details[tag] = {"annotated": len(batch.verdicts), "rejected": rejected}
    return {"failures": 0, "details": details}


def cmd_solve(pipe: Pipeline) -> dict[str, Any]:
    failures = 0
    details: dict[str, Any] = {}
    for tag, corpus in pipe.corpora():
        paths = pipe.paths(tag)
        if pipe.resume and _done(paths.solutions, paths.gate_reports):
            details[tag] = {"skipped": True}
            continue
        questions = []
        for template in pipe.cfg.synthesis.templates:
            source = paths.verified_file(template)
            _require(source, "verify")
            questions.extend(q for q in load_questions(source) if q.status == "verified")
        questions.sort(key=lambda q: q.id)
        records = solve_dataset(
            questions,
            corpus.by_id(),
            pipe.chat,
            pipe.cfg.providers.models.solver,
            pipe.cfg.solver,
            max_in_flight=pipe.cfg.providers.max_in_flight,
        )
        save_solutions(records, paths.solutions)
        save_gate_reports(records, paths.gate_reports)
        failed = sum(1 for r in records if r.status == "failed")
        failures += failed
        details[tag] = {"solved": len(records) - failed, "failed": failed}
    return {"failures": failures, "details": details}


def _graded_items(
    pipe: Pipeline, tag: str, scores: dict[str, float] | None
) -> list[GradedItem]:
    """Assemble training items: solver output for generated questions, the
    official answer for originals. Scores override nominal difficulty when given."""
    paths = pipe.paths(tag)
    _require(paths.solutions, "solve")
    accepted: dict[str, str] = {}
    for _, record in jsonl.read_records(paths.solutions):
        if record["status"] == "accepted":
            accepted[record["question_id"]] = record["solution"]
    items: list[GradedItem] = []
    for template in pipe.cfg.synthesis.templates:
        source = paths.verified_file(template)
        _require(source, "verify")
        for q in load_questions(source):
            if q.status != "verified" or q.id not in accepted:
                continue
            score = scores.get(q.id, q.nominal_difficulty) if scores else q.nominal_difficulty
            items.append(
                GradedItem(
                    question_id=q.id,
                    question=q.question,
                    solution=accepted[q.id],
                    category_label=f"{tag}/{q.category}",
                    difficulty_score=score,
                )
            )
    original_source = paths.verified_file("original")
    _require(original_source, "verify")
    for _, record in jsonl.read_records(original_source):
        nominal = float(record["nominal_difficulty"])
        score = scores.get(record["id"], nominal) if scores else nominal
        items.append(
            GradedItem(
                question_id=record["id"],
                question=record["question"],
                solution=record["answer"],
                category_label=f"{tag}/original",
                difficulty_score=score,
            )
        )
    return items


def cmd_score(pipe: Pipeline) -> dict[str, Any]:
    providers = pipe.cfg.providers
    failures = 0
    details: dict[str, Any] = {}
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        if pipe.resume and _done(paths.scores):
            details[tag] = {"skipped": True}
            continue
        items = _graded_items(pipe, tag, scores=None)
        scores, missing = score_difficulty(
            items, pipe.chat, providers.models.scorer, max_in_flight=providers.max_in_flight
        )
        save_scores(scores, paths.scores)
        jsonl.write_records(
            paths.scores_missing,
            ({"question_id": qid, "reason": reason} for qid, reason in sorted(missing)),
        )
        failures += len(missing)
        details[tag] = {"scored": len(scores), "missing": len(missing)}
    return {"failures": failures, "details": details}


def cmd_curriculum(pipe: Pipeline) -> dict[str, Any]:
    ccfg = pipe.cfg.curriculum
    details: dict[str, Any] = {}
    items_by_tag: dict[str, list[GradedItem]] = {}
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        scores = None
        if ccfg.use_scores:
            _require(paths.scores, "score")
            scores = load_scores(paths.scores)
        items = _graded_items(pipe, tag, scores)
        items_by_tag[tag] = items
        plan = build_pure_curriculum(items, allow_empty=ccfg.allow_empty)
        manifest = export_sft_stages(plan, paths.curriculum, allow_empty=ccfg.allow_empty)
        details[tag] = {
            "stages": [
                {"name": s.name, "size": len(s.items), "mean": s.mean_difficulty}
                for s in plan.stages
            ],
            "manifest": str(manifest),
        }
    if ccfg.blend:
        score_map: dict[str, float] = {}
        for items in items_by_tag.values():
            for item in items:
                if item.difficulty_score is not None:
                    score_map[item.question_id] = item.difficulty_score
        plan = build_blended_curriculum(
            list(items_by_tag.values()), score_map, grouping=ccfg.grouping
        )
        blended_dir = pipe.out / "artifacts" / "blended" / "curriculum"
        manifest = export_sft_stages(plan, blended_dir, allow_empty=ccfg.allow_empty)
        details["blended"] = {
            "stages": [
                {
                    "name": s.name,
                    "size": len(s.items),
                    "mean": s.mean_difficulty,
                    "categories": list(s.categories),
                }
                for s in plan.stages
            ],
            "manifest": str(manifest),
        }
    return {"failures": 0, "details": details}


def cmd_stats(pipe: Pipeline) -> dict[str, Any]:
    rows: list[tuple[str, dict[str, int]]] = []
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        counts: dict[str, int] = {}
        for category in GENERATED_CATEGORIES:
            source = paths.generated_file(category)
            _require(source, "generate")
            counts[category] = sum(1 for _ in jsonl.read_records(source))
        counts["total"] = sum(counts.values())
        rows.append((tag, counts))
    if len(rows) > 1:
        total = {
            key: sum(counts[key] for _, counts in rows)
            for key in (*GENERATED_CATEGORIES, "total")
        }
        rows.append(("all", total))
    header = ("dataset", "decomposed", "original", "hybrid", "total")
    widths = [max(len(header[0]), *(len(tag) for tag, _ in rows))] + [12] * 4
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for tag, counts in rows:
        cells = [tag.rjust(widths[0])] + [
            str(counts[key]).rjust(12) for key in ("decomposed", "original", "hybrid", "total")
        ]
        print("  ".join(cells))
    return {"failures": 0, "details": {tag: counts for tag, counts in rows}}


def cmd_run_all(pipe: Pipeline) -> dict[str, Any]:
    steps: list[tuple[str, Callable[[Pipeline], dict[str, Any]]]] = [
        ("pair", cmd_pair),
        ("generate", cmd_generate),
        ("verify", cmd_verify),
        ("solve", cmd_solve),
    ]
    if pipe.cfg.curriculum.use_scores:
        steps.append(("score", cmd_score))
    steps.extend([("curriculum", cmd_curriculum), ("stats", cmd_stats)])
    failures = 0
    details: dict[str, Any] = {}
    for name, fn in steps:
        result = _run_step(pipe, name, fn)
        failures += result["failures"]
        details[name] = result["details"]
    return {"failures": failures, "details": details}


COMMANDS: dict[str, Callable[[Pipeline], dict[str, Any]]] = {
    "pair": cmd_pair,
    "generate": cmd_generate,
    "verify": cmd_verify,
    "review-export": cmd_review_export,
    "review-import": cmd_review_import,
    "solve": cmd_solve,
    "score": cmd_score,
    "curriculum": cmd_curriculum,
    "stats": cmd_stats,
    "run-all": cmd_run_all,
}

# ValueError covers the module-specific error types (corpus, pairing,
# synthesis, quality, solver, curriculum) and malformed artifact files.
_EXPECTED_ERRORS = (ValueError, ProviderError, PrerequisiteError, OSError)


def _run_step(
    pipe: Pipeline, name: str, fn: Callable[[Pipeline], dict[str, Any]]
) -> dict[str, Any]:
    started = time.monotonic()
    result = fn(pipe)
    duration = time.monotonic() - started
    report = {
        "command": name,
        "failures": result["failures"],
        "details": result["details"],
        "duration_s": round(duration, 3),
    }
    report_path = pipe.out / "reports" / f"{name}.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(
        json.dumps(report, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    print(f"{name}: {result['failures']} failures ({duration:.2f}s)")
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathsynth",
        description="Synthesize difficulty-graded math training data from a seed corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    helps = {
        "pair": "embed seed questions and build similarity pairs",
        "generate": "synthesize hybrid/decomposed questions and emit originals",
        "verify": "run rubric verification over generated questions",
        "review-export": "export a seeded random sample for manual annotation",
        "review-import": "apply manual accept/reject annotations",
        "solve": "generate gated long-form solutions for verified questions",
        "score": "score item difficulty with the scorer model",
        "curriculum": "build staged training files (pure, and blended if configured)",
        "stats": "print per-category dataset counts",
        "run-all": "run the automated stages end to end",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration JSON file")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, help="global random seed (overrides config)")
        p.add_argument("--mock", action="store_true", help="force deterministic mock providers")
        p.add_argument(
            "--resume", action="store_true", help="skip stages whose outputs already exist"
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.mock:
        cfg = dataclasses.replace(cfg, providers=dataclasses.replace(cfg.providers, mock=True))
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    try:
        # Opening the pipeline loads the response cache, which rejects a
        # corrupt log with a ValueError.
        pipe = Pipeline(cfg, out_dir, resume=args.resume)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    try:
        pipe.write_config_copy()
        with pipe.pool.use():
            result = _run_step(pipe, args.command, COMMANDS[args.command])
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        pipe.close()
    return EXIT_OK if result["failures"] == 0 else EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
