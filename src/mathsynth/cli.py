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
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

from . import jsonl
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
from .pairing import PairingConfig, build_pairs, embed_corpus, load_pairs, save_pairs
from .providers import (
    ChatClient,
    EmbeddingClient,
    HttpTransport,
    MockTransport,
    ProviderConfig,
    ProviderError,
    ResponseCache,
)
from .quality import (
    apply_review,
    export_review_batch,
    import_review_batch,
    sample_for_review,
    save_verdicts,
    verify_dataset,
)
from .solver import GateConfig, SamplingParams, save_gate_reports, save_solutions, solve_dataset
from .synthesis import (
    DifficultyRules,
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

DEFAULTS: dict[str, Any] = {
    "seed_corpora": [],
    "out_dir": "run",
    "seed": 0,
    "pairing": {"tau": 0.8, "max_pairs_per_question": 5},
    "synthesis": {
        "templates": ["hybrid", "decomposed"],
        "hybrid_offset": 1.0,
        "temperature": 0.7,
        "max_tokens": 4096,
    },
    "quality": {"sample_rate": 0.10, "review_seed": 0},
    "solver": {
        "require_boxed": True,
        "max_duplicate_2gram_ratio": 0.60,
        "max_duplicate_3gram_ratio": 0.40,
        "max_consecutive_repeat": 10,
        "max_attempts": 3,
        "temperature": 0.6,
        "top_p": 0.95,
        "top_k": 40,
        "min_p": 0.0,
        "max_tokens": 32768,
    },
    "curriculum": {"grouping": 2, "use_scores": False, "blend": False, "allow_empty": False},
    "providers": {
        "mock": False,
        "mock_dim": 64,
        "base_url": "http://localhost:8000/v1",
        "api_key_env": "MATHSYNTH_API_KEY",
        "timeout": 120.0,
        "max_retries": 3,
        "backoff_base": 0.5,
        "embed_batch_size": 64,
        "max_in_flight": 8,
        "models": {
            "generator": "gpt-4o",
            "verifier": "gpt-4o",
            "solver": "qwq-32b",
            "scorer": "gpt-4o",
            "embedder": "bge-m3",
        },
    },
}

GENERATED_CATEGORIES = ("hybrid", "decomposed", "original")


class ConfigError(ValueError):
    """The run configuration file is missing, malformed, or inconsistent."""


class PrerequisiteError(RuntimeError):
    """A command needs an artifact an earlier command has not produced yet."""


def _deep_merge(base: dict[str, Any], override: dict[str, Any]) -> dict[str, Any]:
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def _unknown_keys(defaults: dict[str, Any], loaded: dict[str, Any], prefix: str = "") -> list[str]:
    """Dotted paths of keys in `loaded` that `defaults` lacks, at every dict level."""
    unknown = []
    for key, value in loaded.items():
        if key not in defaults:
            unknown.append(prefix + key)
        elif isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix + key} must be a JSON object")
            unknown += _unknown_keys(defaults[key], value, f"{prefix}{key}.")
    return unknown


def load_run_config(path: str | Path) -> dict[str, Any]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = _unknown_keys(DEFAULTS, loaded)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {sorted(unknown)}")
    return _deep_merge(DEFAULTS, loaded)


def validate_config(cfg: dict[str, Any]) -> None:
    corpora = cfg["seed_corpora"]
    if not corpora:
        raise ConfigError("seed_corpora must list at least one {path, tag} entry")
    tags = []
    for entry in corpora:
        if not isinstance(entry, dict) or "path" not in entry:
            raise ConfigError(f"seed corpus entries need a 'path': {entry!r}")
        if not Path(entry["path"]).exists():
            raise ConfigError(f"seed corpus file not found: {entry['path']}")
        tag = entry.get("tag") or Path(entry["path"]).stem
        if not tag.replace("-", "").replace("_", "").isalnum():
            raise ConfigError(f"corpus tag must be filesystem-safe, got {tag!r}")
        tags.append(tag)
    if len(set(tags)) != len(tags):
        raise ConfigError(f"corpus tags must be unique, got {tags}")
    if not 0.0 < cfg["pairing"]["tau"] < 1.0:
        raise ConfigError(f"pairing.tau must be in (0, 1), got {cfg['pairing']['tau']}")
    if not 0.0 < cfg["quality"]["sample_rate"] <= 1.0:
        raise ConfigError("quality.sample_rate must be in (0, 1]")
    if cfg["curriculum"]["grouping"] < 1:
        raise ConfigError("curriculum.grouping must be at least 1")
    for template in cfg["synthesis"]["templates"]:
        if template not in ("hybrid", "decomposed"):
            raise ConfigError(f"unknown synthesis template {template!r}")
    if not cfg["synthesis"]["templates"]:
        raise ConfigError("synthesis.templates must enable at least one template")
    missing_models = {"generator", "verifier", "solver", "scorer", "embedder"} - set(
        cfg["providers"]["models"]
    )
    if missing_models:
        raise ConfigError(f"providers.models missing roles: {sorted(missing_models)}")


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
    """Shared runtime state for one invocation: config, clients, and paths."""

    def __init__(self, cfg: dict[str, Any], out_dir: Path, resume: bool = False):
        self.cfg = cfg
        self.out = out_dir
        self.resume = resume
        p = cfg["providers"]
        self.provider_cfg = ProviderConfig(
            base_url=p["base_url"],
            api_key_env=p["api_key_env"],
            timeout=p["timeout"],
            max_retries=p["max_retries"],
            backoff_base=p["backoff_base"],
            embed_batch_size=p["embed_batch_size"],
            max_in_flight=p["max_in_flight"],
        )
        if p["mock"]:
            self.transport: Any = MockTransport(seed=cfg["seed"], dim=p["mock_dim"])
        else:
            self.transport = HttpTransport(self.provider_cfg)
        self.cache = ResponseCache(self.out / "cache" / "responses")
        self.chat = ChatClient(self.transport, self.provider_cfg, self.cache)
        self.models: dict[str, str] = p["models"]
        self.max_in_flight: int = p["max_in_flight"]
        self.templates: list[str] = cfg["synthesis"]["templates"]

    def corpora(self) -> list[tuple[str, Corpus]]:
        out = []
        for entry in self.cfg["seed_corpora"]:
            tag = entry.get("tag") or Path(entry["path"]).stem
            out.append((tag, load_corpus(entry["path"], source_tag=tag)))
        return out

    def tags(self) -> list[str]:
        return [e.get("tag") or Path(e["path"]).stem for e in self.cfg["seed_corpora"]]

    def paths(self, tag: str) -> TagPaths:
        return TagPaths(self.out, tag)

    def write_config_copy(self) -> None:
        # out_dir is omitted: it is wherever this copy sits, and pinning it
        # would make otherwise-identical runs differ byte-wise.
        record = {k: v for k, v in self.cfg.items() if k != "out_dir"}
        self.out.mkdir(parents=True, exist_ok=True)
        target = self.out / "config.json"
        text = json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        if not target.exists() or target.read_text(encoding="utf-8") != text:
            target.write_text(text, encoding="utf-8")

    def close(self) -> None:
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
    pcfg = PairingConfig(
        tau=pipe.cfg["pairing"]["tau"],
        max_pairs_per_question=pipe.cfg["pairing"]["max_pairs_per_question"],
    )
    details: dict[str, Any] = {}
    for tag, corpus in pipe.corpora():
        paths = pipe.paths(tag)
        if pipe.resume and _done(paths.pairs):
            details[tag] = {"skipped": True}
            continue
        embedder = EmbeddingClient(
            pipe.transport, pipe.models["embedder"], pipe.provider_cfg, pipe.cache
        )
        embeddings = embed_corpus(corpus, embedder)
        pairs = build_pairs(corpus, embeddings, pcfg)
        save_pairs(pairs, paths.pairs)
        paired = len({qid for p in pairs for qid in (p.low.id, p.high.id)})
        details[tag] = {
            "problems": len(corpus.problems),
            "pairs": len(pairs),
            "paired_questions": paired,
        }
    return {"failures": 0, "details": details}


def cmd_generate(pipe: Pipeline) -> dict[str, Any]:
    scfg = pipe.cfg["synthesis"]
    rules = DifficultyRules(hybrid_offset=scfg["hybrid_offset"])
    failures = 0
    details: dict[str, Any] = {}
    for tag, corpus in pipe.corpora():
        paths = pipe.paths(tag)
        targets = [paths.generated_file(t) for t in pipe.templates]
        targets.append(paths.generated_file("original"))
        if pipe.resume and _done(*targets):
            details[tag] = {"skipped": True}
            continue
        _require(paths.pairs, "pair")
        pairs = load_pairs(paths.pairs, corpus)
        tag_detail: dict[str, Any] = {}
        for template in pipe.templates:
            result = synthesize_category(
                corpus,
                pairs,
                template,
                pipe.chat,
                pipe.models["generator"],
                rules=rules,
                temperature=scfg["temperature"],
                max_tokens=scfg["max_tokens"],
                max_in_flight=pipe.max_in_flight,
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
        targets = [paths.verified_file(t) for t in pipe.templates] + [
            paths.verified_file("original"),
            paths.verdicts,
        ]
        if pipe.resume and _done(*targets):
            details[tag] = {"skipped": True}
            continue
        verdicts = []
        errors: list[tuple[str, str]] = []
        tag_detail: dict[str, Any] = {}
        for template in pipe.templates:
            source = paths.generated_file(template)
            _require(source, "generate")
            questions = load_questions(source)
            outcome = verify_dataset(
                questions,
                pipe.chat,
                pipe.models["verifier"],
                max_in_flight=pipe.max_in_flight,
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
    qcfg = pipe.cfg["quality"]
    details: dict[str, Any] = {}
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        texts: dict[str, str] = {}
        for template in pipe.templates:
            source = paths.verified_file(template)
            _require(source, "verify")
            for q in load_questions(source):
                if q.status == "verified":
                    texts[q.id] = q.question
        batch = sample_for_review(
            sorted(texts), rate=qcfg["sample_rate"], seed=qcfg["review_seed"]
        )
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
        for template in pipe.templates:
            source = paths.verified_file(template)
            _require(source, "verify")
            merged.extend(load_questions(source))
        updated = apply_review(batch, merged)
        for template in pipe.templates:
            save_questions(
                [q for q in updated if q.category == template], paths.verified_file(template)
            )
        rejected = sum(
            1 for verdict, _ in batch.verdicts.values() if verdict == "reject"
        )
        details[tag] = {"annotated": len(batch.verdicts), "rejected": rejected}
    return {"failures": 0, "details": details}


def cmd_solve(pipe: Pipeline) -> dict[str, Any]:
    solver_cfg = pipe.cfg["solver"]
    gate_cfg = GateConfig(
        require_boxed=solver_cfg["require_boxed"],
        max_duplicate_2gram_ratio=solver_cfg["max_duplicate_2gram_ratio"],
        max_duplicate_3gram_ratio=solver_cfg["max_duplicate_3gram_ratio"],
        max_consecutive_repeat=solver_cfg["max_consecutive_repeat"],
        max_attempts=solver_cfg["max_attempts"],
        sampling=SamplingParams(
            temperature=solver_cfg["temperature"],
            top_p=solver_cfg["top_p"],
            top_k=solver_cfg["top_k"],
            min_p=solver_cfg["min_p"],
            max_tokens=solver_cfg["max_tokens"],
        ),
    )
    failures = 0
    details: dict[str, Any] = {}
    for tag, corpus in pipe.corpora():
        paths = pipe.paths(tag)
        if pipe.resume and _done(paths.solutions, paths.gate_reports):
            details[tag] = {"skipped": True}
            continue
        questions = []
        for template in pipe.templates:
            source = paths.verified_file(template)
            _require(source, "verify")
            questions.extend(q for q in load_questions(source) if q.status == "verified")
        questions.sort(key=lambda q: q.id)
        records = solve_dataset(
            questions,
            corpus.by_id(),
            pipe.chat,
            pipe.models["solver"],
            gate_cfg,
            max_in_flight=pipe.max_in_flight,
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
    for template in pipe.templates:
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
    failures = 0
    details: dict[str, Any] = {}
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        if pipe.resume and _done(paths.scores):
            details[tag] = {"skipped": True}
            continue
        items = _graded_items(pipe, tag, scores=None)
        scores, missing = score_difficulty(
            items, pipe.chat, pipe.models["scorer"], max_in_flight=pipe.max_in_flight
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
    ccfg = pipe.cfg["curriculum"]
    details: dict[str, Any] = {}
    items_by_tag: dict[str, list[GradedItem]] = {}
    for tag in pipe.tags():
        paths = pipe.paths(tag)
        scores = None
        if ccfg["use_scores"]:
            _require(paths.scores, "score")
            scores = load_scores(paths.scores)
        items = _graded_items(pipe, tag, scores)
        items_by_tag[tag] = items
        plan = build_pure_curriculum(items, allow_empty=ccfg["allow_empty"])
        manifest = export_sft_stages(plan, paths.curriculum, allow_empty=ccfg["allow_empty"])
        details[tag] = {
            "stages": [
                {"name": s.name, "size": len(s.items), "mean": s.mean_difficulty}
                for s in plan.stages
            ],
            "manifest": str(manifest),
        }
    if ccfg["blend"]:
        score_map: dict[str, float] = {}
        for items in items_by_tag.values():
            for item in items:
                if item.difficulty_score is not None:
                    score_map[item.question_id] = item.difficulty_score
        plan = build_blended_curriculum(
            list(items_by_tag.values()), score_map, grouping=ccfg["grouping"]
        )
        blended_dir = pipe.out / "artifacts" / "blended" / "curriculum"
        manifest = export_sft_stages(plan, blended_dir, allow_empty=ccfg["allow_empty"])
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
    if pipe.cfg["curriculum"]["use_scores"]:
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
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.mock:
            cfg["providers"]["mock"] = True
        validate_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.out) if args.out else Path(cfg["out_dir"])
    try:
        # Opening the pipeline loads the response cache, which rejects a
        # corrupt log with a ValueError.
        pipe = Pipeline(cfg, out_dir, resume=args.resume)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    try:
        pipe.write_config_copy()
        result = _run_step(pipe, args.command, COMMANDS[args.command])
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        pipe.close()
    return EXIT_OK if result["failures"] == 0 else EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
