"""Command-line pipeline driver.

Each subcommand reads and writes files under one output directory, so the
directory itself is the pipeline state: pair -> generate -> verify -> solve
-> (score) -> curriculum, plus review-export/review-import for the manual
annotation loop and stats for dataset counts. run-all chains the automated
stages. Given the same config, seed, and cache, every command rewrites
byte-identical artifacts; wall-clock run reports live in reports/ and are
excluded from that guarantee. `COMMAND_TABLE` lists the commands, and
`TagPaths.files` declares, once, the files each one reads and writes for a
tag. Each `cmd_*` hands its name and per-tag body to the stage driver
`_each_tag`, which checks the inputs and applies `--resume` from those files.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple

try:
    import resource
except ImportError:  # not on Windows
    resource = None  # type: ignore[assignment]

from . import jsonl
from .config import ConfigError, RunConfig, load_run_config
from .corpus import Corpus, CorpusError, load_corpus
from .curriculum import (
    CurriculumError,
    CurriculumPlan,
    GradedItem,
    StoredSolution,
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
)
from .quality import (
    apply_review,
    export_review_batch,
    import_review_batch,
    sample_for_review,
    save_verdicts,
    verify_dataset,
)
from .solver import solve_dataset
from .synthesis import (
    CATEGORIES,
    STATUSES,
    SynthesizedQuestion,
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


class PrerequisiteError(RuntimeError):
    """A command needs an artifact an earlier command has not produced yet."""


class TagPaths:
    """All artifact locations for one corpus tag."""

    def __init__(self, out_dir: Path, tag: str):
        root = out_dir / "artifacts" / tag
        self.tag = tag
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

    def skips_file(self, template: str) -> Path:
        return self.generated / f"skips_{template}.jsonl"

    def verified_file(self, category: str) -> Path:
        return self.verified / f"{category}.jsonl"

    def files(self, cfg: RunConfig) -> dict[str, tuple[list[Path], list[Path]]]:
        """Each command's (inputs, outputs) for this tag, in `COMMAND_TABLE` order.

        Inputs are listed in the order they are checked. review-import, which
        rewrites verify's files, and curriculum and stats, which write nothing
        a later command reads, declare no outputs, so `--resume` never skips them.
        """
        templates = cfg.synthesis.templates
        generated = [*map(self.generated_file, templates), self.generated_file("original")]
        verified = [*map(self.verified_file, templates)]
        original = self.verified_file("original")
        graded = [self.solutions, *verified, original]
        scores = [self.scores] if cfg.curriculum.use_scores else []
        return {
            "pair": ([], [self.pairs]),
            "generate": ([self.pairs], [*generated, *map(self.skips_file, templates)]),
            "verify": (generated, [*verified, original, self.verdicts, self.verify_errors]),
            "review-export": (verified, [self.review_batch]),
            "review-import": ([self.review_batch, *verified], []),
            "solve": (verified, [self.solutions, self.gate_reports]),
            "score": (graded, [self.scores, self.scores_missing]),
            "curriculum": ([*scores, *graded], []),
            "stats": (generated, []),
        }


def _load_corpora(cfg: RunConfig) -> dict[str, Corpus]:
    """Parse every seed corpus, keyed by tag. A blended curriculum keys items
    by id, so under `curriculum.blend` a shared id fails here, before any stage."""
    corpora: dict[str, Corpus] = {}
    owners: dict[str, str] = {}
    for entry in cfg.seed_corpora:
        corpora[entry.name] = corpus = load_corpus(entry.path)
        for problem in corpus.problems:
            owner = owners.setdefault(problem.id, entry.name)
            if cfg.curriculum.blend and owner != entry.name:
                raise CorpusError(
                    f"problem id {problem.id!r} is in seed corpora {owner!r} and "
                    f"{entry.name!r}; curriculum.blend needs ids unique across corpora"
                )
    return corpora


class Pipeline:
    """Shared runtime state for one invocation: config, seed corpora, clients.

    Each seed corpus is parsed once, when the pipeline opens. The chat and
    embedding clients carry `cfg.providers`, so each stage reads its role's
    model from its client (`client.cfg.models`). Chat stages ask through
    `complete_each` and `pair` through `embed`, one loop over the one
    transport, whose kept-alive connections last the run. That loop builds
    requests, reads the cache and checks replies on the calling thread.
    Only the calls of cache misses go to worker threads, each a transport
    request and the cache write of its reply, and only over `HttpTransport`,
    whose calls wait: each call of the loop starts its threads at its first
    miss and stops them before it returns. The `--mock` transport makes its
    calls on the calling thread.

    `solve`, `score` and `curriculum` hold one solver reply's text at a
    time: `solve` writes each row as its reply arrives (`solve_dataset`),
    and the graded items of `score` and `curriculum` keep where each
    accepted solution is stored, which the export reads back row by row.
    """

    def __init__(self, cfg: RunConfig, out_dir: Path, resume: bool = False):
        self.cfg = cfg
        self.out = out_dir
        self.resume = resume
        self.corpora = _load_corpora(cfg)
        if cfg.providers.mock:
            self.transport: Any = MockTransport(seed=cfg.seed, dim=cfg.providers.mock_dim)
        else:
            self.transport = HttpTransport(cfg.providers)
        self.cache = ResponseCache(self.out / "cache" / "responses")
        self.chat = ChatClient(self.transport, cfg.providers, self.cache)
        self.embedder = EmbeddingClient(self.transport, cfg.providers, self.cache)

    def write_config_copy(self) -> None:
        # out_dir is omitted: it is wherever this copy sits, and pinning it
        # would make otherwise-identical runs differ byte-wise.
        record = dataclasses.asdict(self.cfg)
        del record["out_dir"]
        for entry in record["seed_corpora"]:
            if entry["tag"] is None:
                del entry["tag"]
        target = self.out / "config.json"
        if not target.exists() or target.read_text(encoding="utf-8") != jsonl.dump_json(record):
            jsonl.write_json(target, record)

    def close(self) -> None:
        self.cache.close()
        if isinstance(self.transport, HttpTransport):
            self.transport.close()


def _each_tag(
    pipe: Pipeline, command: str, run: Callable[[TagPaths, Corpus], tuple[int, Any]]
) -> dict[str, Any]:
    """The stage driver: `run(paths, corpus)` returns each tag's (failures, detail).

    The command's files for a tag are those `TagPaths.files` declares. Under
    `--resume` the tag is skipped when it declares outputs and all of them
    exist. Otherwise every input must exist; a missing one names the first
    command that declares it as an output. Every tag is decided before any
    `run` starts, so a missing input of a later tag writes nothing.
    """
    todo: dict[str, TagPaths | None] = {}  # None: skipped
    for tag in pipe.corpora:
        paths = TagPaths(pipe.out, tag)
        files = paths.files(pipe.cfg)
        inputs, outputs = files[command]
        if pipe.resume and outputs and all(p.exists() for p in outputs):
            todo[tag] = None
            continue
        for path in inputs:
            if not path.exists():
                producer = next(name for name, (_, made) in files.items() if path in made)
                raise PrerequisiteError(f"missing artifact {path}; run '{producer}' first")
        todo[tag] = paths
    failures = 0
    details: dict[str, Any] = {}
    for tag, paths in todo.items():
        if paths is None:
            details[tag] = {"skipped": True}
        else:
            tag_failures, details[tag] = run(paths, pipe.corpora[tag])
            failures += tag_failures
    return {"failures": failures, "details": details}


def _verified_questions(pipe: Pipeline, paths: TagPaths) -> list[SynthesizedQuestion]:
    """Every question, of any status, in the enabled templates' verified files."""
    questions: list[SynthesizedQuestion] = []
    for template in pipe.cfg.synthesis.templates:
        questions.extend(load_questions(paths.verified_file(template)))
    return questions


# --- commands ---------------------------------------------------------------


def cmd_pair(pipe: Pipeline) -> dict[str, Any]:
    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        embeddings = embed_corpus(corpus, pipe.embedder)
        pairs = build_pairs(corpus, embeddings, pipe.cfg.pairing)
        save_pairs(pairs, paths.pairs)
        return 0, {
            "problems": len(corpus.problems),
            "pairs": len(pairs),
            "paired_questions": len({qid for p in pairs for qid in (p.low.id, p.high.id)}),
        }

    return _each_tag(pipe, "pair", run)


def cmd_generate(pipe: Pipeline) -> dict[str, Any]:
    templates = pipe.cfg.synthesis.templates

    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        pairs = load_pairs(paths.pairs, corpus)
        failures = 0
        detail: dict[str, Any] = {}
        for template in templates:
            result = synthesize_category(corpus, pairs, template, pipe.chat, pipe.cfg.synthesis)
            save_questions(result.questions, paths.generated_file(template))
            save_skip_report(result.skipped, result.failures, paths.skips_file(template))
            failures += len(result.failures)
            detail[template] = {
                "generated": len(result.questions),
                "skipped": len(result.skipped),
                "failed": len(result.failures),
            }
        originals = original_records(corpus)
        jsonl.write_records(paths.generated_file("original"), originals)
        detail["original"] = {"generated": len(originals)}
        return failures, detail

    return _each_tag(pipe, "generate", run)


def cmd_verify(pipe: Pipeline) -> dict[str, Any]:
    templates = pipe.cfg.synthesis.templates

    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        verdicts = []
        errors: list[tuple[str, str]] = []
        detail: dict[str, Any] = {}
        for template in templates:
            outcome = verify_dataset(load_questions(paths.generated_file(template)), pipe.chat)
            save_questions(outcome.questions, paths.verified_file(template))
            verdicts.extend(outcome.verdicts)
            errors.extend(outcome.errors)
            detail[template] = {s: sum(q.status == s for q in outcome.questions) for s in STATUSES}
        jsonl.write_records(
            paths.verified_file("original"),
            (record for _, record in jsonl.read_records(paths.generated_file("original"))),
        )
        save_verdicts(sorted(verdicts, key=lambda v: v.question_id), paths.verdicts)
        jsonl.write_records(
            paths.verify_errors,
            ({"question_id": qid, "reason": reason} for qid, reason in sorted(errors)),
        )
        return len(errors), detail

    return _each_tag(pipe, "verify", run)


def cmd_review_export(pipe: Pipeline) -> dict[str, Any]:
    qcfg = pipe.cfg.quality

    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        texts = {
            q.id: q.question for q in _verified_questions(pipe, paths) if q.status == "verified"
        }
        batch = sample_for_review(sorted(texts), rate=qcfg.sample_rate, seed=qcfg.review_seed)
        export_review_batch(batch, texts, paths.review_batch)
        return 0, {"population": batch.population, "sampled": len(batch.items)}

    return _each_tag(pipe, "review-export", run)


def cmd_review_import(pipe: Pipeline) -> dict[str, Any]:
    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        batch = import_review_batch(paths.review_batch)
        updated = apply_review(batch, _verified_questions(pipe, paths))
        for template in pipe.cfg.synthesis.templates:
            save_questions(
                [q for q in updated if q.category == template], paths.verified_file(template)
            )
        rejected = sum(1 for verdict, _ in batch.verdicts.values() if verdict == "reject")
        return 0, {"annotated": len(batch.verdicts), "rejected": rejected}

    return _each_tag(pipe, "review-import", run)


def cmd_solve(pipe: Pipeline) -> dict[str, Any]:
    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        questions = sorted(
            (q for q in _verified_questions(pipe, paths) if q.status == "verified"),
            key=lambda q: q.id,
        )
        outputs = (paths.solutions, paths.gate_reports)
        solved, failed = solve_dataset(
            questions, corpus.by_id(), pipe.chat, pipe.cfg.solver, *outputs
        )
        return failed, {"solved": solved, "failed": failed}

    return _each_tag(pipe, "solve", run)


def _graded_items(pipe: Pipeline, paths: TagPaths, use_scores: bool) -> list[GradedItem]:
    """Assemble training items: solver output for generated questions, the
    official answer for originals. With `use_scores`, scores override nominal difficulty.

    Every solutions row is checked, but an accepted solution's text stays in
    the file: its item keeps the row's span (`StoredSolution`)."""
    scores = load_scores(paths.scores) if use_scores else {}

    def solution(r: dict[str, Any]) -> tuple[str, bool]:
        qid, text, status = jsonl.fields(r, question_id=str, solution=str, status=str)
        if status == "accepted" and not text.strip():
            raise CurriculumError(f"{qid}: accepted solution must be non-empty")
        return qid, status == "accepted"

    rows = jsonl.load_spans(paths.solutions, solution, CurriculumError)
    accepted = {qid: span for span, (qid, ok) in rows if ok}
    items = [
        GradedItem(
            q.id,
            q.question,
            StoredSolution(paths.solutions, accepted[q.id]),
            f"{paths.tag}/{q.category}",
            scores.get(q.id, q.nominal_difficulty),
        )
        for q in _verified_questions(pipe, paths)
        if q.status == "verified" and q.id in accepted
    ]

    def original(r: dict[str, Any]) -> GradedItem:
        qid, question, answer, nominal = jsonl.fields(
            r, id=str, question=str, answer=str, nominal_difficulty=float
        )
        label = f"{paths.tag}/original"
        return GradedItem(qid, question, answer, label, scores.get(qid, nominal))

    return items + jsonl.load(paths.verified_file("original"), original, CurriculumError)


def cmd_score(pipe: Pipeline) -> dict[str, Any]:
    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        items = _graded_items(pipe, paths, use_scores=False)
        scores, missing = score_difficulty(items, pipe.chat)
        save_scores(scores, paths.scores)
        jsonl.write_records(
            paths.scores_missing,
            ({"question_id": qid, "reason": reason} for qid, reason in sorted(missing)),
        )
        return len(missing), {"scored": len(scores), "missing": len(missing)}

    return _each_tag(pipe, "score", run)


def cmd_curriculum(pipe: Pipeline) -> dict[str, Any]:
    ccfg = pipe.cfg.curriculum
    tag_items: list[list[GradedItem]] = []

    def export(plan: CurriculumPlan, out_dir: Path, blended: bool = False) -> dict[str, Any]:
        manifest = export_sft_stages(plan, out_dir, allow_empty=ccfg.allow_empty)
        stages = [
            {"name": s.name, "size": len(s.items), "mean": s.mean_difficulty}
            | ({"categories": list(s.categories)} if blended else {})
            for s in plan.stages
        ]
        return {"stages": stages, "manifest": str(manifest)}

    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        items = _graded_items(pipe, paths, ccfg.use_scores)
        tag_items.append(items)
        plan = build_pure_curriculum(items, allow_empty=ccfg.allow_empty)
        return 0, export(plan, paths.curriculum)

    result = _each_tag(pipe, "curriculum", run)
    if ccfg.blend:
        plan = build_blended_curriculum(tag_items, grouping=ccfg.grouping)
        blended_dir = pipe.out / "artifacts" / "blended" / "curriculum"
        result["details"]["blended"] = export(plan, blended_dir, blended=True)
    return result


def cmd_stats(pipe: Pipeline) -> dict[str, Any]:
    """Count generated rows per category; a template that is not enabled counts 0."""

    def run(paths: TagPaths, corpus: Corpus) -> tuple[int, Any]:
        counts = dict.fromkeys(CATEGORIES, 0)
        for category in (*pipe.cfg.synthesis.templates, "original"):
            counts[category] = sum(1 for _ in jsonl.read_records(paths.generated_file(category)))
        counts["total"] = sum(counts.values())
        return 0, counts

    result = _each_tag(pipe, "stats", run)
    rows = list(result["details"].items())
    columns = (*CATEGORIES, "total")
    if len(rows) > 1:
        rows.append(("all", {key: sum(counts[key] for _, counts in rows) for key in columns}))
        result["details"]["all"] = rows[-1][1]
    widths = [max(len("dataset"), *(len(tag) for tag, _ in rows))] + [12] * len(columns)
    print("  ".join(h.rjust(w) for h, w in zip(("dataset", *columns), widths)))
    for tag, counts in rows:
        print("  ".join([tag.rjust(widths[0])] + [str(counts[key]).rjust(12) for key in columns]))
    return result


def cmd_run_all(pipe: Pipeline) -> dict[str, Any]:
    failures = 0
    details: dict[str, Any] = {}
    for command in COMMAND_TABLE:
        if command.in_run_all(pipe.cfg):
            result = _run_step(pipe, command.name)
            failures += result["failures"]
            details[command.name] = result["details"]
    return {"failures": failures, "details": details}


class Command(NamedTuple):
    """One CLI command. run-all runs, in table order, those whose `in_run_all` holds."""

    name: str
    help: str
    in_run_all: Callable[[RunConfig], bool] = lambda cfg: False


def _always(cfg: RunConfig) -> bool:
    return True


# The one list of command names. Each runs the module-level function
# `cmd_<name>`, looked up when it runs (see `_run_step`).
COMMAND_TABLE = (
    Command("pair", "embed seed questions and build similarity pairs", _always),
    Command("generate", "synthesize hybrid/decomposed questions and emit originals", _always),
    Command("verify", "run rubric verification over generated questions", _always),
    Command("review-export", "export a seeded random sample for manual annotation"),
    Command("review-import", "apply manual accept/reject annotations"),
    Command("solve", "generate gated long-form solutions for verified questions", _always),
    Command(
        "score",
        "score item difficulty with the scorer model",
        lambda cfg: cfg.curriculum.use_scores,
    ),
    Command(
        "curriculum", "build staged training files (pure, and blended if configured)", _always
    ),
    Command("stats", "print per-category dataset counts", _always),
    Command("run-all", "run the automated stages end to end"),
)

# ValueError covers the module-specific error types (corpus, pairing,
# synthesis, quality, solver, curriculum) and malformed artifact files.
_EXPECTED_ERRORS = (ValueError, ProviderError, PrerequisiteError, OSError)


def _run_step(pipe: Pipeline, name: str) -> dict[str, Any]:
    # Resolved by name at call time, so a wrapper patched onto this module
    # (as the benchmark's tracer does) is what runs, from run-all too.
    fn = globals()["cmd_" + name.replace("-", "_")]
    started = time.monotonic()
    result = fn(pipe)
    duration = time.monotonic() - started
    report = {"command": name, **result, "duration_s": round(duration, 3)}
    if resource is not None:  # the process's peak so far; ru_maxrss is KiB (bytes on macOS)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report["peak_rss_mb"] = round(peak / (1 << 20 if sys.platform == "darwin" else 1 << 10), 2)
    jsonl.write_json(pipe.out / "reports" / f"{name}.json", report)
    print(f"{name}: {result['failures']} failures ({duration:.2f}s)")
    return result


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mathsynth",
        description="Synthesize difficulty-graded math training data from a seed corpus.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command in COMMAND_TABLE:
        p = sub.add_parser(command.name, help=command.help)
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
        # Opening the pipeline parses the seed corpora and loads the response
        # cache; either rejects malformed input with a ValueError.
        pipe = Pipeline(cfg, out_dir, resume=args.resume)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    try:
        pipe.write_config_copy()
        result = _run_step(pipe, args.command)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        pipe.close()
    return EXIT_OK if result["failures"] == 0 else EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
