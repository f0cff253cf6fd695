"""Benchmark of mathsynth's `run-all` CLI on three workloads.

    python3 bench/run.py --workload warm-replay|slow-endpoint|long-solutions \
        --seed N --seconds S --trace 0|1

Each run repeats whole rounds while the longest round so far still fits in
S seconds. A round sets up (inputs, then the stand-in endpoint or a cold
cache fill), times `run-all` processes from launch to exit, and counts their
operations; correctness checks run after timing. Everything runs on one
CPU, and the times leave out what the hypervisor took from that CPU
meanwhile. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
(medians over rounds) with `--trace 0`, the per-layer metrics of one extra
traced round with `--trace 1`. See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
sys.path[:0] = [str(BENCH), str(SRC)]

import checks  # noqa: E402
import numpy as np  # noqa: E402
import inputs  # noqa: E402

# As many provider workers as the machine has cores (`nproc`).
MAX_IN_FLIGHT = len(os.sched_getaffinity(0))
# The benchmark, the program and the stand-in all run on this one CPU. On a
# shared virtual machine the hypervisor takes time from the guest's CPUs to
# run other guests ("steal"): on the reference machine a median 4 % and up
# to 43 % of a timed process's elapsed time, changing within seconds. With all the work on
# one CPU, the time stolen from it while a process runs is time that process
# was kept waiting by the host, and `wall_s` and `setup_s` leave it out.
BENCH_CPU = max(os.sched_getaffinity(0))
CLK_TCK = os.sysconf("SC_CLK_TCK")
# A short client backoff keeps the retry loop exercised without letting its
# sleeps dominate a run; the stand-in's Retry-After is what a real endpoint says.
BACKOFF_S = 0.05
MIB = 1024 * 1024


@dataclass(frozen=True)
class Workload:
    corpora: tuple[tuple[str, str, int], ...]  # (tag, difficulty scale, blocks)
    profile: str | None  # stand-in profile; None runs `--mock`
    audit_groups: int = 0
    blend: bool = False
    block: str = "full"  # inputs.BLOCKS
    replays: int = 1  # timed runs per set-up; only a warm cache can be replayed


WORKLOADS = {
    "warm-replay": Workload(
        corpora=(("grade", "grade", 4), ("contest", "contest", 4)),
        profile=None,
        blend=True,
        replays=2,
    ),
    "slow-endpoint": Workload(
        corpora=(("shop", "grade", 1),),
        profile="slow",
        audit_groups=inputs.AUDIT_GROUPS,
        block="short",
    ),
    "long-solutions": Workload(
        corpora=(("olymp", "contest", 1),), profile="long", block="short"
    ),
}


@dataclass
class Proc:
    wall_s: float  # less stolen time
    cpu_s: float
    peak_rss_mb: float
    code: int
    stolen_s: float


@dataclass
class Round:
    dir: Path
    setup_s: float  # less stolen time
    stolen_s: float  # during set-up
    timed: list[Proc]
    attempted: int
    failed: int
    endpoint: dict[str, Any] = field(default_factory=dict)
    spans: list[Path] = field(default_factory=list)


def stolen_s() -> float:
    """Seconds the hypervisor has taken from BENCH_CPU since boot: the steal
    column of /proc/stat (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                name, *ticks = line.split()
                if name == f"cpu{BENCH_CPU}":
                    return int(ticks[7]) / CLK_TCK
    except (OSError, ValueError, IndexError):
        pass
    return 0.0


def run_program(cli_args: list[str], log: Path, spans: Path | None = None) -> Proc:
    """Run the CLI in its own process; wall time from launch to exit, rusage of the child."""
    if spans is None:
        cmd = [sys.executable, "-m", "mathsynth.cli", *cli_args]
    else:
        cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans), *cli_args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "ab") as fh:
        stolen = stolen_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        stolen = stolen_s() - stolen
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return Proc(wall - stolen, cpu, usage.ru_maxrss / 1024, code, stolen)


class StandIn:
    """The stand-in endpoint in its own process."""

    def __init__(self, profile: str, log: Path):
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "standin.py"), "--profile", profile],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        line = self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.stop()
            raise RuntimeError(f"stand-in did not start: {line}")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> dict[str, Any]:
        with urllib.request.urlopen(self.url + "/stats", timeout=30) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


# -- one round ---------------------------------------------------------------


def write_inputs(work: Workload, seed: int, rdir: Path, base_url: str | None) -> tuple[Path, dict]:
    corpora = []
    seeds = {}
    for tag, scale, blocks in work.corpora:
        records = inputs.make_corpus(tag, scale, blocks, seed, work.audit_groups, work.block)
        path = rdir / "seeds" / f"{tag}.jsonl"
        inputs.write_jsonl(path, records)
        corpora.append((tag, path))
        seeds[tag] = records
    cfg = inputs.run_config(
        corpora, rdir / "out", MAX_IN_FLIGHT, base_url=base_url, use_scores=True, blend=work.blend
    )
    if base_url is not None:
        cfg["providers"]["backoff_base"] = BACKOFF_S
    cfg_path = rdir / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return cfg_path, seeds


def run_round(name: str, seed: int, rdir: Path, traced: bool) -> tuple[Round, dict]:
    """Set up, then time `replays` run-all processes (one when traced)."""
    work = WORKLOADS[name]
    shutil.rmtree(rdir, ignore_errors=True)
    rdir.mkdir(parents=True)
    log = rdir / "program.log"
    spans = [rdir / "spans-setup.json", rdir / "spans.json"] if traced else [None, None]
    out = rdir / "out"
    ctx: dict[str, Any] = {}
    allowed = (0, 3) if work.audit_groups else (0,)
    timed = []
    standin = None
    try:
        stolen = stolen_s()
        started = time.perf_counter()
        if work.profile is None:
            cfg_path, seeds = write_inputs(work, seed, rdir, None)
            cli_args = ["run-all", "--config", str(cfg_path), "--mock"]
            cold = run_program(cli_args, log, spans[0])
            setup_s = time.perf_counter() - started
            stolen = stolen_s() - stolen
            if cold.code != 0:
                raise RuntimeError(f"cold fill exited {cold.code}; see {log}")
            ctx["cache_before"] = checks.tree_stat(out / "cache")
            ctx["artifacts_before"] = checks.tree_digest(out / "artifacts")
        else:
            standin = StandIn(work.profile, rdir / "standin.log")
            cfg_path, seeds = write_inputs(work, seed, rdir, standin.url + "/v1")
            setup_s = time.perf_counter() - started
            stolen = stolen_s() - stolen
            cli_args = ["run-all", "--config", str(cfg_path)]
        for _ in range(1 if traced else work.replays):
            timed.append(run_program(cli_args, log, spans[1]))
            if timed[-1].code not in allowed:
                raise RuntimeError(f"run-all exited {timed[-1].code}; see {log}")
            if work.profile is None:
                ctx.setdefault("problems", []).extend(replay_problems(out, ctx))
        endpoint = standin.stats() if standin else {}
    finally:
        if standin:
            standin.stop()
    attempted, failed = count_operations(out, [t for t, _, _ in work.corpora])
    ctx["seeds"] = seeds
    spans_used = [p for p in spans if p is not None and p.is_file()]
    n = len(timed)
    rnd = Round(
        rdir, setup_s - stolen, stolen, timed, n * attempted, n * failed, endpoint, spans_used
    )
    return rnd, ctx


def replay_problems(out: Path, ctx: dict) -> list[str]:
    """A warm replay adds and changes nothing under cache/ and rewrites artifacts/
    byte for byte as the cold fill wrote it."""
    return checks.diff_trees(
        ctx["cache_before"], checks.tree_stat(out / "cache"), "cache/"
    ) + checks.diff_trees(
        ctx["artifacts_before"], checks.tree_digest(out / "artifacts"), "artifacts/ vs cold fill"
    )


def count_operations(out: Path, tags: list[str]) -> tuple[int, int]:
    """Per-item operations attempted and failed, from reports/ and the failure files.

    Generation counts seeds with a pair, verification every generated
    question, solving every verified one, scoring every staged item.
    """
    reports = {
        name: json.loads((out / "reports" / f"{name}.json").read_text(encoding="utf-8"))["details"]
        for name in ("generate", "verify", "solve", "score")
    }
    attempted = failed = 0
    for tag in tags:
        art = out / "artifacts" / tag
        for template in checks.TEMPLATES:
            gen = reports["generate"][tag][template]
            ver = reports["verify"][tag][template]
            attempted += gen["generated"] + gen["failed"] + sum(ver.values())
        attempted += sum(reports["solve"][tag].values()) + sum(reports["score"][tag].values())
        from_files = (
            sum(
                1
                for t in checks.TEMPLATES
                for r in checks.read_jsonl(art / "generated" / f"skips_{t}.jsonl")
                if r["kind"] == "failure"
            )
            + len(checks.read_jsonl(art / "verified" / "verify_errors.jsonl"))
            + sum(
                1
                for r in checks.read_jsonl(art / "solutions" / "solutions.jsonl")
                if r["status"] == "failed"
            )
            + len(checks.read_jsonl(art / "scores" / "missing.jsonl"))
        )
        reported = (
            sum(
                reports["generate"][tag][t]["failed"] + reports["verify"][tag][t]["unverified"]
                for t in checks.TEMPLATES
            )
            + reports["solve"][tag]["failed"]
            + reports["score"][tag]["missing"]
        )
        if reported != from_files:
            raise RuntimeError(f"{tag}: reports count {reported} failures, the files {from_files}")
        failed += from_files
    return attempted, failed


# -- correctness ---------------------------------------------------------------


def check_round(name: str, rnd: Round, ctx: dict) -> list[str]:
    work = WORKLOADS[name]
    out = rnd.dir / "out"
    art = out / "artifacts"
    tags = [t for t, _, _ in work.corpora]
    problems = checks.check_curriculum(art, tags, work.blend)
    for tag in tags:
        problems += checks.check_staged(art / tag)
    problems += ctx.get("problems", [])
    if name == "warm-replay":
        from mathsynth.providers import mock_embedding

        for tag, seeds in ctx["seeds"].items():
            vectors = {
                s["id"]: np.asarray(mock_embedding(s["question"], dim=inputs.MOCK_DIM))
                for s in seeds
            }
            pairs = checks.oracle_pairs(seeds, vectors, inputs.TAU, inputs.MAX_PAIRS_PER_QUESTION)
            problems += checks.check_generation(art / tag, seeds, pairs)
    elif name == "slow-endpoint":
        import standin

        ep = rnd.endpoint
        if ep["max_concurrent"] > MAX_IN_FLIGHT:
            problems.append(f"stand-in saw {ep['max_concurrent']} concurrent requests")
        served = {(e["digest"], e["arrival"]) for e in ep["log"] if e["status"] == 200}
        unanswered = [
            e
            for e in ep["log"]
            if e["status"] == 429 and (e["digest"], e["arrival"] + 1) not in served
        ]
        if unanswered:
            problems.append(f"{len(unanswered)} throttled requests were never retried to success")
        tag = tags[0]
        marked = {
            q["id"]
            for t in checks.TEMPLATES
            for q in checks.read_jsonl(art / tag / "generated" / f"{t}.jsonl")
            if standin.AUDIT_MARK in q["question"]
        }
        errors = {
            r["question_id"]
            for r in checks.read_jsonl(art / tag / "verified" / "verify_errors.jsonl")
        }
        if errors != marked or ep["garbled"] != len(marked):
            problems.append(
                f"verify errors {sorted(errors)[:3]} are not the {len(marked)} garbled questions"
            )
        # Both seeds of each audit group are paired: one question per template each.
        expect = 2 * len(checks.TEMPLATES) * work.audit_groups
        if rnd.failed != expect * len(rnd.timed):
            problems.append(f"{rnd.failed} failed operations, expected the {expect} garbled ones")
    elif name == "long-solutions":
        import standin

        seeds = {s["id"]: s for s in ctx["seeds"][tags[0]]}
        problems += checks.check_solutions(
            art / tags[0], seeds, standin.boxed_answer, inputs.LOOP_MARK
        )
    if name != "slow-endpoint" and rnd.failed:
        problems.append(f"{rnd.failed} failed operations")
    return problems


# -- metrics -------------------------------------------------------------------


def tree_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files), len(files)


def end_to_end(rounds: list[Round], tags: list[str]) -> dict[str, dict[str, Any]]:
    last = rounds[-1].dir / "out"
    cache_bytes, cache_files = tree_size(last / "cache")
    staged = sum(
        len(checks.staged_rows(last / "artifacts" / tag / "curriculum")) for tag in tags
    )
    med = statistics.median
    timed = [p for r in rounds for p in r.timed]
    return {
        "wall_s": {"value": med(p.wall_s for p in timed), "unit": "s"},
        "cpu_s": {"value": med(p.cpu_s for p in timed), "unit": "s"},
        "setup_s": {"value": med(r.setup_s for r in rounds), "unit": "s"},
        "peak_rss_mb": {"value": med(p.peak_rss_mb for p in timed), "unit": "MiB"},
        "cache_mb": {"value": cache_bytes / MIB, "unit": "MiB"},
        "cache_files": {"value": cache_files, "unit": "count"},
        "staged_rows": {"value": staged, "unit": "rows"},
    }


def per_layer(rnd: Round) -> dict[str, dict[str, Any]]:
    import tracing

    spans: list[list[Any]] = []
    counters: dict[str, float] = {}
    for offset, path in enumerate(rnd.spans):
        data = json.loads(path.read_text(encoding="utf-8"))
        # Span ids restart in each process; keep them apart.
        base = offset * 10**9
        spans += [
            [sid + base, name, s, e, None if parent is None else parent + base, thread, item]
            for sid, name, s, e, parent, thread, item in data["spans"]
        ]
        for key, value in data["counters"].items():
            merge = max if key == "endpoint.max_concurrent" else lambda a, b: a + b
            counters[key] = merge(counters.get(key, 0), value)
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, s, e, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((s, e))
    totals = {name: [0, 0.0, 0.0] for name in tracing.SPAN_NAMES}
    for sid, name, s, e, _, _, _ in spans:
        covered, reach = 0.0, s
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, e)
            if ce > cs:
                covered += ce - cs
                reach = ce
        t = totals[name]
        t[0] += 1
        t[1] += e - s
        t[2] += e - s - covered
    metrics: dict[str, dict[str, Any]] = {}
    for name, (calls, total, self_s) in totals.items():
        metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        metrics[f"{name}.s"] = {"value": total, "unit": "s"}
        metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    c = counters.get
    capacity = c("providers.map_bounded.capacity_s", 0.0)
    passed = c("solver.check_gates.passed", 0)
    # Without a stand-in (warm-replay) the tracer counted MockTransport instead.
    ep = rnd.endpoint or {
        key.split(".", 1)[1]: value
        for key, value in counters.items()
        if key.startswith("endpoint.")
    }
    extra = {
        "providers.cache_get.hits": (c("providers.cache_get.hits", 0), "count"),
        "providers.cache_get.misses": (c("providers.cache_get.misses", 0), "count"),
        "providers.cache_put.bytes": (c("providers.cache_put.bytes", 0), "B"),
        "providers.transport.cpu_s": (c("providers.transport.cpu_s", 0.0), "s"),
        "providers.retries": (c("providers.retries", 0), "count"),
        "providers.map_bounded.wait_s": (c("providers.map_bounded.wait_s", 0.0), "s"),
        "providers.in_flight_util": (
            c("providers.transport.pooled_s", 0.0) / capacity if capacity else 0.0, "ratio"
        ),
        "solver.check_gates.chars": (c("solver.check_gates.chars", 0), "chars"),
        "solver.attempts_per_accept": (
            totals["solver.check_gates"][0] / passed if passed else 0.0, "attempts/accept"
        ),
        "jsonl.read_records.records": (c("jsonl.read_records.records", 0), "records"),
        "jsonl.write_records.records": (c("jsonl.write_records.records", 0), "records"),
        "jsonl.write_records.bytes": (c("jsonl.write_records.bytes", 0), "B"),
        "endpoint.requests": (ep.get("requests", 0), "count"),
        "endpoint.connections": (ep.get("connections", 0), "count"),
        "endpoint.max_concurrent": (ep.get("max_concurrent", 0), "count"),
        "endpoint.bytes_out": (ep.get("bytes_out", 0), "B"),
        "endpoint.cpu_s": (ep.get("cpu_s", 0.0), "s"),
    }
    for name, (value, unit) in extra.items():
        metrics[name] = {"value": value, "unit": unit}
    return metrics


# -- main ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark mathsynth run-all.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mathsynth" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/mathsynth", file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {BENCH_CPU})  # inherited by every process started below
    work = WORKLOADS[args.workload]
    tags = [t for t, _, _ in work.corpora]
    wdir = OUT / args.workload
    shutil.rmtree(wdir, ignore_errors=True)

    # Whole rounds only: start another while the longest so far still fits.
    # Each round draws its inputs from its own seed, derived from --seed, so a
    # run's medians cover several draws (slow-endpoint's delays depend on them).
    started = time.perf_counter()
    longest = 0.0
    rounds: list[Round] = []
    ctx: dict = {}
    while not rounds or time.perf_counter() - started + longest <= args.seconds:
        if rounds:
            shutil.rmtree(rounds[-1].dir, ignore_errors=True)
        begun = time.perf_counter()
        seed = args.seed * 1000 + len(rounds)
        rnd, ctx = run_round(args.workload, seed, wdir / f"round{len(rounds)}", False)
        longest = max(longest, time.perf_counter() - begun)
        rounds.append(rnd)
        runs = ", ".join(
            f"{p.wall_s:.3f}s wall (+{p.stolen_s:.2f}s stolen) {p.cpu_s:.3f}s cpu"
            for p in rnd.timed
        )
        print(
            f"round {len(rounds)}: setup {rnd.setup_s:.3f}s (+{rnd.stolen_s:.2f}s stolen), "
            f"run-all {runs}",
            flush=True,
        )
    checked = [(rounds[-1], ctx)]
    if args.trace:
        # The inputs of the first round.
        traced, tctx = run_round(args.workload, args.seed * 1000, wdir / "traced", True)
        checked.append((traced, tctx))
    problems = []
    for rnd, rctx in checked:
        problems += check_round(args.workload, rnd, rctx)
    all_rounds = rounds + [r for r, _ in checked[1:]]
    per_run = {(r.attempted / len(r.timed), r.failed / len(r.timed)) for r in all_rounds}
    if len(per_run) != 1:
        problems.append(f"run-all processes attempted different operations: {sorted(per_run)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", flush=True)

    if args.trace:
        untraced = statistics.median(p.wall_s for r in rounds for p in r.timed)
        traced_wall = traced.timed[0].wall_s
        print(
            f"tracing overhead: traced wall_s {traced_wall:.3f} - untraced median "
            f"{untraced:.3f} = {traced_wall - untraced:.3f} s",
            flush=True,
        )
        metrics = per_layer(traced)
    else:
        metrics = end_to_end(rounds, tags)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
