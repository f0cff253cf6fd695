"""Traced launcher: run the mathsynth CLI with span-recording wrappers patched in.

    python3 bench/tracing.py SPANS.json run-all --config cfg.json [--mock]

The wrappers come from this file; the program's source is not changed. Each
wrapped function is replaced on its module or class and in every mathsynth
module that imported it by name. A span records name, start, end, parent
span, thread and the id of the item being worked on; spans and counters stay
in memory and are written to SPANS.json when the command returns.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mathsynth.cli as cli  # noqa: E402
from mathsynth import corpus, curriculum, jsonl, pairing, prompts, providers  # noqa: E402
from mathsynth import quality, solver, synthesis  # noqa: E402

# Traced functions: (metric name, owner, attribute).
TRACED: list[tuple[str, Any, str]] = [
    ("cli.pair", cli, "cmd_pair"),
    ("cli.generate", cli, "cmd_generate"),
    ("cli.verify", cli, "cmd_verify"),
    ("cli.solve", cli, "cmd_solve"),
    ("cli.score", cli, "cmd_score"),
    ("cli.curriculum", cli, "cmd_curriculum"),
    ("corpus.load_corpus", corpus, "load_corpus"),
    ("pairing.embed_corpus", pairing, "embed_corpus"),
    ("pairing.build_pairs", pairing, "build_pairs"),
    ("pairing.select_generation_pair", pairing, "select_generation_pair"),
    ("pairing.load_pairs", pairing, "load_pairs"),
    ("prompts.render", prompts, "render_generation_prompt"),
    ("prompts.render", prompts, "render_verification_prompt"),
    ("prompts.render", prompts, "render_solution_prompt"),
    ("prompts.render", prompts, "render_scoring_prompt"),
    ("providers.complete", providers.ChatClient, "complete"),
    ("providers.embed", providers.EmbeddingClient, "embed"),
    ("providers.cache_get", providers.ResponseCache, "get"),
    ("providers.cache_put", providers.ResponseCache, "put"),
    ("providers.transport", providers.HttpTransport, "request"),
    ("providers.transport", providers.MockTransport, "request"),
    ("providers.map_bounded", providers, "map_bounded"),
    ("synthesis.synthesize_category", synthesis, "synthesize_category"),
    ("synthesis.parse_generation", synthesis, "parse_generation"),
    ("quality.verify_dataset", quality, "verify_dataset"),
    ("quality.parse_verdict", quality, "parse_verdict"),
    ("solver.solve_dataset", solver, "solve_dataset"),
    ("solver.check_gates", solver, "check_gates"),
    ("curriculum.score_difficulty", curriculum, "score_difficulty"),
    ("curriculum.build", curriculum, "build_pure_curriculum"),
    ("curriculum.build", curriculum, "build_blended_curriculum"),
    ("curriculum.export_sft_stages", curriculum, "export_sft_stages"),
    ("jsonl.read_records", jsonl, "read_records"),
    ("jsonl.write_records", jsonl, "write_records"),
]
SPAN_NAMES = sorted({name for name, _, _ in TRACED})


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int, str | None]] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, by: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + by

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "dispatcher", None)

    def item(self) -> str | None:
        return getattr(self._local, "item", None)

    def run(
        self, name: str, fn: Callable[..., Any], args: tuple, kwargs: dict, span_id: int = 0
    ) -> Any:
        span_id = span_id or next(self._ids)
        parent = self.current()
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), self.item())
            )


TRACER = Tracer()


def _item_id(item: Any) -> str | None:
    for attr in ("id", "question_id"):
        value = getattr(item, attr, None)
        if isinstance(value, str):
            return value
    return None


def _wrap(name: str, original: Callable[..., Any]) -> Callable[..., Any]:
    special = _SPECIAL.get(name)

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if special is not None:
            return special(original, args, kwargs)
        return TRACER.run(name, original, args, kwargs)

    return wrapper


# -- wrappers that also count ------------------------------------------------


def _read_records(original, args, kwargs):
    # Read eagerly inside the span so its duration is the read alone, not the
    # caller's work between records; every caller iterates the result once.
    records = TRACER.run("jsonl.read_records", lambda: list(original(*args, **kwargs)), (), {})
    TRACER.count("jsonl.read_records.records", len(records))
    return iter(records)


def _write_records(original, args, kwargs):
    written = TRACER.run("jsonl.write_records", original, args, kwargs)
    TRACER.count("jsonl.write_records.records", written)
    TRACER.count("jsonl.write_records.bytes", os.path.getsize(args[0]))
    return written


def _cache_get(original, args, kwargs):
    body = TRACER.run("providers.cache_get", original, args, kwargs)
    TRACER.count("providers.cache_get.misses" if body is None else "providers.cache_get.hits")
    return body


def _cache_put(original, args, kwargs):
    TRACER.run("providers.cache_put", original, args, kwargs)
    cache, key = args[0], args[1]
    TRACER.count("providers.cache_put.bytes", cache._entry_path(key).stat().st_size)


def _transport(original, args, kwargs):
    cpu = time.thread_time()
    start = time.perf_counter()
    body = None
    try:
        body = TRACER.run("providers.transport", original, args, kwargs)
        return body
    finally:
        cpu = time.thread_time() - cpu
        TRACER.count("providers.transport.cpu_s", cpu)
        if getattr(TRACER._local, "dispatcher", None) is not None:
            TRACER.count("providers.transport.pooled_s", time.perf_counter() - start)
        transport = args[0]
        if isinstance(transport, providers.MockTransport):
            # With --mock the in-process MockTransport is the endpoint.
            TRACER.count("endpoint.requests")
            TRACER.count("endpoint.cpu_s", cpu)
            if body is not None:
                TRACER.count("endpoint.bytes_out", len(json.dumps(body, ensure_ascii=False)))
            with TRACER._lock:
                TRACER.counters["endpoint.max_concurrent"] = max(
                    TRACER.counters.get("endpoint.max_concurrent", 0), transport.max_concurrent
                )


def _check_gates(original, args, kwargs):
    report = TRACER.run("solver.check_gates", original, args, kwargs)
    TRACER.count("solver.check_gates.chars", len(args[0]))
    TRACER.count("solver.check_gates.passed", 1 if report.passed else 0)
    return report


def _map_bounded(original, args, kwargs):
    fn, items, max_in_flight = args
    entered = time.perf_counter()
    span_id = next(TRACER._ids)

    def run_item(item):
        TRACER.count("providers.map_bounded.wait_s", time.perf_counter() - entered)
        local = TRACER._local
        saved = getattr(local, "dispatcher", None), getattr(local, "item", None)
        local.dispatcher, local.item = span_id, _item_id(item)
        try:
            return fn(item)
        finally:
            local.dispatcher, local.item = saved

    try:
        return TRACER.run(
            "providers.map_bounded", original, (run_item, items, max_in_flight), {}, span_id
        )
    finally:
        elapsed = time.perf_counter() - entered
        TRACER.count("providers.map_bounded.capacity_s", max_in_flight * elapsed)


def _bump(original, args, kwargs):
    if args[1] == "retries":
        TRACER.count("providers.retries", args[2] if len(args) > 2 else kwargs.get("by", 1))
    return original(*args, **kwargs)


_SPECIAL: dict[str, Callable[..., Any]] = {
    "jsonl.read_records": _read_records,
    "jsonl.write_records": _write_records,
    "providers.cache_get": _cache_get,
    "providers.cache_put": _cache_put,
    "providers.transport": _transport,
    "solver.check_gates": _check_gates,
    "providers.map_bounded": _map_bounded,
    "providers.retries": _bump,
}


def install() -> None:
    """Patch every traced function on its owner and wherever it was imported by name."""
    targets = TRACED + [("providers.retries", providers.ProviderStats, "bump")]
    modules = [m for n, m in sys.modules.items() if n.startswith("mathsynth") and m]
    for name, owner, attr in targets:
        original = getattr(owner, attr)
        wrapper = _wrap(name, original)
        setattr(owner, attr, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    out, cli_args = Path(argv[0]), argv[1:]
    install()
    try:
        return cli.main(cli_args)
    finally:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps({"spans": TRACER.spans, "counters": TRACER.counters}),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
