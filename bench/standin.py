"""Stand-in OpenAI-compatible endpoint for the benchmark, run in its own process.

    python3 bench/standin.py --profile slow|long

It serves POST /v1/chat/completions and /v1/embeddings with content from
`MockTransport`'s fabrication under an empty salt (the HTTP transport does not
send the salt), prints "PORT <n>" once it listens on 127.0.0.1, and answers
GET /stats with its counters and request log.

Everything a profile changes is a pure function of the request payload and of
how many times that same payload has arrived, so every run sees the same
delays and faults:

- slow: each request waits a capped Pareto delay keyed on the payload hash;
  the first arrival of a fixed share of payloads is answered 429 with a
  Retry-After header; generated questions whose harder parent is an audit
  seed carry AUDIT_MARK, and every verifier reply for them is garbled.
- long: solver replies are long reasoning traces ending in a boxed answer;
  the first reply for questions made from a LOOP_MARK group loops instead.
  Hybrid questions carry HYBRID_TAIL so a pair's two questions get
  complementary trace lengths.

The server adds no delay of its own: keep-alive (HTTP/1.1), TCP_NODELAY, and
each response goes out in one write.
"""
from __future__ import annotations

import argparse
import bisect
import functools
import hashlib
import json
import random
import resource
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE), str(_HERE.parent / "src")]
from inputs import AUDIT_PREFIX, LOOP_MARK, MOCK_DIM  # noqa: E402
from mathsynth.providers import MockTransport  # noqa: E402

# -- profiles ----------------------------------------------------------------

DELAY_MIN_S = 0.020
DELAY_ALPHA = 2.0
DELAY_CAP_S = 0.200
THROTTLE_SHARE = 0.03
RETRY_AFTER = "1"
AUDIT_MARK = "Report the audited figure."
GARBLED_VERDICT = "The statement could not be assessed; see the attached notes."

HYBRID_TAIL = "Give the final count as a whole number."
TRACE_MIN_TOKENS = 2_000
TRACE_MAX_TOKENS = 32_000
LOOP_PHRASE = "so we check the total again and"

SOLVER_MARKER = "Solve the following math problem."
VERIFIER_MARKER = "Logical Flow"
_PROBLEM_START = "Problem:\n"
_PROBLEM_END = "\n\nThe problem was constructed"

# A 2,000-word pseudo-vocabulary keeps a 32k-token trace far below the
# duplicate n-gram limits, as natural text would be.
_WORDS = tuple(
    a + b + c
    for a in ("ba", "de", "ki", "lo", "mu", "na", "pe", "ri", "so", "tu")
    for b in ("ra", "le", "mi", "no", "pu", "sa", "te", "vi", "wo", "zu")
    for c in (
        "", "n", "s", "r", "l", "t", "k", "m", "d", "x",
        "ng", "st", "rd", "lk", "mp", "nt", "sk", "ft", "ld", "ck",
    )
)


def unit_hash(*parts: str) -> float:
    """A uniform number in [0, 1) from the parts' sha256."""
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def payload_digest(path: str, payload: dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(f"{path}\n{blob}".encode("utf-8")).hexdigest()


def delay_for(digest: str) -> float:
    """Capped Pareto delay: most requests take a few ms, a tail takes up to the cap."""
    u = unit_hash("delay", digest)
    return min(DELAY_CAP_S, DELAY_MIN_S / (1.0 - u) ** (1.0 / DELAY_ALPHA))


def throttled(digest: str) -> bool:
    return unit_hash("throttle", digest) < THROTTLE_SHARE


def solver_parts(prompt: str) -> tuple[str, str]:
    """(question, parents block) of a solver prompt."""
    start = prompt.index(_PROBLEM_START) + len(_PROBLEM_START)
    end = prompt.index(_PROBLEM_END, start)
    return prompt[start:end], prompt[end:]


def trace_tokens(question: str, parents: str) -> int:
    """Uniform between the bounds, antithetic between the hybrid and the
    decomposed question of one pair, so every pair sums to the same length."""
    u = unit_hash("length", parents)
    if HYBRID_TAIL not in question:
        u = 1.0 - u
    return TRACE_MIN_TOKENS + int(u * (TRACE_MAX_TOKENS - TRACE_MIN_TOKENS))


def boxed_answer(question: str) -> str:
    return str(int(unit_hash("answer", question) * 100_000))


class TraceText:
    """One long text of random sentences, built once; replies are slices of it,
    so a 32k-token reply costs the stand-in a slice, not 32k random draws."""

    def __init__(self, tokens: int, seed: str = "trace"):
        rng = random.Random(seed)
        sentences: list[str] = []
        self.ends = [0]  # token count before each sentence
        while self.ends[-1] < tokens:
            n = rng.randrange(6, 14)
            words = rng.choices(_WORDS, k=n)
            words.insert(rng.randrange(1, n), str(rng.randrange(2, 10_000)))
            sentences.append(" ".join(words) + ".")
            self.ends.append(self.ends[-1] + n + 2)
        self.starts = [0]  # character offset of each sentence
        for sentence in sentences:
            self.starts.append(self.starts[-1] + len(sentence) + 1)
        self.text = " ".join(sentences)

    def slice(self, key: str, tokens: int) -> str:
        """About `tokens` tokens of whole sentences from an offset keyed on `key`."""
        last = bisect.bisect_left(self.ends, self.ends[-1] - tokens)
        first = int(unit_hash("offset", key) * last)
        end = bisect.bisect_left(self.ends, self.ends[first] + tokens)
        return self.text[self.starts[first] : self.starts[end] - 1]


@functools.cache
def trace_text() -> TraceText:
    return TraceText(2 * TRACE_MAX_TOKENS)


def solver_reply(prompt: str, arrival: int) -> str:
    """A long trace ending in the boxed answer, or, for the first arrival of a
    question made from a LOOP_MARK group, a looping one."""
    question, parents = solver_parts(prompt)
    tokens = trace_tokens(question, parents)
    if arrival == 1 and LOOP_MARK in parents:
        # A sane first fifth, then one phrase repeated for the rest.
        head = trace_text().slice("loop:" + question, tokens // 5)
        repeats = (tokens - tokens // 5) // len(LOOP_PHRASE.split())
        return head + " " + " ".join([LOOP_PHRASE] * repeats)
    body = trace_text().slice("trace:" + question, tokens)
    return f"{body} The final answer is \\boxed{{{boxed_answer(question)}}}."


# -- server ------------------------------------------------------------------


class StandIn(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, profile: str):
        super().__init__(("127.0.0.1", 0), Handler)

        self.profile = profile
        self.mock = MockTransport(seed=0, dim=MOCK_DIM)
        if profile == "long":
            trace_text()  # built before the port is announced, so in set-up time
        self.lock = threading.Lock()
        self.arrivals: dict[str, int] = {}
        self.active = 0
        self.counters = {
            "requests": 0, "connections": 0, "max_concurrent": 0, "bytes_out": 0, "garbled": 0,
        }
        self.log: list[dict[str, Any]] = []

    def bump(self, name: str, by: int = 1) -> None:
        with self.lock:
            self.counters[name] += by

    def stats(self) -> dict[str, Any]:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        with self.lock:
            return {
                **self.counters,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "log": list(self.log),
            }

    def respond(self, path: str, payload: dict[str, Any]) -> tuple[int, dict[str, Any], float]:
        """(status, body, delay) for one request; records it in the log."""
        digest = payload_digest(path, payload)
        with self.lock:
            arrival = self.arrivals.get(digest, 0) + 1
            self.arrivals[digest] = arrival
        entry: dict[str, Any] = {"digest": digest, "arrival": arrival, "path": path}
        if self.profile == "slow" and arrival == 1 and throttled(digest):
            entry["status"] = 429
            self._record(entry)
            return 429, {"error": {"message": "rate limited", "type": "rate_limit"}}, 0.0
        delay = delay_for(digest) if self.profile == "slow" else 0.0
        if path == "/embeddings":
            body = self.mock._embeddings(payload)
        else:
            body = self.mock._chat(payload, "")
            prompt = "\n".join(m.get("content", "") for m in payload.get("messages", []))
            message = body["choices"][0]["message"]
            if self.profile == "slow" and f"#Problem 1#: {AUDIT_PREFIX}" in prompt:
                message["content"] += " " + AUDIT_MARK
            elif self.profile == "slow" and VERIFIER_MARKER in prompt and AUDIT_MARK in prompt:
                message["content"] = GARBLED_VERDICT
                self.bump("garbled")
            elif self.profile == "long" and "#Scenario Integration#" in prompt:
                message["content"] += " " + HYBRID_TAIL
            elif self.profile == "long" and prompt.startswith(SOLVER_MARKER):
                message["content"] = solver_reply(prompt, arrival)
        entry["status"] = 200
        self._record(entry)
        return 200, body, delay

    def _record(self, entry: dict[str, Any]) -> None:
        with self.lock:
            self.log.append(entry)


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: StandIn

    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _send(self, status: int, body: dict[str, Any], extra: dict[str, str] | None = None) -> None:
        data = json.dumps(body, ensure_ascii=False).encode("utf-8")
        reason = self.responses.get(status, ("",))[0]
        head = [f"HTTP/1.1 {status} {reason}", "Content-Type: application/json",
                f"Content-Length: {len(data)}"]
        head += [f"{k}: {v}" for k, v in (extra or {}).items()]
        blob = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data
        self.wfile.write(blob)
        self.server.bump("bytes_out", len(blob))

    def do_GET(self) -> None:
        if self.path == "/stats":
            self._send(200, self.server.stats())
        else:
            self._send(404, {"error": {"message": f"no route {self.path}"}})

    def do_POST(self) -> None:
        # One handler serves one connection; count those that carried API calls.
        if not getattr(self, "counted", False):
            self.counted = True
            self.server.bump("connections")
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        path = self.path.removeprefix("/v1")
        if path not in ("/chat/completions", "/embeddings"):
            self._send(404, {"error": {"message": f"no route {self.path}"}})
            return
        srv = self.server
        with srv.lock:
            srv.counters["requests"] += 1
            srv.active += 1
            srv.counters["max_concurrent"] = max(srv.counters["max_concurrent"], srv.active)
        try:
            status, body, delay = srv.respond(path, json.loads(raw))
            if delay:
                time.sleep(delay)
        finally:
            # Leave before the reply goes out: once it has, the client may
            # send its next request at once.
            with srv.lock:
                srv.active -= 1
        self._send(status, body, {"Retry-After": RETRY_AFTER} if status == 429 else None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=("slow", "long"), required=True)
    args = parser.parse_args()
    server = StandIn(args.profile)
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
