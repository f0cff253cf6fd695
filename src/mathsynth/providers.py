"""Model providers: chat and embedding clients with caching, retry, and a mock transport.

Every provider call goes through a Transport (`request(path, payload, salt)`).
HttpTransport talks to an OpenAI-compatible endpoint; MockTransport fabricates
deterministic responses offline. Responses are cached on disk keyed by the
full request payload plus a cache salt, so reruns replay identical content
without touching the transport.

The salt exists so a retry of a rejected generation can carry the same wire
payload but a distinct cache identity; HTTP transports ignore it.

A transport also declares `waits`: true when its calls spend their time
waiting (on a socket, a sleep) rather than running Python, so that calls on
worker threads overlap; false when a call is pure in-process work, which a
worker thread would only slow down by handing the interpreter lock back and
forth. The clients send calls to worker threads only when it is true. The
call that fetches a reply also caches it, on whichever thread makes it, so a
reply already paid for is kept however its caller ends.

A client carries its ProviderConfig, and `cfg.models` (ModelRoles) is the
one place that names the model each pipeline role requests: the stage
functions read their role's model from the client they are given.
"""
from __future__ import annotations

import base64
import functools
import hashlib
import json
import math
import os
import select
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Generator, Iterable, Iterator, Sequence, TypeVar
from urllib.parse import SplitResult, unquote, urlsplit

import numpy as np

from .pairing import EmbeddingVector

T = TypeVar("T")
R = TypeVar("R")

RETRYABLE_STATUSES = frozenset({408, 429}) | frozenset(range(500, 600))

# The longest timeout or backoff sleep, in seconds, that this platform's clocks
# hold. `time.sleep(threading.TIMEOUT_MAX)` itself fails (its deadline is the
# monotonic clock plus the sleep), so half of it leaves room for any uptime.
LONGEST_WAIT = threading.TIMEOUT_MAX / 2


class ProviderError(RuntimeError):
    """A provider call failed for good after any retries."""


class TransportError(RuntimeError):
    """A single transport attempt failed; may be retryable."""

    def __init__(self, message: str, *, retryable: bool, status: int | None = None):
        super().__init__(message)
        self.retryable = retryable
        self.status = status


@dataclass(frozen=True)
class ModelRoles:
    """The model name each pipeline role requests."""

    generator: str = "gpt-4o"
    verifier: str = "gpt-4o"
    solver: str = "qwq-32b"
    scorer: str = "gpt-4o"
    embedder: str = "bge-m3"


@dataclass(frozen=True)
class ProviderConfig:
    """The `providers` config section: which transport, how to reach it, how hard to push."""

    mock: bool = False
    mock_dim: int = 64
    base_url: str = "http://localhost:8000/v1"
    api_key_env: str = "MATHSYNTH_API_KEY"
    timeout: float = 120.0
    max_retries: int = 3
    backoff_base: float = 0.5
    embed_batch_size: int = 64
    max_in_flight: int = 8
    models: ModelRoles = ModelRoles()

    def __post_init__(self) -> None:
        for name in ("mock_dim", "max_retries", "embed_batch_size", "max_in_flight"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.timeout > LONGEST_WAIT:
            raise ValueError(f"timeout must be at most {LONGEST_WAIT}, got {self.timeout}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be non-negative, got {self.backoff_base}")
        # The longest sleep, backoff_base * 2**(max_retries - 2), compared by
        # ldexp so that a huge max_retries cannot overflow.
        retries = self.max_retries
        if retries > 1 and self.backoff_base > math.ldexp(LONGEST_WAIT, 2 - retries):
            raise ValueError(
                f"backoff_base * 2**(max_retries - 2) must be at most {LONGEST_WAIT}, "
                f"got {self.backoff_base} with max_retries {retries}"
            )
        try:
            url = urlsplit(self.base_url)
            valid = url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
        except ValueError:  # a port that is not a number in 0-65535
            valid = False
        if not valid:
            raise ValueError(
                f"base_url must be an http:// or https:// URL with a host, got {self.base_url!r}"
            )


# Built once: `json.dumps` with any non-default option builds an encoder per call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode
_encode_entry = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def cache_key(path: str, payload: dict[str, Any], salt: str) -> str:
    blob = f"{path}\n{salt}\n{canonical_json(payload)}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ChatRequest:
    """One chat completion request of a single user prompt; hashable and convertible
    to the wire payload."""

    model: str
    prompt: str
    temperature: float = 0.7
    max_tokens: int = 4096
    top_p: float | None = None
    top_k: int | None = None
    min_p: float | None = None
    cache_salt: str = ""

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("empty prompt")

    def payload(self) -> dict[str, Any]:
        body: dict[str, Any] = {
            "model": self.model,
            "messages": [{"role": "user", "content": self.prompt}],
            "temperature": self.temperature,
            "max_tokens": self.max_tokens,
        }
        if self.top_p is not None:
            body["top_p"] = self.top_p
        if self.top_k is not None:
            body["top_k"] = self.top_k
        if self.min_p is not None:
            body["min_p"] = self.min_p
        return body

    def key(self) -> str:
        return cache_key("/chat/completions", self.payload(), self.cache_salt)


class ResponseCache:
    """Disk cache of raw response bodies: one append-only log under `root`.

    Each entry is one line, `<64-hex key>\t<json {endpoint, salt, response}>\n`.
    Chat entries hold the provider's response body; embedding entries have
    salt "f64le" and hold `{"f64le": <base64 of little-endian float64s>}`
    (see EmbeddingClient).
    Opening the cache scans the log once into an in-memory key -> (offset,
    length) index; `get` reads one body back with a single `pread`. A later
    entry for a key replaces an earlier one. A final line without its newline
    (a write cut short) is ignored on load and cut off before the next append.
    The log is opened for appending only on the first `put`, so a warm replay
    never writes to it. Safe for concurrent use from worker threads in one
    process; one process at a time may write.
    """

    LOG_NAME = "log"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.path = self.root / self.LOG_NAME
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int]] = {}
        self._size = 0  # bytes of whole lines; a torn tail lies beyond
        self._torn = False
        self._read_fd: int | None = None
        self._append_fd: int | None = None
        self._load()

    def _load(self) -> None:
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith(b"\n"):
                    self._torn = True
                    break
                if len(line) < 66 or line[64:65] != b"\t" or not line[:64].isascii():
                    raise ValueError(f"{self.path}: line {lineno}: malformed cache entry")
                self._index[line[:64].decode("ascii")] = (self._size + 65, len(line) - 66)
                self._size += len(line)

    def _entry_path(self, key: str) -> Path:
        """The file holding the entry for `key`: the log, for every key.

        bench/tracing.py sizes each put by this file.
        """
        return self.path

    def get(self, key: str) -> dict[str, Any] | None:
        """The response cached under `key`, or None; a body that is not a JSON
        object with a `response` key is a ValueError naming the log and the key."""
        entry = self._index.get(key)
        if entry is None:
            return None
        if self._read_fd is None:
            with self._lock:
                if self._read_fd is None:
                    self._read_fd = os.open(self.path, os.O_RDONLY)
        offset, length = entry
        try:
            return json.loads(os.pread(self._read_fd, length, offset))["response"]
        except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON
            raise ValueError(f"{self.path}: entry {key}: malformed body: {exc!r}") from None

    def put(self, key: str, endpoint: str, salt: str, response: dict[str, Any]) -> None:
        if len(key) != 64:
            raise ValueError(f"cache key must be 64 hex digits, got {key!r}")
        record = {"endpoint": endpoint, "salt": salt, "response": response}
        body = _encode_entry(record).encode("utf-8")
        line = key.encode("ascii") + b"\t" + body + b"\n"
        with self._lock:
            if self._append_fd is None:
                self.root.mkdir(parents=True, exist_ok=True)
                self._append_fd = os.open(
                    self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
                )
            if self._torn:
                os.ftruncate(self._append_fd, self._size)
                self._torn = False
            written = os.write(self._append_fd, line)
            if written != len(line):
                self._torn = True
                raise OSError(f"{self.path}: short write, {written} of {len(line)} bytes")
            self._index[key] = (self._size + len(key) + 1, len(body))
            self._size += len(line)

    def close(self) -> None:
        """Close the log's descriptors; a later get or put opens them again."""
        with self._lock:
            for fd in (self._read_fd, self._append_fd):
                if fd is not None:
                    os.close(fd)
            self._read_fd = self._append_fd = None


class HttpTransport:
    """OpenAI-compatible HTTP transport on the standard library's `http.client`.

    The cache salt is not sent on the wire. Kept-alive connections to the
    host of `base_url`, whose path prefix (say `/v1`) starts every request
    path, wait in one idle list: a request takes one, or opens one if none
    is idle, and puts it back when done, so there are never more
    connections than requests in flight. A connection the server closed
    while it sat idle is reopened before it is used, without failing an
    attempt; a failed request closes its connection, and the next request
    on it reconnects.

    `http_proxy`, `https_proxy` and `no_proxy` are read once, here: an HTTP
    request goes to the proxy in absolute form, an HTTPS one through a
    CONNECT tunnel. The TLS context is built on the first HTTPS connection
    and trusts `REQUESTS_CA_BUNDLE`, else `CURL_CA_BUNDLE`, else the system
    store. `.netrc` is not read.
    """

    waits = True  # on the network

    def __init__(self, cfg: ProviderConfig):
        self.cfg = cfg
        url = urlsplit(cfg.base_url)
        self._https = url.scheme == "https"
        self._host = url.hostname
        self._port = url.port or (443 if self._https else 80)
        netloc = url.netloc.rpartition("@")[2]
        self._headers = {"Content-Type": "application/json", "User-Agent": "mathsynth"}
        key = os.environ.get(cfg.api_key_env, "")
        if key:
            self._headers["Authorization"] = f"Bearer {key}"
        self._proxy = _env_proxy(url.scheme, netloc)
        self._proxy_headers: dict[str, str] = {}
        if self._proxy is not None and self._proxy.username:
            user = f"{unquote(self._proxy.username)}:{unquote(self._proxy.password or '')}"
            credentials = base64.b64encode(user.encode("utf-8")).decode("ascii")
            self._proxy_headers["Proxy-Authorization"] = f"Basic {credentials}"
        self._prefix = url.path.rstrip("/")
        if self._proxy is not None and not self._https:
            self._prefix = f"http://{netloc}{self._prefix}"
            self._headers.update(self._proxy_headers)
        self._ssl_context: Any = None
        self._lock = threading.Lock()
        self._idle: list[Any] = []

    def _open(self) -> Any:
        import http.client

        host, port = self._host, self._port
        if self._proxy is not None:
            host, port = self._proxy.hostname, self._proxy.port or 80
        if not self._https:
            return http.client.HTTPConnection(host, port, timeout=self.cfg.timeout)
        with self._lock:
            if self._ssl_context is None:
                import ssl

                cafile = (
                    os.environ.get("REQUESTS_CA_BUNDLE") or os.environ.get("CURL_CA_BUNDLE") or None
                )
                self._ssl_context = ssl.create_default_context(cafile=cafile)
        conn = http.client.HTTPSConnection(
            host, port, timeout=self.cfg.timeout, context=self._ssl_context
        )
        if self._proxy is not None:
            conn.set_tunnel(self._host, self._port, headers=self._proxy_headers)
        return conn

    def _connection(self) -> Any:
        """An idle connection, reopened first if the server has closed it, or a new one."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            return self._open()
        if conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            # An idle kept-alive socket that reads as ready holds the server's
            # close (or stray bytes): either way it cannot carry a request.
            conn.close()  # the request connects again
        return conn

    def request(self, path: str, payload: dict[str, Any], salt: str = "") -> dict[str, Any]:
        import http.client

        url = self.cfg.base_url.rstrip("/") + path
        body = json.dumps(payload).encode("utf-8")
        conn = self._connection()
        try:
            conn.request("POST", self._prefix + path, body, self._headers)
            resp = conn.getresponse()
            status, data = resp.status, resp.read()
        except BaseException as exc:
            conn.close()  # its next request connects again
            if not isinstance(exc, (OSError, http.client.HTTPException)):
                raise
            raise TransportError(f"request to {url} failed: {exc!r}", retryable=True) from exc
        finally:
            with self._lock:
                self._idle.append(conn)
        if status != 200:
            raise TransportError(
                f"{url} returned {status}: {data[:200].decode('utf-8', 'replace')}",
                retryable=status in RETRYABLE_STATUSES,
                status=status,
            )
        try:
            return json.loads(data)
        except ValueError as exc:
            raise TransportError(f"{url} returned non-JSON body", retryable=True) from exc

    def close(self) -> None:
        """Close every idle connection; a later request reconnects."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()


def _env_proxy(scheme: str, netloc: str) -> SplitResult | None:
    """The split URL of the proxy the environment names for `scheme://netloc`, or None."""
    if not any(name.lower().endswith("_proxy") for name in os.environ):
        return None  # spares importing urllib.request
    import urllib.request

    proxy = urllib.request.getproxies().get(scheme)
    if not proxy or urllib.request.proxy_bypass(netloc):
        return None
    url = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
    if url.scheme != "http" or not url.hostname:
        raise ValueError(f"{scheme}_proxy must be an http:// proxy URL, got {proxy!r}")
    return url


def mock_embedding(text: str, dim: int = 64, seed: int = 0) -> list[float]:
    """Deterministic unit vector for a text; texts sharing a 24-char prefix are near-parallel.

    The vector is dominated by a direction keyed on the prefix with a small
    full-text perturbation, so reworded variants of one topic land above any
    realistic pairing threshold while unrelated texts stay near orthogonal.
    """

    def unit(tag: str) -> np.ndarray:
        digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
        v = rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    vec = 0.97 * unit("prefix:" + text[:24]) + 0.03 * unit("full:" + text)
    vec = vec / np.linalg.norm(vec)
    return [float(x) for x in vec]


class MockTransport:
    """Offline transport producing deterministic, well-formed responses.

    Content is a pure function of (payload, salt, seed): the prompt text is
    sniffed to decide whether a question, verdict, solution, difficulty score
    or embedding batch is expected, and all variable numbers are derived from
    a hash of the request. Instrumentation counters support concurrency and
    cache tests.

    `script` maps a substring of the prompt to a canned reply: a string, an
    exception to raise, a callable `(payload, salt) -> str | None` (None: the usual
    reply), or a list of those consumed per call (last repeats). First match wins.

    Its calls wait only when `latency` is positive: each then sleeps that long,
    standing in for an endpoint's delay.
    """

    def __init__(
        self,
        seed: int = 0,
        dim: int = 64,
        latency: float = 0.0,
        script: dict[str, Any] | None = None,
    ):
        self.seed = seed
        self.dim = dim
        self.latency = latency
        self.script = dict(script or {})
        self.calls = 0
        self.max_concurrent = 0
        self._active = 0
        self._lock = threading.Lock()

    @property
    def waits(self) -> bool:
        return self.latency > 0

    def request(self, path: str, payload: dict[str, Any], salt: str = "") -> dict[str, Any]:
        with self._lock:
            self.calls += 1
            self._active += 1
            self.max_concurrent = max(self.max_concurrent, self._active)
        try:
            if self.latency:
                time.sleep(self.latency)
            if path == "/embeddings":
                return self._embeddings(payload)
            if path == "/chat/completions":
                return self._chat(payload, salt)
            raise TransportError(f"mock has no endpoint {path}", retryable=False, status=404)
        finally:
            with self._lock:
                self._active -= 1

    # -- response fabrication ------------------------------------------------

    def _embeddings(self, payload: dict[str, Any]) -> dict[str, Any]:
        texts = payload.get("input", [])
        data = [
            {
                "object": "embedding",
                "index": i,
                "embedding": mock_embedding(text, dim=self.dim, seed=self.seed),
            }
            for i, text in enumerate(texts)
        ]
        return {"object": "list", "model": payload.get("model", "mock-embed"), "data": data}

    def _chat(self, payload: dict[str, Any], salt: str) -> dict[str, Any]:
        text = "\n".join(m.get("content", "") for m in payload.get("messages", []))
        content = self._scripted(text, payload, salt)
        entropy = cache_key(str(self.seed), payload, salt)  # the seed stands in for the path
        if content is None:
            content = self._fabricate(text, entropy)
        return {
            "id": "mock-" + entropy[:12],
            "object": "chat.completion",
            "model": payload.get("model", "mock-chat"),
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": content},
                    "finish_reason": "stop",
                }
            ],
        }

    def _scripted(self, text: str, payload: dict[str, Any], salt: str) -> str | None:
        for marker, reply in self.script.items():
            if marker not in text:
                continue
            if isinstance(reply, list):
                with self._lock:
                    reply = reply.pop(0) if len(reply) > 1 else reply[0]
            if isinstance(reply, Exception):
                raise reply
            if callable(reply):
                return reply(payload, salt)
            return reply
        return None

    def _fabricate(self, prompt: str, entropy: str) -> str:
        nums = [2 + int(entropy[i : i + 2], 16) % 97 for i in range(0, 12, 2)]
        if "#Scenario Integration#" in prompt:
            return (
                "#Core Elements#:\n"
                "- counts, rates, and a shared total are preserved from both settings\n\n"
                "#Scenario Integration#:\n"
                "- one setting supplies the objects, the other supplies the schedule\n\n"
                "#New Problem#:\n"
                f"A depot receives {nums[0]} crates every morning and {nums[1]} crates "
                f"every evening for {nums[2]} consecutive days. Each crate holds "
                f"{nums[3]} parts, and inspectors discard {nums[4]} damaged parts in "
                "total. How many usable parts remain at the end of the last day?"
            )
        if "#Simplification Strategy#" in prompt:
            return (
                "#Core Elements#:\n"
                "- a count of crates and a per-crate content drive the total\n\n"
                "#Simplification Strategy#:\n"
                "- keep a single delivery and drop the staged schedule\n\n"
                "#New Problem#:\n"
                f"A depot receives {nums[0]} crates, and each crate holds {nums[3]} "
                f"parts. After inspectors discard {nums[4]} damaged parts, how many "
                "parts remain?"
            )
        if "logical flow" in prompt.lower():
            return (
                "Clarity: PASS\n"
                "Completeness: PASS\n"
                "Formatting: PASS\n"
                "Relevance: PASS\n"
                "Solvability: PASS\n"
                "Logical Flow: PASS\n"
                "Overall: PASS"
            )
        if "/10" in prompt:
            score = 1 + int(entropy[12:16], 16) % 10
            return f"Difficulty: {score}/10"
        total = nums[0] * nums[3] + nums[1]
        kept = max(total - nums[4], 1)
        return (
            "First count the deliveries, then apply the per-crate contents, and "
            f"finally remove the discarded parts. The running total reaches {total} "
            f"before inspection and {kept} afterwards. The final count is "
            f"\\boxed{{{kept}}}."
        )


class _Client:
    """A transport with its config, an optional response cache and call counters."""

    def __init__(
        self,
        transport: Any,
        cfg: ProviderConfig | None = None,
        cache: ResponseCache | None = None,
    ):
        self.transport = transport
        self.cfg = cfg or ProviderConfig()
        self.cache = cache
        self.stats = ProviderStats()

    def _run(self, tasks: Sequence[_Task[R]]) -> Iterator[R]:
        """`_fan_out` the tasks: their transport calls go to at most `cfg.max_in_flight`
        worker threads when the transport `waits`, else the calling thread makes them."""
        return _fan_out(tasks, self.cfg.max_in_flight if self.transport.waits else 1)


class ChatClient(_Client):
    """Cached, retrying chat completion client over any transport."""

    def complete(self, request: ChatRequest) -> str:
        """The reply text; a malformed cached entry raises ProviderError naming its key."""
        return _run_here(self._ask(request))

    def complete_each(
        self,
        items: Sequence[T],
        request: Callable[[T, int], ChatRequest],
        accept: Callable[[T, int, str | ProviderError], tuple[bool, R]],
        attempts: int,
    ) -> Iterator[R]:
        """Per item, in input order: send `request(item, n)` for n = 1..attempts and pass
        the reply text, or the ProviderError raised, to `accept(item, n, reply)`, which
        returns (done, result); yield the first done result, else the last. Any other
        exception propagates.

        An item's result is yielded as soon as it and every earlier item's are
        ready, so a caller that writes each result as it comes and drops it holds
        one reply at a time (plus a bounded few ready ahead of a slower earlier
        item); a caller that needs them all takes `list(...)`. The work runs as
        the iterator is consumed. `request`, the cache reads and `accept` run on
        the calling thread; only a missed attempt's call (`_ask`: its transport
        request with its retries, then the cache write) goes to a worker, at
        most `cfg.max_in_flight` at a time (`_fan_out`), and only when the
        transport `waits`. So neither a warm replay nor an in-process transport
        starts a thread."""

        def attempts_of(item: T) -> _Task[R]:
            for n in range(1, attempts + 1):
                try:
                    reply: str | ProviderError = yield from self._ask(request(item, n))
                except ProviderError as exc:
                    reply = exc
                done, result = accept(item, n, reply)
                if done or n == attempts:
                    return result
                del reply, result  # a rejected reply is not held through the next attempt

        return self._run([attempts_of(item) for item in items])

    def _ask(self, request: ChatRequest) -> _Task[str]:
        """A task (see `_fan_out`) returning the reply text: from the cache, else from
        one call that makes the transport request, with its retries, and caches
        a well-formed body before it returns the text."""
        key = request.key()
        self.stats.bump("requests")
        if self.cache is not None:
            try:
                body = self.cache.get(key)
                if body is not None:
                    self.stats.bump("cache_hits")
                    return _extract_content(body, key)
            except (ValueError, TransportError) as exc:
                raise ProviderError(f"malformed chat cache entry {key}: {exc}") from exc
        payload = request.payload()

        def attempt_once() -> str:
            body = self.transport.request("/chat/completions", payload, request.cache_salt)
            content = _extract_content(body, key)
            if self.cache is not None:
                self.cache.put(key, "/chat/completions", request.cache_salt, body)
            return content

        failure = f"chat completion failed after {self.cfg.max_retries} attempts"
        return (yield functools.partial(_with_retries, attempt_once, self.cfg, self.stats, failure))


def _with_retries(
    call: Callable[[], R], cfg: ProviderConfig, stats: ProviderStats, failure: str
) -> R:
    """`call()`, tried at most `cfg.max_retries` times.

    A retryable TransportError sleeps `backoff_base * 2**(attempt - 1)` and
    tries again; a non-retryable one, or the last, becomes a ProviderError
    reading `failure: <error>`. Any other exception propagates untouched.
    """
    for attempt in range(1, cfg.max_retries + 1):
        stats.bump("transport_calls")
        try:
            return call()
        except TransportError as exc:
            if not exc.retryable or attempt == cfg.max_retries:
                raise ProviderError(f"{failure}: {exc}") from exc
            stats.bump("retries")
            time.sleep(math.ldexp(cfg.backoff_base, attempt - 1))  # 2**1024 is no float


def _extract_content(body: dict[str, Any], key: str) -> str:
    try:
        content = body["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(
            f"malformed chat response for {key[:12]}: {exc!r}", retryable=True
        ) from exc
    if not isinstance(content, str) or not content.strip():
        raise TransportError(f"empty chat content for {key[:12]}", retryable=True)
    return content


class EmbeddingClient(_Client):
    """Batched client for the `cfg.models.embedder` model; one cache entry per text.

    `embed` reads the cache on the calling thread and sends the texts it
    misses in batches of `cfg.embed_batch_size`, one transport call (with its
    retries) per batch, on the same loop as `ChatClient.complete_each`: at
    most `cfg.max_in_flight` batches in flight when the transport `waits`.
    A batch's call caches its vectors, in batch order, once the whole batch
    has parsed.
    An entry's response is `{"f64le": <base64 of the vector's little-endian
    float64 bytes>}`, an exact round trip at under half the size of JSON
    float text. The encoding is the entry's salt, so it is part of the key:
    entries written in another form (earlier versions stored a JSON float
    list under salt "") are misses. Their texts are embedded once more and
    the old lines stay in the log as dead bytes; deleting the cache
    directory reclaims them. A malformed entry raises ProviderError naming
    its key.
    """

    ENCODING = "f64le"

    def _text_key(self, text: str) -> str:
        return cache_key(
            "/embeddings", {"model": self.cfg.models.embedder, "input": [text]}, self.ENCODING
        )

    def embed(self, texts: Sequence[str]) -> list[EmbeddingVector]:
        if not texts:
            raise ProviderError("embed() called with an empty text list")
        out: list[EmbeddingVector | None] = [None] * len(texts)
        keys = [self._text_key(text) for text in texts]
        pending: list[int] = []
        for i, key in enumerate(keys):
            self.stats.bump("requests")
            if self.cache is not None:
                vector = _cached_vector(self.cache, key)
                if vector is not None:
                    self.stats.bump("cache_hits")
                    out[i] = vector
                    continue
            pending.append(i)
        size = self.cfg.embed_batch_size
        batches = [pending[start : start + size] for start in range(0, len(pending), size)]
        fetched = self._run([self._embed_batch(batch, texts, keys) for batch in batches])
        for batch, vectors in zip(batches, fetched, strict=True):  # runs `fetched` to its end
            for i, vector in zip(batch, vectors):
                out[i] = vector
        vectors = [v for v in out if v is not None]
        for i, vector in enumerate(vectors):
            if vector.dim != vectors[0].dim:
                raise ProviderError(
                    f"embedding dimension mismatch: entry {keys[i]} has {vector.dim}, "
                    f"entry {keys[0]} has {vectors[0].dim}"
                )
        return vectors

    def _embed_batch(
        self, batch: list[int], texts: Sequence[str], keys: list[str]
    ) -> _Task[list[EmbeddingVector]]:
        """A task (see `_fan_out`) returning the vectors of `texts[i]` for i in `batch`
        from one call that makes the transport request, with its retries, and
        caches each vector, in batch order, once the whole batch has parsed."""
        payload = {"model": self.cfg.models.embedder, "input": [texts[i] for i in batch]}

        def attempt_once() -> list[EmbeddingVector]:
            body = self.transport.request("/embeddings", payload, "")
            try:
                data = sorted(body["data"], key=lambda d: d["index"])
                if len(data) != len(batch):
                    raise TransportError(
                        f"embedding count mismatch: sent {len(batch)}, got {len(data)}",
                        retryable=True,
                    )
                vectors = [EmbeddingVector(d["embedding"]) for d in data]
            except (KeyError, TypeError, ValueError) as exc:  # a bad shape or vector: not retried
                raise ProviderError(f"malformed embedding response: {exc!r}") from exc
            if self.cache is not None:
                for i, vector in zip(batch, vectors):
                    self.cache.put(keys[i], "/embeddings", self.ENCODING, _encode_vector(vector))
            return vectors

        failure = "embedding request failed"
        return (yield functools.partial(_with_retries, attempt_once, self.cfg, self.stats, failure))


def _encode_vector(vector: EmbeddingVector) -> dict[str, str]:
    raw = vector.values.astype("<f8", copy=False).tobytes()
    return {EmbeddingClient.ENCODING: base64.b64encode(raw).decode("ascii")}


def _cached_vector(cache: ResponseCache, key: str) -> EmbeddingVector | None:
    """The vector cached under `key`, or None; a malformed entry is an error naming its key."""
    try:
        body = cache.get(key)
        if body is None:
            return None
        raw = base64.b64decode(body[EmbeddingClient.ENCODING], validate=True)
        return EmbeddingVector(np.frombuffer(raw, dtype="<f8"))
    except (KeyError, TypeError, ValueError) as exc:  # bad body, base64, length or vector
        raise ProviderError(f"malformed embedding cache entry {key}: {exc}") from exc


class ProviderStats:
    """Thread-safe call counters shared by the clients."""

    FIELDS = ("requests", "cache_hits", "transport_calls", "retries")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = {name: 0 for name in self.FIELDS}

    def bump(self, name: str, by: int = 1) -> None:
        with self._lock:
            self._counts[name] += by

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)


# Worker threads' names start with this, so a nested fan-out can tell it runs on one.
WORKER_THREAD_PREFIX = "mathsynth-worker"

# A fan-out starts a task only while fewer than this many times `max_in_flight`
# tasks are started and not yet yielded, which bounds the results it holds
# ahead of a slower earlier task.
_LOOK_AHEAD = 4

# A task runs on the calling thread and yields calls: see _fan_out.
_Task = Generator[Callable[[], Any], Any, R]


def _run_here(task: _Task[R]) -> R:
    """Run a task to its end, making each call on the calling thread."""
    value, error = None, None
    while True:
        try:
            call = task.send(value) if error is None else task.throw(error)
        except StopIteration as stop:
            return stop.value
        value = error = None  # the task has them: hold no reply through the next call
        try:
            value = call()
        except Exception as exc:
            error = exc


def _fan_out(tasks: Sequence[_Task[R]], max_in_flight: int) -> Iterator[R]:
    """Run every task on the calling thread; yield what each returns, in input order,
    as soon as it and every task before it have returned.

    A task is a generator. Each call it yields goes to a worker thread, at
    most `max_in_flight` at a time; as it finishes, its result goes back into
    the task (a call's exception is thrown into it), and then new tasks fill
    the free slots. A task starts only while fewer than `_LOOK_AHEAD *
    max_in_flight` tasks are started and not yet yielded, so a slow task holds
    back a bounded number of results ready after it. The calling thread makes
    every call itself when there is at most one task, which has nothing to
    overlap with, and with `max_in_flight` 1, as the clients ask when their
    transport does not wait (`_Client._run`). Worker threads start at the
    first call and stop before the iterator ends or is closed. The first
    exception a task raises propagates once the calls in flight have
    finished; tasks not yet started are dropped, and so are the results not
    yet yielded. Closing the iterator early waits for the calls in flight the
    same way; a call that caches what it fetched (the clients' calls do) so
    keeps a reply already paid for. Run from a worker thread this raises
    RuntimeError: it would run threads beyond the bound.
    """
    if threading.current_thread().name.startswith(WORKER_THREAD_PREFIX):
        raise RuntimeError("map_bounded, complete_each or embed called from a pool worker thread")
    if max_in_flight == 1 or len(tasks) < 2:
        for task in tasks:
            yield _run_here(task)
        return
    ready: dict[int, Any] = {}  # results not yet yielded, by input index
    running: dict[Future[Any], tuple[int, _Task[R]]] = {}
    executor = ThreadPoolExecutor(max_in_flight, thread_name_prefix=WORKER_THREAD_PREFIX)

    def resume(
        index: int, task: _Task[R], value: Any = None, error: BaseException | None = None
    ) -> None:
        try:
            call = task.send(value) if error is None else task.throw(error)
        except StopIteration as stop:
            ready[index] = stop.value
        else:
            running[executor.submit(call)] = (index, task)

    pending = enumerate(tasks)
    following = 0  # the index of the next result to yield
    try:
        while True:
            while following in ready:
                yield ready.pop(following)
                following += 1
            if (
                len(running) < max_in_flight
                and len(ready) + len(running) < _LOOK_AHEAD * max_in_flight
                and (started := next(pending, None))
            ):
                resume(*started)
                continue
            if not running:
                return
            done = wait(running, return_when=FIRST_COMPLETED).done
            for future in [f for f in running if f in done]:  # in the order they were sent
                index, task = running.pop(future)
                error = future.exception()
                if error is None:
                    resume(index, task, future.result())
                else:
                    resume(index, task, error=error)
            # a finished call's result is a whole reply: hold none through the next wait
            del done, future
    finally:
        executor.shutdown(cancel_futures=True)  # waits for the calls in flight


def map_bounded(
    fn: Callable[[T], R], items: Iterable[T], max_in_flight: int
) -> list[R]:
    """Apply fn to every item with at most max_in_flight concurrent calls.

    Results come back in input order; the first exception propagates after
    in-flight work drains and the queued items are dropped. The calls run on
    threads started for this call and stopped before it returns, or on the
    calling thread when max_in_flight is 1 or there is one item (see
    `_fan_out`); what lasts between calls is the transport's idle
    connections. Calling it from one of those threads raises RuntimeError.
    """

    def one_call(item: T) -> _Task[R]:
        return (yield functools.partial(fn, item))

    return list(_fan_out([one_call(item) for item in items], max_in_flight))
