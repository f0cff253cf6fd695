"""Provider layer: caching, retries, mock determinism, batching, and concurrency."""
from __future__ import annotations

import base64
import json
import os
import re
import socket
import ssl
import sys
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

import mathsynth.cli as cli
from conftest import make_chat
from test_cli import make_run
from mathsynth.pairing import EmbeddingVector, cosine_similarity
from mathsynth.providers import (
    ChatClient,
    ChatRequest,
    EmbeddingClient,
    HttpTransport,
    MockTransport,
    ModelRoles,
    ProviderConfig,
    ProviderError,
    ResponseCache,
    TransportError,
    cache_key,
    map_bounded,
    mock_embedding,
)


def _req(prompt: str = "solve this", salt: str = "") -> ChatRequest:
    return ChatRequest.user("mock-model", prompt, cache_salt=salt)


# --- request objects --------------------------------------------------------


def test_chat_request_validation():
    with pytest.raises(ValueError):
        ChatRequest(model="m", messages=())
    with pytest.raises(ValueError):
        ChatRequest(model="m", messages=(("robot", "hi"),))
    with pytest.raises(ValueError):
        ChatRequest(model="m", messages=(("user", ""),))


def test_payload_includes_sampling_knobs_only_when_set():
    base = _req().payload()
    assert set(base) == {"model", "messages", "temperature", "max_tokens"}
    full = ChatRequest.user(
        "m", "p", temperature=0.6, top_p=0.95, top_k=40, min_p=0.0, max_tokens=100
    ).payload()
    assert (full["top_p"], full["top_k"], full["min_p"]) == (0.95, 40, 0.0)


def test_cache_salt_changes_key_not_payload():
    a, b = _req(salt="try:1"), _req(salt="try:2")
    assert a.payload() == b.payload()
    assert a.key() != b.key()


# --- mock transport ---------------------------------------------------------


def test_mock_is_deterministic():
    t1, t2 = MockTransport(seed=5), MockTransport(seed=5)
    body1 = t1.request("/chat/completions", _req().payload(), "s")
    body2 = t2.request("/chat/completions", _req().payload(), "s")
    assert body1 == body2
    other_salt = t1.request("/chat/completions", _req().payload(), "s2")
    other_seed = MockTransport(seed=6).request("/chat/completions", _req().payload(), "s")
    content = body1["choices"][0]["message"]["content"]
    assert other_salt["choices"][0]["message"]["content"] != content
    assert other_seed["choices"][0]["message"]["content"] != content


def test_mock_embedding_prefix_geometry():
    shared = "Topic 07 inventory count puzzle"
    a = EmbeddingVector(mock_embedding(f"{shared} with crates"))
    b = EmbeddingVector(mock_embedding(f"{shared} with pallets and more"))
    c = EmbeddingVector(mock_embedding("A completely unrelated geometry riddle"))
    assert cosine_similarity(a, b) > 0.99
    assert abs(cosine_similarity(a, c)) < 0.5
    assert abs(a.norm - 1.0) < 1e-9


def test_unknown_mock_endpoint():
    with pytest.raises(TransportError):
        MockTransport().request("/fine-tune", {}, "")


# --- chat client: cache and retries ----------------------------------------


def test_cache_hit_skips_transport(tmp_path):
    client, transport = make_chat(cache_dir=tmp_path / "cache")
    first = client.complete(_req())
    assert (transport.calls, client.stats.snapshot()["cache_hits"]) == (1, 0)
    second = client.complete(_req())
    assert (transport.calls, client.stats.snapshot()["cache_hits"]) == (1, 1)
    assert second == first

    # a brand-new client over the same cache directory never hits the wire
    fresh_client, fresh_transport = make_chat(cache_dir=tmp_path / "cache")
    replay = fresh_client.complete(_req())
    assert fresh_transport.calls == 0 and replay == first
    assert fresh_client.stats.snapshot()["cache_hits"] == 1


def test_distinct_salts_are_distinct_cache_entries(tmp_path):
    client, transport = make_chat(cache_dir=tmp_path / "cache")
    one = client.complete(_req(salt="attempt:1"))
    two = client.complete(_req(salt="attempt:2"))
    assert transport.calls == 2
    assert _req(salt="attempt:1").key() != _req(salt="attempt:2").key()
    assert one != two


def test_retryable_failure_then_success():
    script = {"ping": [TransportError("boom", retryable=True), "pong"]}
    client, transport = make_chat(script=script)
    assert client.complete(_req("ping")) == "pong"
    assert transport.calls == 2
    snap = client.stats.snapshot()
    assert (snap["transport_calls"], snap["retries"]) == (2, 1)


def test_non_retryable_fails_immediately():
    script = {"ping": TransportError("denied", retryable=False, status=401)}
    client, transport = make_chat(script=script)
    with pytest.raises(ProviderError, match="denied"):
        client.complete(_req("ping"))
    assert transport.calls == 1


def test_empty_content_retries_until_exhausted():
    client, transport = make_chat(script={"ping": ""}, max_retries=3)
    with pytest.raises(ProviderError):
        client.complete(_req("ping"))
    assert transport.calls == 3


def test_malformed_body_is_retryable():
    class BrokenTransport:
        calls = 0

        def request(self, path, payload, salt=""):
            self.calls += 1
            return {"unexpected": True}

    transport = BrokenTransport()
    client = ChatClient(transport, ProviderConfig(max_retries=2, backoff_base=0.0))
    with pytest.raises(ProviderError):
        client.complete(_req())
    assert transport.calls == 2


def test_failed_responses_are_not_cached(tmp_path):
    script = {"ping": TransportError("denied", retryable=False)}
    client, transport = make_chat(script=script, cache_dir=tmp_path / "cache")
    with pytest.raises(ProviderError):
        client.complete(_req("ping"))
    healthy, healthy_transport = make_chat(cache_dir=tmp_path / "cache")
    healthy.complete(_req("ping"))
    assert healthy_transport.calls == 1 and healthy.stats.snapshot()["cache_hits"] == 0


@pytest.mark.parametrize(
    "response",
    [{"choices": []}, {"choices": [{"message": {"content": "  "}}]}, {"unexpected": True}],
)
def test_malformed_chat_entry_is_an_error_naming_its_key(tmp_path, response):
    client, transport = make_chat(cache_dir=tmp_path / "cache")
    key = _req().key()
    client.cache.put(key, "/chat/completions", "", response)
    with pytest.raises(ProviderError, match=f"malformed chat cache entry {key}"):
        client.complete(_req())
    assert transport.calls == 0
    client.cache.close()


def test_malformed_chat_entry_fails_its_seed_not_the_command(tmp_path, capsys):
    config_path, out = make_run(tmp_path)
    for command in ("pair", "generate"):
        assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_OK
    cache = ResponseCache(out / "cache" / "responses")
    key, entry = next(
        (key, entry)
        for key, entry in (
            (line[:64], json.loads(line[65:])) for line in cache.path.read_text().splitlines()
        )
        if entry["salt"].startswith("gen:hybrid:")
    )
    cache.put(key, entry["endpoint"], entry["salt"], {"choices": []})
    cache.close()
    seed_id = entry["salt"].split(":")[2]
    skips = out / "artifacts" / "toy" / "generated" / "skips_hybrid.jsonl"

    def assert_only_its_seed_fails() -> None:
        capsys.readouterr()
        assert cli.main(["generate", "--config", str(config_path)]) == cli.EXIT_PARTIAL
        assert capsys.readouterr().err == ""
        [row] = [json.loads(line) for line in skips.read_text().splitlines()]
        assert (row["seed_id"], row["kind"]) == (seed_id, "failure")
        assert row["reason"].startswith(f"provider: malformed chat cache entry {key}")

    assert_only_its_seed_fails()
    with open(cache.path, "ab") as log:  # a later line for the key whose body is not JSON
        log.write(key.encode("ascii") + b"\tnot json\n")
    assert_only_its_seed_fails()


# --- response cache log -----------------------------------------------------


def _key(i: int) -> str:
    return cache_key("/unit", {"i": i}, "")


def test_torn_final_line_is_ignored_then_cut_off(tmp_path):
    cache = ResponseCache(tmp_path)
    for i in range(2):
        cache.put(_key(i), "/unit", "", {"i": i})
    cache.close()
    whole = cache.path.read_bytes()
    with open(cache.path, "ab") as fh:
        fh.write(_key(2).encode() + b'\t{"endpoint": "/unit", "resp')

    torn = ResponseCache(tmp_path)
    assert [torn.get(_key(i)) for i in range(3)] == [{"i": 0}, {"i": 1}, None]
    torn.put(_key(3), "/unit", "", {"i": 3})
    torn.close()
    data = cache.path.read_bytes()
    assert data.startswith(whole)
    assert data[len(whole) :].startswith(_key(3).encode() + b"\t")
    assert data.count(b"\n") == 3 and data.endswith(b"\n")

    fresh = ResponseCache(tmp_path)
    assert [fresh.get(_key(i)) for i in range(4)] == [{"i": 0}, {"i": 1}, None, {"i": 3}]
    fresh.close()


def test_malformed_whole_line_is_an_error(tmp_path):
    (tmp_path / ResponseCache.LOG_NAME).write_bytes(b"not a cache entry\n")
    with pytest.raises(ValueError, match="line 1"):
        ResponseCache(tmp_path)


_DAMAGED_BODIES = [
    b"not json",
    b"\xff\xfe",
    b"[1, 2]",
    b'{"endpoint": "/unit", "salt": ""}',
]


def _log_with_body(root, key: str, body: bytes) -> ResponseCache:
    root.mkdir(parents=True, exist_ok=True)
    (root / ResponseCache.LOG_NAME).write_bytes(key.encode("ascii") + b"\t" + body + b"\n")
    return ResponseCache(root)


@pytest.mark.parametrize("body", _DAMAGED_BODIES)
def test_damaged_entry_body_is_an_error_naming_the_log_and_key(tmp_path, body):
    cache = _log_with_body(tmp_path, _key(0), body)
    with pytest.raises(ValueError, match=f"^{re.escape(str(cache.path))}: entry {_key(0)}: "):
        cache.get(_key(0))
    cache.close()


@pytest.mark.parametrize("body", _DAMAGED_BODIES)
def test_damaged_entry_body_is_a_provider_error_in_either_client(tmp_path, body):
    chat_cache = _log_with_body(tmp_path / "chat", _req().key(), body)
    client = ChatClient(MockTransport(), cache=chat_cache)
    with pytest.raises(ProviderError, match=f"malformed chat cache entry {_req().key()}"):
        client.complete(_req())
    chat_cache.close()

    key = EmbeddingClient(None)._text_key("probe")
    embed_cache = _log_with_body(tmp_path / "embed", key, body)
    embedder = EmbeddingClient(MockTransport(), cache=embed_cache)
    with pytest.raises(ProviderError, match=f"malformed embedding cache entry {key}"):
        embedder.embed(["probe"])
    assert client.transport.calls == embedder.transport.calls == 0
    embed_cache.close()


def test_concurrent_puts_are_all_read_back_by_a_fresh_cache(tmp_path):
    cache = ResponseCache(tmp_path)

    def put_then_get(i: int) -> dict:
        body = {"i": i, "pad": "x" * (i * 37 % 3000)}
        cache.put(_key(i), "/unit", "", body)
        return cache.get(_key(i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        bodies = map_bounded(put_then_get, range(200), max_in_flight=8)
    finally:
        sys.setswitchinterval(interval)
    cache.close()
    assert [b["i"] for b in bodies] == list(range(200))

    fresh = ResponseCache(tmp_path)
    assert [fresh.get(_key(i)) for i in range(200)] == bodies
    assert cache.path.read_bytes().count(b"\n") == 200
    fresh.close()


def test_warm_pair_and_generate_make_no_calls_and_leave_the_log_alone(tmp_path, monkeypatch):
    calls: list[str] = []

    class CountingTransport(MockTransport):
        def request(self, path, payload, salt=""):
            calls.append(path)
            return super().request(path, payload, salt)

    monkeypatch.setattr(cli, "MockTransport", CountingTransport)
    config_path, out = make_run(tmp_path)

    def run() -> None:
        for command in ("pair", "generate"):
            assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_OK

    run()
    assert {"/embeddings", "/chat/completions"} <= set(calls)
    log = out / "cache" / "responses" / ResponseCache.LOG_NAME
    assert [p for p in (out / "cache").rglob("*") if p.is_file()] == [log]
    before = (log.read_bytes(), log.stat().st_size, log.stat().st_mtime_ns)

    calls.clear()
    run()
    assert calls == []
    assert (log.read_bytes(), log.stat().st_size, log.stat().st_mtime_ns) == before


# --- HTTP transport -----------------------------------------------------------


class _EchoHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keeps connections alive between requests

    def setup(self) -> None:
        super().setup()
        self.server.connections += 1

    def do_POST(self) -> None:
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        body = json.dumps({"echo": payload}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def test_http_transport_reuses_one_connection_per_thread():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _EchoHandler)
    server.connections = 0
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    base_url = f"http://127.0.0.1:{server.server_port}/v1"
    transport = HttpTransport(ProviderConfig(base_url=base_url, timeout=10.0))
    try:
        replies = [transport.request("/embeddings", {"n": n}) for n in range(4)]
    finally:
        transport.close()
        server.shutdown()
        server.server_close()
        serving.join(timeout=10)
    assert not serving.is_alive()
    assert [reply["echo"]["n"] for reply in replies] == [0, 1, 2, 3]
    assert server.connections == 1


_CHAT_OK = json.dumps(
    {"choices": [{"index": 0, "message": {"role": "assistant", "content": "ok"}}]}
).encode("utf-8")


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Records each POST and answers it with the server's next scripted reply.

    A reply is `(status, body, close)`, or a callable returning one; with
    `close` the server shuts the kept-alive connection after answering,
    without saying so, and sets `server.closed`. Once the script is empty,
    `server.default(body)` gives the reply: 200 with a chat completion.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out as two writes

    def setup(self) -> None:
        super().setup()
        self.server.connections += 1

    def finish(self) -> None:
        super().finish()
        self.server.finished += 1

    def handle(self) -> None:
        try:
            super().handle()
        except ConnectionError:  # the client gave up on a stalled reply
            pass

    def do_POST(self) -> None:
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers, body))
        if self.server.script:
            reply = self.server.script.pop(0)
            status, data, close = reply() if callable(reply) else reply
        else:
            status, data, close = self.server.default(body)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        if close:
            self.wfile.flush()
            self.connection.shutdown(socket.SHUT_WR)
            self.close_connection = True
            self.server.closed.set()

    def log_message(self, *args) -> None:
        pass


@pytest.fixture
def serve(monkeypatch):
    """Starts scripted 127.0.0.1 endpoints; closes their transports, then stops them."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    started = []

    def start() -> ThreadingHTTPServer:
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        server.connections, server.finished, server.seen, server.script = 0, 0, [], []
        server.closed, server.transports = threading.Event(), []
        server.default = lambda body: (200, _CHAT_OK, False)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, _ in started:
        for transport in server.transports:
            transport.close()
    for server, thread in started:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def _connect(server: ThreadingHTTPServer, timeout: float = 10.0) -> HttpTransport:
    base_url = f"http://127.0.0.1:{server.server_port}/v1"
    transport = HttpTransport(ProviderConfig(base_url=base_url, timeout=timeout))
    server.transports.append(transport)
    return transport


@pytest.mark.parametrize("status,retryable", [(429, True), (503, True), (400, False)])
def test_http_error_status_keeps_its_status_and_retryability(serve, status, retryable):
    server = serve()
    server.script.append((status, b'{"error": {"message": "no"}}', False))
    with pytest.raises(TransportError, match=f"returned {status}") as info:
        _connect(server).request("/chat/completions", {"n": 1})
    assert (info.value.status, info.value.retryable) == (status, retryable)


def test_http_non_json_200_is_retryable(serve):
    server = serve()
    server.script.append((200, b"<html>upstream busy</html>", False))
    with pytest.raises(TransportError, match="non-JSON") as info:
        _connect(server).request("/chat/completions", {"n": 1})
    assert info.value.retryable and info.value.status is None


def test_http_refused_connection_is_retryable():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    transport = HttpTransport(ProviderConfig(base_url=f"http://127.0.0.1:{port}/v1", timeout=5.0))
    try:
        with pytest.raises(TransportError, match="failed") as info:
            transport.request("/chat/completions", {"n": 1})
    finally:
        transport.close()
    assert info.value.retryable


def test_http_read_timeout_is_retryable_and_the_next_call_reconnects(serve):
    server = serve()
    release = threading.Event()

    def stall():
        release.wait(10)
        return 200, _CHAT_OK, False

    server.script.append(stall)
    transport = _connect(server, timeout=0.2)
    with pytest.raises(TransportError, match="timed out") as info:
        transport.request("/chat/completions", {"n": 1})
    release.set()
    assert info.value.retryable
    assert transport.request("/chat/completions", {"n": 2}) == json.loads(_CHAT_OK)
    assert server.connections == 2


def test_http_connection_closed_while_idle_is_replaced_without_a_retry(serve):
    server = serve()
    server.script.append((200, _CHAT_OK, True))
    client = ChatClient(_connect(server), ProviderConfig(max_retries=1))
    assert client.complete(_req("first")) == "ok"
    assert server.closed.wait(5)
    time.sleep(0.05)  # let the server's close reach the client's socket
    assert client.complete(_req("second")) == "ok"
    snap = client.stats.snapshot()
    assert (snap["transport_calls"], snap["retries"]) == (2, 0)
    assert server.connections == 2


def test_http_request_keeps_the_base_path_and_sends_the_key_but_not_the_salt(serve, monkeypatch):
    monkeypatch.setenv("MATHSYNTH_API_KEY", "sk-test")
    server = serve()
    server.script.append((200, b'{"ok": true}', False))
    reply = _connect(server).request("/embeddings", {"input": ["x"]}, salt="gen:salt:1")
    assert reply == {"ok": True}
    [(path, headers, body)] = server.seen
    assert path == "/v1/embeddings"
    assert headers["Authorization"] == "Bearer sk-test"
    assert json.loads(body) == {"input": ["x"]} and b"gen:salt:1" not in body


def test_http_proxy_routes_requests_unless_no_proxy_names_the_host(serve, monkeypatch):
    server, proxy = serve(), serve()
    monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{proxy.server_port}")
    proxy.script.append((200, b'{"via": "proxy"}', False))
    assert _connect(server).request("/embeddings", {"n": 1}) == {"via": "proxy"}
    assert [path for path, _, _ in proxy.seen] == [
        f"http://127.0.0.1:{server.server_port}/v1/embeddings"
    ]

    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server.script.append((200, b'{"via": "direct"}', False))
    assert _connect(server).request("/embeddings", {"n": 2}) == {"via": "direct"}
    assert len(proxy.seen) == 1 and [path for path, _, _ in server.seen] == ["/v1/embeddings"]


def test_http_concurrent_requests_never_share_a_connection(serve):
    server = serve()
    server.default = lambda body: (200, json.dumps({"echo": json.loads(body)}).encode(), False)
    transport = _connect(server)
    replies: dict[int, list] = {}

    def calls(worker: int) -> None:
        replies[worker] = [
            transport.request("/embeddings", {"w": worker, "n": n}) for n in range(10)
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=calls, args=(w,)) for w in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for w in range(8):
        assert replies[w] == [{"echo": {"w": w, "n": n}} for n in range(10)]
    assert server.connections <= 8


def test_http_connections_outlast_map_bounded_calls_and_close_with_the_transport(serve):
    server = serve()
    server.default = lambda body: (200, json.dumps({"echo": json.loads(body)}).encode(), False)
    transport = _connect(server)

    def call(n: int) -> dict:
        return transport.request("/embeddings", {"n": n})

    first = map_bounded(call, range(10), 2)
    second = map_bounded(call, range(10, 20), 2)
    last = call(20)  # the main thread takes an idle connection too
    assert first + second + [last] == [{"echo": {"n": n}} for n in range(21)]
    assert server.connections <= 2

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        transport.close()  # a connection dropped unclosed warns as it is freed
    assert not caught
    deadline = time.monotonic() + 10
    while server.finished < server.connections and time.monotonic() < deadline:
        time.sleep(0.01)
    assert server.finished == server.connections  # each one's end reached the server


def test_https_builds_one_tls_context_from_the_first_ca_bundle_variable(monkeypatch):
    cafiles = []

    def create_default_context(cafile=None):
        cafiles.append(cafile)
        return ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)

    monkeypatch.setattr(ssl, "create_default_context", create_default_context)
    monkeypatch.setenv("CURL_CA_BUNDLE", "curl.pem")
    for bundle, expected in (("requests.pem", "requests.pem"), ("", "curl.pem")):
        monkeypatch.setenv("REQUESTS_CA_BUNDLE", bundle)
        transport = HttpTransport(ProviderConfig(base_url="https://api.example/v1"))
        workers = [threading.Thread(target=transport._connection) for _ in range(3)]
        for worker in workers:  # each opens its connection object; none connects yet
            worker.start()
            worker.join()
        transport.close()
        assert cafiles.pop() == expected and not cafiles


# --- embedding client -------------------------------------------------------


def test_embeddings_batched_ordered_and_cached(tmp_path):
    cfg = ProviderConfig(embed_batch_size=2, backoff_base=0.0)
    transport = MockTransport(seed=0)
    client = EmbeddingClient(transport, cfg, ResponseCache(tmp_path / "cache"))
    texts = [f"embedding probe text {i}" for i in range(5)]
    vectors = client.embed(texts)
    assert len(vectors) == 5
    assert transport.calls == 3  # batches of 2, 2, 1
    for text, vector in zip(texts, vectors):
        np.testing.assert_allclose(vector.values, mock_embedding(text), atol=0)

    warm_transport = MockTransport(seed=0)
    warm = EmbeddingClient(warm_transport, cfg, ResponseCache(tmp_path / "cache"))
    again = warm.embed(texts + ["one brand new text"])
    assert warm_transport.calls == 1  # only the new text goes out
    assert len(again) == 6


class _VectorTransport:
    """Answers /embeddings with fixed vectors per text; counts calls."""

    def __init__(self, vectors: dict[str, list[float]]):
        self.vectors = vectors
        self.calls = 0

    def request(self, path, payload, salt=""):
        self.calls += 1
        data = [{"index": i, "embedding": self.vectors[t]} for i, t in enumerate(payload["input"])]
        return {"data": data}


def test_embedding_entries_round_trip_bitwise_through_a_fresh_cache(tmp_path):
    vectors = {
        "negative zero": [-0.0, 1.0, -0.5],
        "subnormal": [5e-324, -1.0, 0.25],
        "huge": [1e150, -1e150, 0.1],
        "plain": mock_embedding("plain", dim=3),
    }
    client = EmbeddingClient(_VectorTransport(vectors), cache=ResponseCache(tmp_path))
    texts = list(vectors)
    client.embed(texts)
    client.cache.close()
    fresh = EmbeddingClient(_VectorTransport({}), cache=ResponseCache(tmp_path))
    loaded = fresh.embed(texts)
    assert fresh.transport.calls == 0
    for text, vector in zip(texts, loaded):
        assert vector.values.tobytes() == np.array(vectors[text], dtype="<f8").tobytes()
    lines = fresh.cache.path.read_bytes().splitlines()
    record = json.loads(lines[0].split(b"\t", 1)[1])
    assert record["salt"] == EmbeddingClient.ENCODING
    assert set(record["response"]) == {EmbeddingClient.ENCODING}
    fresh.cache.close()


def test_json_float_embedding_entries_are_misses_and_stay_in_the_log(tmp_path):
    texts = [f"embedding probe text {i}" for i in range(3)]
    old = ResponseCache(tmp_path)
    for text in texts:
        old_key = cache_key("/embeddings", {"model": ModelRoles().embedder, "input": [text]}, "")
        body = {"data": [{"index": 0, "embedding": mock_embedding(text)}]}
        old.put(old_key, "/embeddings", "", body)
    old.close()
    old_bytes = old.path.read_bytes()

    cfg = ProviderConfig(embed_batch_size=1)
    transport = MockTransport()
    client = EmbeddingClient(transport, cfg, ResponseCache(tmp_path))
    vectors = client.embed(texts)
    client.cache.close()
    assert transport.calls == len(texts)
    assert client.stats.snapshot()["cache_hits"] == 0
    log = client.cache.path.read_bytes()
    assert log.startswith(old_bytes) and log.count(b"\n") == 2 * len(texts)

    warm_transport = MockTransport()
    warm = EmbeddingClient(warm_transport, cfg, ResponseCache(tmp_path))
    again = warm.embed(texts)
    warm.cache.close()
    assert warm_transport.calls == 0
    for before, after in zip(vectors, again):
        assert after.values.tobytes() == before.values.tobytes()


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


@pytest.mark.parametrize(
    "response",
    [
        {"f64le": "not base64!"},
        {"f64le": _b64(b"\x00" * 12)},  # not a whole number of float64s
        {"f64le": _b64(np.zeros(3).tobytes())},  # zero norm
        {"f64le": _b64(np.array([1.0, np.nan]).tobytes())},
        {"data": [{"index": 0, "embedding": [1.0, 0.0]}]},  # no f64le field
    ],
)
def test_malformed_embedding_entry_is_an_error_naming_its_key(tmp_path, response):
    client = EmbeddingClient(MockTransport(), cache=ResponseCache(tmp_path))
    key = client._text_key("probe")
    client.cache.put(key, "/embeddings", EmbeddingClient.ENCODING, response)
    with pytest.raises(ProviderError, match=key):
        client.embed(["probe"])
    client.cache.close()


def test_embedding_entry_of_another_dimension_is_an_error_naming_its_key(tmp_path):
    client = EmbeddingClient(MockTransport(dim=4), cache=ResponseCache(tmp_path))
    client.embed(["first", "second"])
    odd_key = client._text_key("second")
    odd = {EmbeddingClient.ENCODING: _b64(np.ones(3).tobytes())}
    client.cache.put(odd_key, "/embeddings", EmbeddingClient.ENCODING, odd)
    with pytest.raises(ProviderError, match=f"{odd_key} has 3, .* has 4"):
        client.embed(["first", "second"])
    client.cache.close()


def test_malformed_embedding_entry_makes_the_cli_exit_1(tmp_path, capsys):
    config_path, out = make_run(tmp_path)
    assert cli.main(["pair", "--config", str(config_path)]) == cli.EXIT_OK
    question = json.loads((tmp_path / "seeds.jsonl").read_text().splitlines()[0])["question"]
    key = EmbeddingClient(None)._text_key(question)
    cache = ResponseCache(out / "cache" / "responses")
    cache.put(key, "/embeddings", EmbeddingClient.ENCODING, {"f64le": "%%%"})
    cache.close()
    capsys.readouterr()
    assert cli.main(["pair", "--config", str(config_path)]) == cli.EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith("error: malformed embedding cache entry " + key)

    with open(cache.path, "ab") as log:  # a later line for the key whose body is not JSON
        log.write(key.encode("ascii") + b"\tnot json\n")
    assert cli.main(["pair", "--config", str(config_path)]) == cli.EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith("error: malformed embedding cache entry " + key)
    assert str(cache.path) in err


def test_embed_empty_list_is_an_error():
    client = EmbeddingClient(MockTransport())
    with pytest.raises(ProviderError):
        client.embed([])


def test_embedding_retry_then_fail():
    class FlakyTransport:
        calls = 0

        def request(self, path, payload, salt=""):
            self.calls += 1
            raise TransportError("overloaded", retryable=True, status=503)

    transport = FlakyTransport()
    client = EmbeddingClient(transport, ProviderConfig(max_retries=3, backoff_base=0.0))
    with pytest.raises(ProviderError):
        client.embed(["text"])
    assert transport.calls == 3


# --- bounded concurrency ----------------------------------------------------


def test_map_bounded_preserves_order_and_limit():
    lock = threading.Lock()
    state = {"active": 0, "peak": 0}

    def work(x: int) -> int:
        with lock:
            state["active"] += 1
            state["peak"] = max(state["peak"], state["active"])
        time.sleep(0.002)
        with lock:
            state["active"] -= 1
        return x * x

    results = map_bounded(work, range(40), max_in_flight=4)
    assert results == [x * x for x in range(40)]
    assert state["peak"] <= 4

    assert map_bounded(work, [], max_in_flight=4) == []
    assert map_bounded(work, [3], max_in_flight=1) == [9]


def test_map_bounded_propagates_errors():
    def explode(x: int) -> int:
        if x == 3:
            raise RuntimeError("worker failed")
        return x

    with pytest.raises(RuntimeError, match="worker failed"):
        map_bounded(explode, range(6), max_in_flight=2)


def test_map_bounded_from_a_pool_worker_is_an_error():
    def nested(x: int) -> list[int]:
        return map_bounded(abs, [x, -x], 2)

    with pytest.raises(RuntimeError, match="pool worker"):
        map_bounded(nested, range(4), 2)


def test_provider_stats_counts():
    client, _ = make_chat()
    client.complete(_req("a"))
    client.complete(_req("b"))
    snap = client.stats.snapshot()
    assert snap["requests"] == 2
    assert snap["transport_calls"] == 2
    assert snap["cache_hits"] == 0
