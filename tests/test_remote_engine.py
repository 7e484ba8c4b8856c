"""Remote labeling engine: stubbed HTTP behavior, fallbacks, credential hygiene."""

from __future__ import annotations

import dataclasses
import io
import json
import logging
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.error import HTTPError, URLError
from pathlib import Path
from urllib.response import addinfourl

import pytest

import twotsd

from twotsd.domain import TREND_METRICS, Trend, TrustState
from twotsd.errors import (
    ConfigError,
    RemoteAuthError,
    RemoteEngineError,
    SchemaViolationError,
)
from twotsd.remote_engine import (
    BACKOFF_S,
    MAX_RETRIES,
    RemoteEngineConfig,
    RemoteSemanticsEngine,
    parse_label_reply,
)
from twotsd.semantics import extract_semantics

from _builders import make_records, window_of

SECRET = "sekret-test-credential-123"


class StubResponse:
    """A canned reply: its status and its JSON body (None: a body that is not JSON; bytes: that body)."""

    def __init__(self, status_code: int, doc=None):
        self.status_code = status_code
        self.doc = doc


class StubOpener:
    """Scripted urlopen: each call pops the next canned outcome.

    A non-200 reply is raised as HTTPError, as the default opener does; an
    exception outcome is raised as is.
    """

    def __init__(self, *outcomes):
        self.outcomes = list(outcomes)
        self.posts = []

    def __call__(self, request, timeout=None):
        self.posts.append({
            "url": request.full_url,
            "method": request.get_method(),
            "json": json.loads(request.data),
            "headers": dict(request.header_items()),
            "redirectable_headers": dict(request.headers),
            "timeout": timeout,
        })
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        if outcome.status_code != 200:
            raise HTTPError(request.full_url, outcome.status_code, "stub", {}, None)
        body = outcome.doc if isinstance(outcome.doc, bytes) else (
            b"not json" if outcome.doc is None else json.dumps(outcome.doc).encode())
        return addinfourl(io.BytesIO(body), {}, request.full_url, outcome.status_code)


def chat_reply(state="trusted", loss_rate="normal"):
    content = json.dumps({
        "state": state,
        "comm_trends": {"throughput": "normal", "loss_rate": loss_rate},
        "comp_trends": {"accuracy": "normal", "proc_speed": "normal"},
    })
    return StubResponse(200, {"choices": [{"message": {"content": content}}]})


def _engine(*outcomes, **cfg_over):
    cfg = RemoteEngineConfig(endpoint="https://example.test/v1/chat", **cfg_over)
    opener = StubOpener(*outcomes)
    slept = []
    engine = RemoteSemanticsEngine(cfg, urlopen=opener, sleep=slept.append)
    return engine, opener, slept


@pytest.fixture(autouse=True)
def credential(monkeypatch):
    monkeypatch.setenv("TWOTSD_REMOTE_KEY", SECRET)


def test_happy_path_uses_remote_labels_and_local_bookkeeping():
    engine, opener, _ = _engine(chat_reply(state="untrusted", loss_rate="increasing"))
    records = window_of(make_records(8))
    result = engine.extract("a_j", "video_transcoding", records)
    local = extract_semantics("a_j", "video_transcoding", records)
    assert result.state is TrustState.UNTRUSTED  # remote label wins
    assert result.loss_rate is Trend.INCREASING
    assert result == dataclasses.replace(local, state=TrustState.UNTRUSTED, loss_rate=Trend.INCREASING)
    assert result.window == local.window  # bookkeeping is computed locally
    assert result.extracted_at == local.extracted_at
    assert result.record_count == 8
    assert engine.calls == 1 and engine.fallbacks == 0


def test_request_shape_and_credential_header():
    engine, opener, _ = _engine(chat_reply())
    engine.extract("a_j", "video_transcoding", window_of(make_records(6)))
    (post,) = opener.posts
    assert post["url"] == "https://example.test/v1/chat"
    assert post["method"] == "POST"
    assert post["headers"] == {
        "Authorization": f"Bearer {SECRET}",
        "Content-type": "application/json",
    }
    # The credential is not among the headers a redirect would copy.
    assert post["redirectable_headers"] == {"Content-type": "application/json"}
    assert post["timeout"] == engine.cfg.timeout_s
    body = post["json"]
    assert body["model"] == "trust-extractor-1"
    assert body["temperature"] == 0
    prompt = json.loads(body["messages"][1]["content"])
    assert prompt["device"] == "a_j"
    assert prompt["task_type"] == "video_transcoding"
    assert prompt["trust_threshold"] == 0.8
    assert len(prompt["records"]) == 6


def test_cold_start_never_touches_network():
    engine, opener, _ = _engine()
    records = window_of(make_records(4))  # below the state n_min of 5
    result = engine.extract("a_j", "video_transcoding", records)
    assert result == extract_semantics("a_j", "video_transcoding", records)
    assert result.state is TrustState.INSUFFICIENT_DATA
    assert opener.posts == []


def test_auth_failure_propagates_without_retry():
    engine, opener, slept = _engine(StubResponse(401))
    with pytest.raises(RemoteAuthError) as exc_info:
        engine.extract("a_j", "video_transcoding", window_of(make_records(6)))
    assert len(opener.posts) == 1
    assert slept == []
    assert SECRET not in str(exc_info.value)


def test_missing_credential_is_auth_error_before_any_call(monkeypatch):
    monkeypatch.delenv("TWOTSD_REMOTE_KEY")
    engine, opener, _ = _engine(chat_reply())
    with pytest.raises(RemoteAuthError):
        engine.extract("a_j", "video_transcoding", window_of(make_records(6)))
    assert opener.posts == []


def test_rate_limit_retries_with_backoff_then_succeeds():
    engine, opener, slept = _engine(StubResponse(429), chat_reply())
    result = engine.extract("a_j", "video_transcoding", window_of(make_records(6)))
    assert result.state is TrustState.TRUSTED
    assert len(opener.posts) == 2
    assert engine.retries == 1
    assert slept == [BACKOFF_S]


def test_persistent_server_errors_exhaust_retries_and_propagate():
    assert MAX_RETRIES == 3
    engine, opener, slept = _engine(
        # A read timeout raises TimeoutError; a connect timeout wraps it in URLError.
        StubResponse(500), TimeoutError(), URLError(TimeoutError()), StubResponse(503)
    )
    with pytest.raises(RemoteEngineError) as exc_info:
        engine.extract("a_j", "video_transcoding", window_of(make_records(6)))
    assert not isinstance(exc_info.value, SchemaViolationError)
    assert "4 attempts" in str(exc_info.value)
    assert len(opener.posts) == 4
    assert slept == [0.25, 0.5, 1.0]


def test_schema_violations_fall_back_to_deterministic_labels(caplog):
    bad = StubResponse(200, {"choices": [{"message": {"content": "not json at all"}}]})
    engine, opener, _ = _engine(bad, bad, bad, bad)
    records = window_of(make_records(8))
    with caplog.at_level(logging.WARNING, logger="twotsd.remote_engine"):
        result = engine.extract("a_j", "video_transcoding", records)
    assert result == extract_semantics("a_j", "video_transcoding", records)
    assert engine.fallbacks == 1
    assert len(opener.posts) == 4  # initial try plus three retries
    assert any("deterministic" in message for message in caplog.messages)
    assert all(SECRET not in message for message in caplog.messages)


def test_broken_envelope_is_a_schema_violation():
    engine, _, _ = _engine(
        StubResponse(200, {"unexpected": "shape"}),
        StubResponse(200, None),
        StubResponse(200, b"[" * 100_000 + b"]" * 100_000),  # nested too deep to parse
        chat_reply(),
    )
    result = engine.extract("a_j", "video_transcoding", window_of(make_records(6)))
    assert result.state is TrustState.TRUSTED  # fourth attempt succeeded
    assert engine.retries == 3


def test_remote_insufficient_data_forces_normal_trends():
    content = json.dumps({
        "state": "insufficient_data",
        "comm_trends": {"throughput": "normal", "loss_rate": "normal"},
        "comp_trends": {"accuracy": "normal", "proc_speed": "normal"},
    })
    engine, _, _ = _engine(StubResponse(200, {"choices": [{"message": {"content": content}}]}))
    result = engine.extract("a_j", "video_transcoding", window_of(make_records(6)))
    assert result.state is TrustState.INSUFFICIENT_DATA
    assert set(result.all_trends().values()) == {Trend.NORMAL}


def test_parse_label_reply_accepts_exact_schema():
    state, trends = parse_label_reply(json.dumps({
        "state": "trusted",
        "comm_trends": {"throughput": "increasing", "loss_rate": "normal"},
        "comp_trends": {"accuracy": "normal", "proc_speed": "decreasing"},
    }))
    assert state is TrustState.TRUSTED
    assert trends == {"throughput": Trend.INCREASING, "loss_rate": Trend.NORMAL,
                      "accuracy": Trend.NORMAL, "proc_speed": Trend.DECREASING}
    assert list(trends) == list(TREND_METRICS)


@pytest.mark.parametrize("reply", [
    "not json",
    '"just a string"',
    '{"state": "trusted"}',  # missing trend sections
    json.dumps({"state": "excellent",
                "comm_trends": {"throughput": "normal", "loss_rate": "normal"},
                "comp_trends": {"accuracy": "normal", "proc_speed": "normal"}}),
    json.dumps({"state": "trusted",
                "comm_trends": {"throughput": "normal"},
                "comp_trends": {"accuracy": "normal", "proc_speed": "normal"}}),
    json.dumps({"state": "trusted",
                "comm_trends": {"throughput": "up", "loss_rate": "normal"},
                "comp_trends": {"accuracy": "normal", "proc_speed": "normal"}}),
    json.dumps({"state": "trusted", "extra": 1,
                "comm_trends": {"throughput": "normal", "loss_rate": "normal"},
                "comp_trends": {"accuracy": "normal", "proc_speed": "normal"}}),
    json.dumps({"state": "insufficient_data",
                "comm_trends": {"throughput": "increasing", "loss_rate": "normal"},
                "comp_trends": {"accuracy": "normal", "proc_speed": "normal"}}),
])
def test_parse_label_reply_rejects_offschema(reply):
    with pytest.raises(SchemaViolationError):
        parse_label_reply(reply)


@pytest.mark.parametrize("reply", ['{"state": ' + "9" * 5_000 + "}", "[" * 100_000 + "]" * 100_000],
                         ids=["int_too_long", "nesting_too_deep"])
def test_parse_label_reply_refuses_json_too_big_to_parse(reply):
    with pytest.raises(SchemaViolationError, match="reply is not JSON"):
        parse_label_reply(reply)


def test_engine_config_validation():
    with pytest.raises(ConfigError):
        RemoteEngineConfig(endpoint="")
    with pytest.raises(ConfigError):
        RemoteEngineConfig(endpoint="example.test/v1/chat")  # no scheme
    with pytest.raises(ConfigError):
        RemoteEngineConfig(endpoint=None)
    assert RemoteEngineConfig(endpoint="HTTPS://example.test/v1/chat").endpoint.startswith("HTTPS")
    # A socket refuses a NaN timeout and overflows on one far above TIMEOUT_MAX.
    for timeout_s in (0, -1.0, float("nan"), float("inf"), 1e300):
        with pytest.raises(ConfigError):
            RemoteEngineConfig(endpoint="https://x", timeout_s=timeout_s)
    assert RemoteEngineConfig(endpoint="https://x", timeout_s=threading.TIMEOUT_MAX).timeout_s == threading.TIMEOUT_MAX


class _CannedHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({
            "choices": [{"message": {"content": json.dumps({
                "state": "trusted",
                "comm_trends": {"throughput": "normal", "loss_rate": "normal"},
                "comp_trends": {"accuracy": "normal", "proc_speed": "normal"},
            })}}]
        }).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_real_http_round_trip():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CannedHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        host, port = server.server_address
        cfg = RemoteEngineConfig(endpoint=f"http://{host}:{port}/v1/chat")
        engine = RemoteSemanticsEngine(cfg)
        result = engine.extract("a_j", "video_transcoding", window_of(make_records(8)))
        assert result.state is TrustState.TRUSTED
        assert result.record_count == 8
    finally:
        server.shutdown()
        server.server_close()


class _RecordingHandler(BaseHTTPRequestHandler):
    """Records each request's method and headers, then answers with the
    server's ``reply(handler)``."""

    def _record(self):
        length = int(self.headers.get("Content-Length") or 0)
        self.rfile.read(length)
        self.server.seen.append((self.command, dict(self.headers)))
        self.server.reply(self)

    do_GET = do_POST = _record

    def log_message(self, *args):
        pass


def _recording_server(reply):
    server = ThreadingHTTPServer(("127.0.0.1", 0), _RecordingHandler)
    server.seen, server.reply = [], reply
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


def _answer(handler, status, headers=()):
    handler.send_response(status)
    for name, value in headers:
        handler.send_header(name, value)
    handler.send_header("Content-Length", "0")
    handler.end_headers()


def test_redirect_never_carries_the_credential():
    target = _recording_server(lambda h: _answer(h, 401))
    host, port = target.server_address
    origin = _recording_server(
        lambda h: _answer(h, 302, [("Location", f"http://{host}:{port}/elsewhere")])
    )
    try:
        o_host, o_port = origin.server_address
        cfg = RemoteEngineConfig(endpoint=f"http://{o_host}:{o_port}/v1/chat", timeout_s=5)
        engine = RemoteSemanticsEngine(cfg, sleep=lambda s: None)
        with pytest.raises(RemoteAuthError):
            engine.extract("a_j", "video_transcoding", window_of(make_records(8)))
        ((o_method, o_headers),) = origin.seen
        assert o_method == "POST" and o_headers["Authorization"] == f"Bearer {SECRET}"
        ((t_method, t_headers),) = target.seen
        assert t_method == "GET"
        assert "Authorization" not in t_headers
        assert all(SECRET not in value for value in t_headers.values())
    finally:
        for server in (origin, target):
            server.shutdown()
            server.server_close()


class _StallingHandler(BaseHTTPRequestHandler):
    """Reads the request, then answers nothing until the test releases it."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.release.wait(10)

    def log_message(self, *args):
        pass


def test_stalled_endpoint_times_out_on_every_attempt():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    server.release = threading.Event()
    threading.Thread(target=server.serve_forever, daemon=True).start()
    try:
        host, port = server.server_address
        cfg = RemoteEngineConfig(endpoint=f"http://{host}:{port}/v1/chat", timeout_s=0.2)
        slept = []
        engine = RemoteSemanticsEngine(cfg, sleep=slept.append)
        with pytest.raises(RemoteEngineError) as exc_info:
            engine.extract("a_j", "video_transcoding", window_of(make_records(8)))
        assert str(exc_info.value) == (
            "remote extraction failed after 4 attempts: no reply within 0.2s"
        )
        assert engine.calls == 4 and engine.retries == 3
        assert slept == [0.25, 0.5, 1.0]
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()


def test_refused_connection_is_a_transport_failure_without_retry():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    host, port = probe.getsockname()
    probe.close()  # nothing listens on the port now
    cfg = RemoteEngineConfig(endpoint=f"http://{host}:{port}/v1/chat", timeout_s=5)
    slept = []
    engine = RemoteSemanticsEngine(cfg, sleep=slept.append)
    with pytest.raises(RemoteEngineError) as exc_info:
        engine.extract("a_j", "video_transcoding", window_of(make_records(8)))
    assert str(exc_info.value).startswith("transport failure: ")
    assert engine.calls == 1 and engine.retries == 0
    assert slept == []


def test_every_module_imports_without_requests():
    src = str(Path(twotsd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['requests'] = None\n"
        "import twotsd\n"
        "for info in pkgutil.iter_modules(twotsd.__path__):\n"
        "    importlib.import_module('twotsd.' + info.name)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
