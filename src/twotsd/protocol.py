"""Message schemas and transport between devices and the server.

Wire format, bit-exact:

    frame := length(4 bytes, big-endian, unsigned) || body
    body  := version(1 byte) || document(UTF-8 JSON, canonical)

``length`` counts the body (version byte + document). The document is a JSON
object with sorted keys and compact separators, so encoding is deterministic:
``{"kind": ..., "msg_id": ..., "payload": {...}, "sender": ..., "sent_at": ...}``.
The current schema version byte is 0x01; any other version raises
version_mismatch. Corrupt input raises malformed, never yields a partial
message.

Service mode runs a threaded TCP listener, one connection per device,
pipelined requests; every response reuses the request's msg_id as its
correlation id. Simulation mode bypasses bytes entirely and only counts
messages (see :mod:`twotsd.simulation`).
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

from . import codec
from .domain import PerformanceRecord, ResourceProfile, Task, TimestampMs
from .errors import (
    MalformedFrameError,
    TwoTsdError,
    UnknownKindError,
    ValidationError,
    VersionMismatchError,
)
from .matching import Stage, StageResult
from .teacher import Candidate, CandidateBundle, TeacherAgent

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 16 * 1024 * 1024
SERVER_SENDER = "server"

_LEN = struct.Struct(">I")


class MessageKind(Enum):
    RESOURCE_REPORT = "resource_report"
    PERFORMANCE_RECORD = "performance_record"
    TASK_REQUEST = "task_request"
    CANDIDATE_BUNDLE = "candidate_bundle"
    ACK = "ack"
    ERROR = "error"


@dataclass(frozen=True)
class Ack:
    detail: str | None = None


@dataclass(frozen=True)
class ErrorInfo:
    code: str
    detail: str


@dataclass(frozen=True)
class Message:
    """One protocol message. ``payload`` type must match ``kind``."""

    kind: MessageKind
    sender: str
    payload: Any
    msg_id: str
    sent_at: TimestampMs

    def __post_init__(self):
        expected = _PAYLOADS[self.kind][0]
        if not isinstance(self.payload, expected):
            raise ValidationError(
                f"{self.kind.value} payload must be {expected.__name__}, "
                f"got {type(self.payload).__name__}",
                field="payload",
            )
        if not self.sender:
            raise ValidationError("sender must be nonempty", field="sender")
        if not self.msg_id:
            raise ValidationError("msg_id must be nonempty", field="msg_id")


def _stage_result_to_dict(s: StageResult) -> dict[str, Any]:
    return {"stage": s.stage.value, "passed": s.passed, "carry": s.carry, "note": s.note}


def _stage_result_from_dict(doc: dict[str, Any]) -> StageResult:
    return StageResult(Stage(doc["stage"]), doc["passed"], doc["carry"], doc["note"])


def bundle_to_dict(bundle: CandidateBundle) -> dict[str, Any]:
    return {
        "task_id": bundle.task_id,
        "generated_at": bundle.generated_at,
        "candidates": [
            {
                "semantics": codec.semantics_to_dict(c.semantics),
                "matched": c.matched,
                "stages": [_stage_result_to_dict(s) for s in c.stages],
            }
            for c in bundle.candidates
        ],
    }


def bundle_from_dict(doc: dict[str, Any]) -> CandidateBundle:
    candidates = tuple(
        Candidate(
            semantics=codec.semantics_from_dict(item["semantics"]),
            matched=item["matched"],
            stages=tuple(_stage_result_from_dict(s) for s in item["stages"]),
        )
        for item in doc["candidates"]
    )
    return CandidateBundle(doc["task_id"], candidates, doc["generated_at"])


# kind -> (payload type, payload to dict, dict to payload). The record entry
# is codec.record_from_dict rather than domain.validate_record itself, so the
# validator is looked up at call time, not bound here at import.
_PAYLOADS: dict[MessageKind, tuple[type, Callable, Callable]] = {
    MessageKind.RESOURCE_REPORT: (ResourceProfile, codec.profile_to_dict, codec.profile_from_dict),
    MessageKind.PERFORMANCE_RECORD: (PerformanceRecord, codec.record_to_dict, codec.record_from_dict),
    MessageKind.TASK_REQUEST: (Task, codec.task_to_dict, codec.task_from_dict),
    MessageKind.CANDIDATE_BUNDLE: (CandidateBundle, bundle_to_dict, bundle_from_dict),
    MessageKind.ACK: (Ack, lambda a: {"detail": a.detail}, lambda doc: Ack(detail=doc.get("detail"))),
    MessageKind.ERROR: (
        ErrorInfo,
        lambda e: {"code": e.code, "detail": e.detail},
        lambda doc: ErrorInfo(code=doc["code"], detail=doc["detail"]),
    ),
}


def encode(msg: Message) -> bytes:
    """Canonical, self-delimiting frame for one message."""
    doc = {
        "kind": msg.kind.value,
        "sender": msg.sender,
        "msg_id": msg.msg_id,
        "sent_at": msg.sent_at,
        "payload": _PAYLOADS[msg.kind][1](msg.payload),
    }
    body = bytes([PROTOCOL_VERSION]) + codec.canonical_json_bytes(doc)
    return _LEN.pack(len(body)) + body


def _decode_body(body: bytes) -> Message:
    if len(body) < 1:
        raise MalformedFrameError("empty frame body")
    version = body[0]
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(f"schema version {version}, supported {PROTOCOL_VERSION}")
    try:
        doc = json.loads(body[1:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFrameError(f"bad message document: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedFrameError("message document must be an object")
    try:
        kind = MessageKind(doc["kind"])
    except KeyError:
        raise MalformedFrameError("message document missing kind") from None
    except ValueError:
        raise UnknownKindError(f"unknown message kind {doc.get('kind')!r}") from None
    try:
        return Message(
            kind=kind,
            sender=doc["sender"],
            payload=_PAYLOADS[kind][2](doc["payload"]),
            msg_id=doc["msg_id"],
            sent_at=doc["sent_at"],
        )
    except (TwoTsdError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedFrameError(f"bad {kind.value} payload: {exc}") from None


def decode(data: bytes) -> Message:
    """Inverse of encode on exactly one frame; anything else is malformed."""
    if len(data) < _LEN.size:
        raise MalformedFrameError("truncated length prefix")
    (length,) = _LEN.unpack(data[: _LEN.size])
    if length > MAX_FRAME_BYTES:
        raise MalformedFrameError(f"frame length {length} exceeds cap")
    body = data[_LEN.size :]
    if len(body) < length:
        raise MalformedFrameError(f"truncated frame: need {length} body bytes, have {len(body)}")
    if len(body) > length:
        raise MalformedFrameError("trailing bytes after frame")
    return _decode_body(body)


def read_frame(sock: socket.socket) -> Message | None:
    """Read one frame off a socket; None on clean EOF at a frame boundary."""
    header = _recv_exact(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise MalformedFrameError(f"frame length {length} exceeds cap")
    body = _recv_exact(sock, length) if length else b""
    if body is None:
        raise MalformedFrameError("connection dropped before frame body")
    return _decode_body(body)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """n bytes, or None on EOF before the first byte; mid-read EOF is an error."""
    chunks: list[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(n - got)
        if not chunk:
            if got == 0:
                return None
            raise MalformedFrameError("connection dropped mid-frame")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        server: TrustServer = self.server  # type: ignore[assignment]
        while True:
            try:
                msg = read_frame(self.request)
            except TwoTsdError as exc:
                try:
                    self.request.sendall(encode(self._error(exc, "unknown")))
                except OSError:
                    pass
                return
            if msg is None:
                return
            try:
                response = server.dispatch(msg)
            except TwoTsdError as exc:
                response = self._error(exc, msg.msg_id)
            self.request.sendall(encode(response))

    def _error(self, exc: TwoTsdError, msg_id: str) -> Message:
        server: TrustServer = self.server  # type: ignore[assignment]
        return Message(
            MessageKind.ERROR, SERVER_SENDER, ErrorInfo(exc.code, exc.message), msg_id, server.clock()
        )


class TrustServer(socketserver.ThreadingTCPServer):
    """TCP service mode: wraps a TeacherAgent behind the framed protocol."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, teacher: TeacherAgent, host: str = "127.0.0.1", port: int = 0,
                 clock=None):
        self.teacher = teacher
        self.clock = clock or (lambda: 0)
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    def dispatch(self, msg: Message) -> Message:
        now = self.clock()
        if msg.kind is MessageKind.RESOURCE_REPORT:
            self.teacher.handle_resource_report(msg.payload)
            return Message(MessageKind.ACK, SERVER_SENDER, Ack(), msg.msg_id, now)
        if msg.kind is MessageKind.PERFORMANCE_RECORD:
            self.teacher.handle_performance_record(msg.payload)
            return Message(MessageKind.ACK, SERVER_SENDER, Ack(), msg.msg_id, now)
        if msg.kind is MessageKind.TASK_REQUEST:
            bundle = self.teacher.handle_task_request(msg.payload, now)
            return Message(MessageKind.CANDIDATE_BUNDLE, SERVER_SENDER, bundle, msg.msg_id, now)
        raise UnknownKindError(f"server cannot handle {msg.kind.value} requests")

    def serve_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class DeviceClient:
    """Minimal synchronous client: one connection, strict send/expect pairs."""

    def __init__(self, host: str, port: int, device: str, clock=None):
        self.device = device
        self.clock = clock or (lambda: 0)
        self._sock = socket.create_connection((host, port))
        self._seq = 0

    def _next_id(self) -> str:
        self._seq += 1
        return f"{self.device}-{self._seq}"

    def call(self, kind: MessageKind, payload: Any) -> Message:
        msg = Message(kind, self.device, payload, self._next_id(), self.clock())
        self._sock.sendall(encode(msg))
        response = read_frame(self._sock)
        if response is None:
            raise MalformedFrameError("server closed connection")
        return response

    def close(self):
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
