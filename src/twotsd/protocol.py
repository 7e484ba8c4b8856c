"""Message schemas and transport between devices and the server.

Wire format, bit-exact:

    frame := length(4 bytes, big-endian, unsigned) || body
    body  := version(1 byte) || document(UTF-8 JSON, canonical)

``length`` counts the body (version byte + document). The document is a JSON
object with sorted keys and compact separators, so encoding is deterministic:
``{"kind": ..., "msg_id": ..., "payload": {...}, "sender": ..., "sent_at": ...}``.
The current schema version byte is 0x03; any other version raises
version_mismatch. Canonical form is what ``encode`` guarantees; ``decode``
accepts any JSON object with the right fields, in any key order or layout.
Corrupt input raises malformed, never yields a partial message. A body longer
than ``MAX_FRAME_BYTES`` is refused on both sides: ``encode`` raises rather
than emit a frame every peer would reject.

Each payload but the bundle is its value's fields by name
(``codec.to_jsonable``), decoded through ``domain.from_fields``. A
``candidate_bundle`` payload is ``{"candidates": [...], "generated_at": ...,
"task_id": ...}``, where each candidate is one positional row of its trust
semantics, the columns of ``codec.SEMANTICS_COLUMNS`` in order:

    [device, task_type, state, throughput, loss_rate, accuracy, proc_speed,
     window_from, window_to, extracted_at, record_count]

The four trend columns hold ``Trend`` labels, and a semantics without a
window has two nulls there. A bundle holds only matched, trusted devices, in
strictly ascending device order; the per-stage chain results stay on the
server. Each row's bytes come from ``codec.semantics_row_json``, which fills
once per extraction: the canonical bytes are cached on the immutable
``TrustSemantics`` the first time it is shipped, and re-extraction replaces
the instance, so a request joins cached rows instead of re-encoding every
leaf. The decoder builds each row through the validating ``TrustSemantics``
constructor, so a bad row fails the whole frame as malformed.

An error reply echoes at most ``_MAX_DETAIL_CHARS`` of its detail; when even
that frame is over the cap, the server closes the connection without one.

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
from functools import partial
from typing import Any, Callable

from . import codec
from .domain import (
    PerformanceRecord,
    ResourceProfile,
    Task,
    TimestampMs,
    _require_device_id,
    _require_timestamp,
    from_fields,
    validate_task,
)
from .errors import (
    MalformedFrameError,
    ProtocolError,
    TwoTsdError,
    UnknownKindError,
    ValidationError,
    VersionMismatchError,
)
from .teacher import Candidate, CandidateBundle, TeacherAgent

PROTOCOL_VERSION = 3
MAX_FRAME_BYTES = 16 * 1024 * 1024
SERVER_SENDER = "server"

_LEN = struct.Struct(">I")
_VERSION_BYTE = bytes([PROTOCOL_VERSION])


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

    def __post_init__(self):
        if self.detail is not None and not isinstance(self.detail, str):
            raise ValidationError("detail must be a string or null", field="detail")


@dataclass(frozen=True)
class ErrorInfo:
    code: str
    detail: str

    def __post_init__(self):
        _require_device_id(self.code, "code")
        if not isinstance(self.detail, str):
            raise ValidationError("detail must be a string", field="detail")


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
        _require_device_id(self.sender, "sender")
        _require_device_id(self.msg_id, "msg_id")
        _require_timestamp(self.sent_at, "sent_at")


def _bundle_json(bundle: CandidateBundle) -> bytes:
    """The bundle payload, joined from each candidate's cached semantics row bytes."""
    return b"".join((
        b'{"candidates":[',
        b",".join([codec.semantics_row_json(c.semantics) for c in bundle.candidates]),
        b'],"generated_at":',
        codec.canonical_json_bytes(bundle.generated_at),
        b',"task_id":',
        codec.canonical_json_bytes(bundle.task_id),
        b"}",
    ))


def bundle_from_dict(doc: dict[str, Any]) -> CandidateBundle:
    """Every bundled candidate is matched, so the wire carries only its semantics row."""
    candidates = tuple([Candidate(codec.semantics_from_row(row), True) for row in doc["candidates"]])
    return CandidateBundle(doc["task_id"], candidates, doc["generated_at"])


# kind -> (payload type, payload document to payload). Every payload but the
# bundle is encoded as ``codec.to_jsonable`` gives it. The record entry is
# codec.record_from_dict rather than domain.validate_record itself, so the
# validator is looked up at call time, not bound here at import.
_PAYLOADS: dict[MessageKind, tuple[type, Callable[[Any], Any]]] = {
    MessageKind.RESOURCE_REPORT: (ResourceProfile, partial(from_fields, ResourceProfile, kind="profile")),
    MessageKind.PERFORMANCE_RECORD: (PerformanceRecord, codec.record_from_dict),
    MessageKind.TASK_REQUEST: (Task, validate_task),
    MessageKind.CANDIDATE_BUNDLE: (CandidateBundle, bundle_from_dict),
    MessageKind.ACK: (Ack, partial(from_fields, Ack, kind="ack")),
    MessageKind.ERROR: (ErrorInfo, partial(from_fields, ErrorInfo, kind="error")),
}


def encode(msg: Message) -> bytes:
    """Canonical, self-delimiting frame for one message.

    The document is written key by key in sorted order, each value through
    ``codec.canonical_json_bytes``, so its bytes equal that function's output
    for the whole document without building it as one dict.
    """
    dumps = codec.canonical_json_bytes
    if msg.kind is MessageKind.CANDIDATE_BUNDLE:
        payload = _bundle_json(msg.payload)
    else:
        payload = dumps(codec.to_jsonable(msg.payload))
    body = b"".join((
        _VERSION_BYTE,
        b'{"kind":', dumps(msg.kind.value),
        b',"msg_id":', dumps(msg.msg_id),
        b',"payload":', payload,
        b',"sender":', dumps(msg.sender),
        b',"sent_at":', dumps(msg.sent_at),
        b"}",
    ))
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"{msg.kind.value} frame body of {len(body)} bytes exceeds cap {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(body)) + body


def _decode_body(body: bytes) -> Message:
    if len(body) < 1:
        raise MalformedFrameError("empty frame body")
    version = body[0]
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(f"schema version {version}, supported {PROTOCOL_VERSION}")
    try:
        doc = json.loads(body[1:].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an overlong int or too deep nesting
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
            payload=_PAYLOADS[kind][1](doc["payload"]),
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


# An error reply echoes at most this many characters of its detail, which can
# repeat client input (an unknown kind, a rejected field value). Escaped as
# ASCII, a character takes at most 12 bytes, so the reply to a framing error
# stays a few KiB however long the offending input was.
_MAX_DETAIL_CHARS = 200


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        server: TrustServer = self.server  # type: ignore[assignment]
        while True:
            try:
                msg = read_frame(self.request)
            except TwoTsdError as exc:  # a framing error: reply, then hang up
                self._send(self._error_frame(exc, "unknown"))
                return
            except OSError:  # the client reset the connection
                return
            if msg is None:
                return
            try:
                frame = encode(server.dispatch(msg))
            except TwoTsdError as exc:  # includes a reply too big to frame
                frame = self._error_frame(exc, msg.msg_id)
            if not self._send(frame):
                return

    def _send(self, frame: bytes | None) -> bool:
        """Send ``frame``; False when there is none or the client is gone."""
        if frame is None:
            return False
        try:
            self.request.sendall(frame)
        except OSError:
            return False
        return True

    def _error_frame(self, exc: TwoTsdError, msg_id: str) -> bytes | None:
        """An ``error`` frame with a bounded detail, or None if even that is over the cap.

        Only a ``msg_id`` close to the cap, echoed as the correlation id, can
        make the error frame too big; the connection is then closed quietly.
        """
        server: TrustServer = self.server  # type: ignore[assignment]
        detail = exc.message
        if len(detail) > _MAX_DETAIL_CHARS:
            detail = detail[:_MAX_DETAIL_CHARS] + "..."
        error = Message(MessageKind.ERROR, SERVER_SENDER, ErrorInfo(exc.code, detail), msg_id, server.clock())
        try:
            return encode(error)
        except ProtocolError:
            return None


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

    def _next_msg_id(self) -> str:
        self._seq += 1
        return f"{self.device}-{self._seq}"

    def call(self, kind: MessageKind, payload: Any) -> Message:
        msg = Message(kind, self.device, payload, self._next_msg_id(), self.clock())
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
