"""Message schemas and transport between devices and the server.

Wire format, bit-exact:

    frame  := length(4 bytes, big-endian, unsigned) || body
    body   := version(1 byte, 0x04) || kind(1 byte) || rest
    rest   := document                                       (every other kind)
            | header_length(uint32) || header || record * n  (candidate_bundle)

``length`` counts the body. The kind byte is the message kind's position in
``MessageKind``, from 1: ``resource_report`` 1, ``performance_record`` 2,
``task_request`` 3, ``candidate_bundle`` 4, ``ack`` 5, ``error`` 6. A version
byte other than 0x04 raises version_mismatch and an unknown kind byte
unknown_kind. All multi-byte integers after the kind byte are little-endian.

A ``document`` is a canonical JSON object (UTF-8, sorted keys, compact
separators, ASCII) ``{"msg_id": ..., "payload": {...}, "sender": ...,
"sent_at": ...}``. Each payload is its value's fields by name
(``codec.to_jsonable``), decoded through ``domain.from_fields``. Canonical
form is what ``encode`` guarantees; ``decode`` accepts any JSON object with
the right fields, in any key order or layout, and ignores other keys.

A candidate bundle is binary after a short canonical-JSON header, one
object with ``devices`` (the candidates' device ids, one JSON list),
``generated_at``, ``msg_id``, ``sender``, ``sent_at``, ``task_id`` and
``task_type`` (the candidates' one task type, null when there are none).
Each id is any string ``_require_device_id`` accepts, escaped as JSON. Then
one semantics record per device, in the same order: the record that
``codec`` defines and a snapshot's leaf blocks hold too. A bundle holds only
matched, trusted devices, in strictly ascending device order, so the wire
has no state column; the per-stage chain results stay on the server. A
``CandidateBundle`` holds the header's values and the record block as they
travel: each leaf's record is made once per extraction and kept on the
immutable ``TrustSemantics`` (re-extraction replaces the instance), so the
teacher's bundle joins cached bytes and ``encode`` writes that block as it
is. The decoder checks the block's length, then checks its columns whole
through ``codec.checked_columns`` with every device trusted, and the
bundle checks their order. A bad value fails the whole frame as malformed,
naming its field and the first device that carries it. The decoded bundle
keeps the frame's block and the checked columns and builds no value: the
student decides from the code columns, and ``candidates`` is built on
first read.

Corrupt input raises malformed, never yields a partial message. A body longer
than ``MAX_FRAME_BYTES`` is refused on both sides: ``encode`` raises rather
than emit a frame every peer would reject. An error reply echoes at most
``_MAX_DETAIL_CHARS`` of its detail; when even that frame is over the cap,
the server closes the connection without one.

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
from .teacher import _TRUSTED, CandidateBundle, TeacherAgent

PROTOCOL_VERSION = 4
MAX_FRAME_BYTES = 16 * 1024 * 1024
SERVER_SENDER = "server"

_LEN = struct.Struct(">I")
_HEADER_LEN = struct.Struct("<I")
_RECORD_SIZE = codec._RECORD.size
_TRUSTED_CODE = bytes([codec._STATE_CODE[_TRUSTED]])


class MessageKind(Enum):
    RESOURCE_REPORT = "resource_report"
    PERFORMANCE_RECORD = "performance_record"
    TASK_REQUEST = "task_request"
    CANDIDATE_BUNDLE = "candidate_bundle"
    ACK = "ack"
    ERROR = "error"


_KIND_OF = dict(enumerate(MessageKind, 1))  # kind byte -> kind
_PREFIX = {kind: bytes((PROTOCOL_VERSION, code)) for code, kind in _KIND_OF.items()}


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
        expected = _PAYLOAD_TYPES[self.kind]
        if not isinstance(self.payload, expected):
            raise ValidationError(
                f"{self.kind.value} payload must be {expected.__name__}, "
                f"got {type(self.payload).__name__}",
                field="payload",
            )
        _require_device_id(self.sender, "sender")
        _require_device_id(self.msg_id, "msg_id")
        _require_timestamp(self.sent_at, "sent_at")


_PAYLOAD_TYPES: dict[MessageKind, type] = {
    MessageKind.RESOURCE_REPORT: ResourceProfile,
    MessageKind.PERFORMANCE_RECORD: PerformanceRecord,
    MessageKind.TASK_REQUEST: Task,
    MessageKind.CANDIDATE_BUNDLE: CandidateBundle,
    MessageKind.ACK: Ack,
    MessageKind.ERROR: ErrorInfo,
}

# kind -> payload document to payload, for every kind whose body is a JSON
# document. The record entry is codec.record_from_dict rather than
# domain.validate_record itself, so the validator is looked up at call time,
# not bound here at import.
_FROM_DOCUMENT: dict[MessageKind, Callable[[Any], Any]] = {
    MessageKind.RESOURCE_REPORT: partial(from_fields, ResourceProfile, kind="profile"),
    MessageKind.PERFORMANCE_RECORD: codec.record_from_dict,
    MessageKind.TASK_REQUEST: validate_task,
    MessageKind.ACK: partial(from_fields, Ack, kind="ack"),
    MessageKind.ERROR: partial(from_fields, ErrorInfo, kind="error"),
}


def _bundle_rest(msg: Message) -> bytes:
    """The bundle body after its kind byte: the JSON header, then the bundle's record block as it is.

    ``devices`` sorts first among the header's keys, so the header is the
    bundle's device ids as a JSON list, then the canonical JSON of the other
    keys.
    """
    bundle = msg.payload
    rest = codec.canonical_json_bytes({
        "generated_at": bundle.generated_at,
        "msg_id": msg.msg_id,
        "sender": msg.sender,
        "sent_at": msg.sent_at,
        "task_id": bundle.task_id,
        "task_type": bundle.task_type,
    })
    header = b"".join([b'{"devices":', codec.canonical_json_bytes(bundle.device_ids), b",", rest[1:]])
    return b"".join([_HEADER_LEN.pack(len(header)), header, bundle.block])


def encode(msg: Message) -> bytes:
    """Canonical, self-delimiting frame for one message."""
    if msg.kind is MessageKind.CANDIDATE_BUNDLE:
        rest = _bundle_rest(msg)
    else:
        rest = codec.canonical_json_bytes({
            "msg_id": msg.msg_id,
            "payload": codec.to_jsonable(msg.payload),
            "sender": msg.sender,
            "sent_at": msg.sent_at,
        })
    size = 2 + len(rest)
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"{msg.kind.value} frame body of {size} bytes exceeds cap {MAX_FRAME_BYTES}")
    return b"".join((_LEN.pack(size), _PREFIX[msg.kind], rest))


def _json_object(data: bytes, what: str) -> dict:
    try:
        doc = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an overlong int or too deep nesting
        raise MalformedFrameError(f"bad {what}: {exc}") from None
    if not isinstance(doc, dict):
        raise MalformedFrameError(f"{what} must be an object")
    return doc


def _decode_body(body: bytes) -> Message:
    if len(body) < 1:
        raise MalformedFrameError("empty frame body")
    version = body[0]
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(f"schema version {version}, supported {PROTOCOL_VERSION}")
    if len(body) < 2:
        raise MalformedFrameError("frame body has no kind byte")
    kind = _KIND_OF.get(body[1])
    if kind is None:
        raise UnknownKindError(f"unknown message kind byte {body[1]}")
    if kind is MessageKind.CANDIDATE_BUNDLE:
        doc, block = _split_bundle(body)
    else:
        doc, block = _json_object(body[2:], "message document"), None
    try:
        payload = _FROM_DOCUMENT[kind](doc["payload"]) if block is None else _bundle_of(doc, block)
        return Message(kind, doc["sender"], payload, doc["msg_id"], doc["sent_at"])
    except (TwoTsdError, KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedFrameError(f"bad {kind.value} payload: {exc}") from None


def _split_bundle(body: bytes) -> tuple[dict, bytes]:
    """A bundle body's parsed header and its record block."""
    start = 2 + _HEADER_LEN.size
    if len(body) < start:
        raise MalformedFrameError("bundle body has no header length")
    (size,) = _HEADER_LEN.unpack_from(body, 2)
    if len(body) < start + size:
        raise MalformedFrameError(f"bundle header of {size} bytes overruns the frame body")
    return _json_object(body[start : start + size], "bundle header"), body[start + size :]


def _bundle_of(header: dict, block: bytes) -> CandidateBundle:
    """The bundle that ``header`` and its record ``block`` describe, every device trusted.

    The block's columns are checked whole here; the bundle keeps them and
    builds no value until its ``candidates`` are read.
    """
    devices = header["devices"]
    if type(devices) is not list:
        raise ValidationError("devices must be a list", field="devices")
    if len(block) != len(devices) * _RECORD_SIZE:
        raise ValidationError(
            f"record block of {len(block)} bytes, not {len(devices)} records of {_RECORD_SIZE}",
            field="candidates",
        )
    columns = None
    if devices:
        columns = codec.checked_columns(header["task_type"], devices, _TRUSTED_CODE * len(devices), block)
    return CandidateBundle.of_columns(header["task_id"], header["generated_at"], columns, block)


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
# repeat client input (a rejected field value). Escaped as
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
