"""Wire protocol: framing round-trips, decode fuzzing, TCP service mode."""

from __future__ import annotations

import dataclasses
import json
import re
import socket
import struct
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twotsd import codec, protocol
from twotsd.domain import (
    COMM_METRICS,
    COMP_METRICS,
    PerformanceRecord,
    ResourceProfile,
    Task,
    Trend,
    TrustSemantics,
    TrustState,
    Verdict,
)
from twotsd.errors import (
    MalformedFrameError,
    ProtocolError,
    UnknownKindError,
    ValidationError,
    VersionMismatchError,
)
from twotsd.matching import MatchConfig
from twotsd.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Ack,
    DeviceClient,
    ErrorInfo,
    Message,
    MessageKind,
    TrustServer,
    decode,
    encode,
    read_frame,
)
from twotsd.semantics import DeterministicEngine
from twotsd.teacher import Candidate, CandidateBundle, TeacherAgent, assemble_bundle

from _builders import make_profile, make_record, make_records, make_task, window_of


def _sample_bundle():
    teacher = TeacherAgent()
    teacher.handle_resource_report(make_profile(device="a_k", updated_at=50_000))
    for rec in make_records(8, collaborator="a_k"):
        teacher.handle_performance_record(rec)
    return teacher.handle_task_request(make_task(), now=50_000)


def _messages():
    return [
        Message(MessageKind.RESOURCE_REPORT, "a_k", make_profile(), "a_k-1", 10),
        Message(MessageKind.PERFORMANCE_RECORD, "a_i", make_record(), "a_i-1", 11),
        Message(MessageKind.TASK_REQUEST, "a_i", make_task(), "a_i-2", 12),
        Message(MessageKind.CANDIDATE_BUNDLE, "server", _sample_bundle(), "a_i-2", 13),
        Message(MessageKind.ACK, "server", Ack(detail="stored"), "a_k-1", 14),
        Message(MessageKind.ERROR, "server", ErrorInfo("stale_update", "old report"), "a_k-2", 15),
    ]


@pytest.mark.parametrize("msg", _messages(), ids=lambda m: m.kind.value)
def test_round_trip_every_kind(msg):
    assert decode(encode(msg)) == msg


def test_encode_is_deterministic_and_framed():
    msg = _messages()[0]
    frame = encode(msg)
    assert frame == encode(msg)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert frame[4] == PROTOCOL_VERSION
    body = frame[5:].decode("ascii")  # raises if the document is not pure ascii
    # top-level keys appear in sorted order in the canonical document
    keys = ["kind", "msg_id", "payload", "sender", "sent_at"]
    positions = [body.index(f'"{k}"') for k in keys]
    assert positions == sorted(positions)


@given(
    sender=st.text(min_size=1, max_size=20),
    msg_id=st.text(min_size=1, max_size=20),
    sent_at=st.integers(0, 2**48),
    at=st.integers(0, 2**48),
    throughput=st.floats(1e-3, 1e5),
    loss=st.floats(0, 1),
    proc=st.floats(1e-3, 1e5),
    acc=st.floats(0, 1),
    verdict=st.sampled_from(list(Verdict)),
)
def test_round_trip_survives_value_ranges(sender, msg_id, sent_at, at, throughput, loss, proc, acc, verdict):
    record = make_record(
        at=at, throughput_mbps=throughput, loss_rate=loss,
        proc_speed_mbps=proc, accuracy=acc, verdict=verdict,
    )
    msg = Message(MessageKind.PERFORMANCE_RECORD, sender, record, msg_id, sent_at)
    assert decode(encode(msg)) == msg


def _semantics_doc(ts: TrustSemantics) -> dict:
    """The semantics as a keyed document, as protocol v2 carried each candidate."""
    return {
        "device": ts.device, "task_type": ts.task_type, "state": ts.state.value,
        "comm_trends": {m: getattr(ts, m).value for m in COMM_METRICS},
        "comp_trends": {m: getattr(ts, m).value for m in COMP_METRICS},
        "window": list(ts.window) if ts.window is not None else None,
        "extracted_at": ts.extracted_at, "record_count": ts.record_count,
    }


def _reference_row(ts: TrustSemantics) -> list:
    """The semantics document's fields, picked by name in ``SEMANTICS_COLUMNS`` order."""
    doc = _semantics_doc(ts)
    window_from, window_to = doc["window"] or (None, None)
    fields = {**doc, **doc["comm_trends"], **doc["comp_trends"],
              "window_from": window_from, "window_to": window_to}
    return [fields[column] for column in codec.SEMANTICS_COLUMNS]


def _reference_frame(msg: Message) -> bytes:
    """The frame as one whole document, built without ``codec``, then one canonical dump."""
    p = msg.payload
    payload = {
        MessageKind.RESOURCE_REPORT: lambda: dataclasses.asdict(p),
        MessageKind.PERFORMANCE_RECORD: lambda: {**dataclasses.asdict(p), "verdict": p.verdict.value},
        MessageKind.TASK_REQUEST: lambda: dataclasses.asdict(p),
        MessageKind.CANDIDATE_BUNDLE: lambda: {
            "task_id": p.task_id,
            "generated_at": p.generated_at,
            "candidates": [_reference_row(c.semantics) for c in p.candidates],
        },
        MessageKind.ACK: lambda: {"detail": p.detail},
        MessageKind.ERROR: lambda: {"code": p.code, "detail": p.detail},
    }[msg.kind]()
    doc = {
        "kind": msg.kind.value,
        "sender": msg.sender,
        "msg_id": msg.msg_id,
        "sent_at": msg.sent_at,
        "payload": payload,
    }
    # The canonical arguments spelled out, independent of codec's shared encoder.
    document = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    body = bytes([PROTOCOL_VERSION]) + document.encode("ascii")
    return len(body).to_bytes(4, "big") + body


# Any code point: non-ASCII, astral (a surrogate pair when escaped) and control.
_IDS = st.text(min_size=1, max_size=12)
_STAMPS = st.integers(-(2**63), 2**63 - 1)  # timestamps are signed 64-bit
_MAX = sys.float_info.max
_POSITIVE = st.floats(min_value=5e-324, max_value=_MAX) | st.sampled_from([5e-324, _MAX])
_NONNEG = st.floats(min_value=0.0, max_value=_MAX) | st.sampled_from([-0.0, 0.0, 5e-324, _MAX])
_FRACTION = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0])


@st.composite
def _bundles(draw):
    window = draw(st.none() | st.tuples(_STAMPS, _STAMPS).map(sorted).map(tuple))
    leaf = TrustSemantics(
        device="placeholder",
        task_type=draw(_IDS),
        state=TrustState.TRUSTED,
        **{m: draw(st.sampled_from(list(Trend))) for m in COMM_METRICS + COMP_METRICS},
        window=window,
        extracted_at=draw(_STAMPS),
        record_count=draw(st.integers(0, 2**64)),
    )
    n = draw(st.sampled_from([0, 1, 3, 1_000]))
    if n == 1_000:
        prefix = draw(_IDS)
        devices = [f"{prefix}{i:04d}" for i in range(n)]
    else:
        devices = sorted(draw(st.lists(_IDS, min_size=n, max_size=n, unique=True)))
    candidates = tuple(Candidate(dataclasses.replace(leaf, device=d), True) for d in devices)
    return CandidateBundle(draw(_IDS), candidates, draw(_STAMPS))


@st.composite
def _records(draw):
    owner = draw(_IDS)
    return PerformanceRecord(
        owner=owner,
        collaborator=draw(_IDS.filter(lambda c: c != owner)),
        task_type=draw(_IDS),
        at=draw(_STAMPS),
        throughput_mbps=draw(_NONNEG),
        loss_rate=draw(_FRACTION),
        proc_speed_mbps=draw(_NONNEG),
        accuracy=draw(_FRACTION),
        verdict=draw(st.sampled_from(list(Verdict))),
    )


_PAYLOAD_STRATEGIES = {
    MessageKind.RESOURCE_REPORT: st.builds(
        ResourceProfile, device=_IDS, cpu_cps=_POSITIVE, storage_mb=_NONNEG,
        bandwidth_mbps=_POSITIVE, updated_at=_STAMPS,
    ),
    MessageKind.PERFORMANCE_RECORD: _records(),
    MessageKind.TASK_REQUEST: st.builds(
        Task, task_id=_IDS, owner=_IDS, task_type=_IDS, size_mb=_POSITIVE,
        density_cpb=_POSITIVE, deadline_s=_POSITIVE,
    ),
    MessageKind.CANDIDATE_BUNDLE: _bundles(),
    MessageKind.ACK: st.builds(Ack, detail=st.none() | st.text(max_size=20)),
    MessageKind.ERROR: st.builds(
        ErrorInfo, code=st.text(min_size=1, max_size=12), detail=st.text(max_size=30)
    ),
}


@pytest.mark.parametrize("kind", list(MessageKind), ids=lambda k: k.value)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_frame_equals_the_whole_document_encoding(kind, data):
    payload = data.draw(_PAYLOAD_STRATEGIES[kind])
    msg = Message(kind, data.draw(_IDS), payload, data.draw(_IDS), data.draw(_STAMPS))
    reference = _reference_frame(msg)
    assert encode(msg) == reference  # cold: bundle semantics encoded now
    assert encode(msg) == reference  # warm: bundle semantics from the cache


def test_version_byte_is_checked():
    frame = bytearray(encode(_messages()[0]))
    frame[4] = 1  # a protocol v1 peer
    with pytest.raises(VersionMismatchError):
        decode(bytes(frame))


# Frame size of ``_wide_bundle()`` under protocol v2, where each candidate was
# its keyed semantics document (``_semantics_doc``).
_V2_WIDE_FRAME_BYTES = 244_143


def _wide_bundle(n: int = 1_000):
    """A fixed ``n``-candidate bundle: one trusted leaf copied across devices."""
    records = window_of(make_records(8, collaborator="d0000"), "d0000")
    leaf = DeterministicEngine().extract("d0000", "video_transcoding", records)
    leaves = [dataclasses.replace(leaf, device=f"d{i:04d}") for i in range(n)]
    profiles = {ts.device: make_profile(device=ts.device, updated_at=50_000) for ts in leaves}
    return assemble_bundle(make_task(), leaves, profiles.get, 50_000, MatchConfig())


def test_bundle_payload_is_semantics_only_and_within_the_size_bound():
    bundle = _wide_bundle()
    assert len(bundle.candidates) == 1_000
    frame = encode(Message(MessageKind.CANDIDATE_BUNDLE, "server", bundle, "m1", 50_000))
    payload = json.loads(frame[5:])["payload"]
    assert set(payload) == {"candidates", "generated_at", "task_id"}
    assert len(codec.SEMANTICS_COLUMNS) == 11
    for row, candidate in zip(payload["candidates"], bundle.candidates, strict=True):
        assert row == _reference_row(candidate.semantics)
        assert len(row) == 11
    assert b'"stages"' not in frame and b'"comm_trends"' not in frame
    assert len(frame) <= 0.4 * _V2_WIDE_FRAME_BYTES
    decoded = decode(frame).payload
    assert decoded == bundle
    assert all(c.matched for c in decoded.candidates)


@pytest.mark.parametrize("label, bad", [(b'"normal"', b'"upward"'), (b'"trusted"', b'"trustee"')])
def test_bundle_with_an_unknown_semantics_label_is_malformed(label, bad):
    frame = encode(_messages()[3])
    assert label in frame
    tampered = frame.replace(label, bad, 1)  # same length, frame stays valid
    with pytest.raises(MalformedFrameError, match="bad semantics enum value"):
        decode(tampered)


# Each ``_messages()`` frame, byte for byte: any change to one is a wire change,
# a renamed payload field included.
_GOLDEN_FRAMES = {
    MessageKind.RESOURCE_REPORT: bytes.fromhex(
        "000000b4037b226b696e64223a227265736f757263655f7265706f7274222c226d73675f"
        "6964223a22615f6b2d31222c227061796c6f6164223a7b2262616e6477696474685f6d62"
        "7073223a3130302e302c226370755f637073223a31303030303030303030302e302c2264"
        "6576696365223a22615f6b222c2273746f726167655f6d62223a3230302e302c22757064"
        "617465645f6174223a307d2c2273656e646572223a22615f6b222c2273656e745f617422"
        "3a31307d"
    ),
    MessageKind.PERFORMANCE_RECORD: bytes.fromhex(
        "00000109037b226b696e64223a22706572666f726d616e63655f7265636f7264222c226d"
        "73675f6964223a22615f692d31222c227061796c6f6164223a7b22616363757261637922"
        "3a302e39382c226174223a313030302c22636f6c6c61626f7261746f72223a22615f6a22"
        "2c226c6f73735f72617465223a302e30312c226f776e6572223a22615f69222c2270726f"
        "635f73706565645f6d627073223a322e302c227461736b5f74797065223a22766964656f"
        "5f7472616e73636f64696e67222c227468726f7567687075745f6d627073223a3130302e"
        "302c2276657264696374223a22736174697366696564227d2c2273656e646572223a2261"
        "5f69222c2273656e745f6174223a31317d"
    ),
    MessageKind.TASK_REQUEST: bytes.fromhex(
        "000000c4037b226b696e64223a227461736b5f72657175657374222c226d73675f696422"
        "3a22615f692d32222c227061796c6f6164223a7b22646561646c696e655f73223a35302e"
        "302c2264656e736974795f637062223a313030302e302c226f776e6572223a22615f6922"
        "2c2273697a655f6d62223a35302e302c227461736b5f6964223a226332222c227461736b"
        "5f74797065223a22766964656f5f7472616e73636f64696e67227d2c2273656e64657222"
        "3a22615f69222c2273656e745f6174223a31327d"
    ),
    MessageKind.CANDIDATE_BUNDLE: bytes.fromhex(
        "000000e6037b226b696e64223a2263616e6469646174655f62756e646c65222c226d7367"
        "5f6964223a22615f692d32222c227061796c6f6164223a7b2263616e6469646174657322"
        "3a5b5b22615f6b222c22766964656f5f7472616e73636f64696e67222c22747275737465"
        "64222c226e6f726d616c222c226e6f726d616c222c226e6f726d616c222c226e6f726d61"
        "6c222c313030302c383030302c383030302c385d5d2c2267656e6572617465645f617422"
        "3a35303030302c227461736b5f6964223a226332227d2c2273656e646572223a22736572"
        "766572222c2273656e745f6174223a31337d"
    ),
    MessageKind.ACK: bytes.fromhex(
        "0000005d037b226b696e64223a2261636b222c226d73675f6964223a22615f6b2d31222c"
        "227061796c6f6164223a7b2264657461696c223a2273746f726564227d2c2273656e6465"
        "72223a22736572766572222c2273656e745f6174223a31347d"
    ),
    MessageKind.ERROR: bytes.fromhex(
        "00000079037b226b696e64223a226572726f72222c226d73675f6964223a22615f6b2d32"
        "222c227061796c6f6164223a7b22636f6465223a227374616c655f757064617465222c22"
        "64657461696c223a226f6c64207265706f7274227d2c2273656e646572223a2273657276"
        "6572222c2273656e745f6174223a31357d"
    ),
}


@pytest.mark.parametrize("msg", _messages(), ids=lambda m: m.kind.value)
def test_every_frame_matches_the_golden_bytes(msg):
    assert encode(msg) == _GOLDEN_FRAMES[msg.kind]
    assert decode(_GOLDEN_FRAMES[msg.kind]) == msg


def _frame_of(doc: dict, version: int = PROTOCOL_VERSION) -> bytes:
    body = bytes([version]) + json.dumps(doc).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


def _bundle_doc(rows: list, **payload) -> dict:
    return {
        "kind": "candidate_bundle", "msg_id": "a_i-2", "sender": "server", "sent_at": 13,
        "payload": {"candidates": rows, "generated_at": 50_000, "task_id": "c2", **payload},
    }


_ROW = ["a_k", "video_transcoding", "trusted", "normal", "normal", "normal", "normal", 1000, 8000, 8000, 8]


def _row(**columns) -> list:
    """``_ROW`` for device ``a_l``, with the named columns replaced."""
    row = dict(zip(codec.SEMANTICS_COLUMNS, _ROW), device="a_l")
    row.update(columns)
    return list(row.values())


def test_a_valid_row_decodes_to_its_semantics():
    bundle = decode(_frame_of(_bundle_doc([_ROW, _row(window_from=None, window_to=None)]))).payload
    assert bundle.devices() == ["a_k", "a_l"]
    assert bundle.candidates[0] == _sample_bundle().candidates[0]
    assert bundle.candidates[1].semantics.window is None  # two nulls are no window


_ARITY = "a semantics row must be a list of 11 values"


@pytest.mark.parametrize(
    "row, error",
    [
        pytest.param(_ROW[:-1], _ARITY, id="short"),
        pytest.param(_ROW + [0], _ARITY, id="long"),
        pytest.param([], _ARITY, id="empty"),
        pytest.param(dict(zip(codec.SEMANTICS_COLUMNS, _row())), _ARITY, id="object"),
        pytest.param("a_l", _ARITY, id="string"),
        pytest.param(None, _ARITY, id="null"),
        pytest.param(_row(state="trustee"), "bad semantics enum value: 'trustee'", id="unknown_state"),
        pytest.param(_row(loss_rate="upward"), "bad semantics enum value: 'upward'", id="unknown_trend"),
        pytest.param(_row(accuracy=["normal"]), "bad semantics enum value", id="unhashable_label"),
        pytest.param(_row(window_from=None), "window.from must be an integer", id="half_null_window_from"),
        pytest.param(_row(window_to=None), "window.to must be an integer", id="half_null_window_to"),
        pytest.param(_row(record_count=True), "record_count must be an integer", id="bool_count"),
        pytest.param(_row(record_count=8.0), "record_count must be an integer", id="float_count"),
        pytest.param(_row(record_count=-1), "record_count must be >= 0", id="negative_count"),
        pytest.param(_row(window_from=9000, window_to=1000), "window.from must be <= window.to",
                     id="reversed_window"),
        pytest.param(_row(extracted_at=8000.5), "extracted_at must be an integer", id="float_extracted_at"),
        pytest.param(_row(device=""), "device must be a nonempty string", id="empty_device"),
        pytest.param(_row(task_type=5), "task_type must be a nonempty string", id="int_task_type"),
        pytest.param(_row(state="untrusted"), "non-trusted candidate a_l", id="untrusted"),
        pytest.param(_row(state="insufficient_data", throughput="increasing"),
                     "insufficient_data semantics must carry only normal trends",
                     id="insufficient_data_with_a_trend"),
    ],
)
def test_a_malformed_row_fails_the_whole_frame(row, error):
    frame = _frame_of(_bundle_doc([_ROW, row]))  # a valid row first: no partial bundle
    with pytest.raises(MalformedFrameError, match=re.escape(f"bad candidate_bundle payload: {error}")):
        decode(frame)


@pytest.mark.parametrize("devices", [["a_k", "a_k"], ["a_l", "a_k"]], ids=["twice", "descending"])
def test_a_bundle_frame_listing_devices_out_of_order_is_malformed(devices):
    frame = _frame_of(_bundle_doc([_row(device=d) for d in devices]))
    with pytest.raises(MalformedFrameError, match="ordered by device id"):
        decode(frame)


@pytest.mark.parametrize(
    "field, value",
    [("sender", 7), ("msg_id", 5), ("sent_at", "13"), ("sent_at", True), ("task_id", ["c2"]),
     ("generated_at", "50000")],
)
def test_a_header_field_of_the_wrong_type_is_malformed(field, value):
    doc = _bundle_doc([_ROW])
    (doc["payload"] if field in doc["payload"] else doc)[field] = value
    with pytest.raises(MalformedFrameError, match=field):
        decode(_frame_of(doc))


@pytest.mark.parametrize("field, value", [("sender", 7), ("msg_id", ""), ("sent_at", 1.5)])
def test_message_type_checks_its_header(field, value):
    fields = {"sender": "a_k", "msg_id": "a_k-1", "sent_at": 0, field: value}
    with pytest.raises(ValidationError, match=field):
        Message(MessageKind.ACK, payload=Ack(), **fields)


@pytest.mark.parametrize(
    "kind, payload, field",
    [("error", {"code": 5, "detail": "x"}, "code"), ("error", {"code": "", "detail": "x"}, "code"),
     ("error", {"code": "stale_update", "detail": ["x"]}, "detail"), ("ack", {"detail": 7}, "detail")],
    ids=["error-code-int", "error-code-empty", "error-detail-list", "ack-detail-int"],
)
def test_an_ack_or_error_payload_of_the_wrong_type_is_malformed(kind, payload, field):
    doc = {"kind": kind, "msg_id": "m1", "sender": "server", "sent_at": 0, "payload": payload}
    with pytest.raises(MalformedFrameError, match=f"bad {kind} payload: {field} must be"):
        decode(_frame_of(doc))
    ack = {**doc, "kind": "ack", "payload": {"detail": None}}
    assert decode(_frame_of(ack)).payload == Ack()


@pytest.mark.parametrize(
    "kind, payload, message",
    [("resource_report", {"device": "a_k", "cpu_cps": 1e9},
      "missing profile fields: bandwidth_mbps, storage_mb, updated_at"),
     ("performance_record", {"owner": "a_i", "collaborator": "a_k", "task_type": "t", "verdict": "satisfied"},
      "missing record fields: accuracy, at, loss_rate, proc_speed_mbps, throughput_mbps"),
     ("task_request", {"task_id": "c2", "owner": "a_i"},
      "missing task fields: deadline_s, density_cpb, size_mb, task_type"),
     ("error", {"detail": "x"}, "missing error fields: code")],
    ids=["profile", "record", "task", "error"],
)
def test_a_payload_missing_fields_names_every_one(kind, payload, message):
    doc = {"kind": kind, "msg_id": "m1", "sender": "a_i", "sent_at": 0, "payload": payload}
    with pytest.raises(MalformedFrameError, match=re.escape(f"bad {kind} payload: {message}")):
        decode(_frame_of(doc))
    ack = {**doc, "kind": "ack", "payload": {}}  # an ack's detail has a default
    assert decode(_frame_of(ack)).payload == Ack()


def _request_doc(kind: str, payload: dict, **header) -> dict:
    return {"kind": kind, "msg_id": "a_i-1", "sender": "a_i", "sent_at": 0, "payload": payload, **header}


def test_a_record_or_task_frame_with_extra_and_unknown_keys_decodes_to_the_plain_value():
    for kind, value in (("performance_record", make_record()), ("task_request", make_task())):
        assert "extra" not in codec.to_jsonable(value)
        for extra in ({"site": "lab"}, 7):  # a frame from an older peer; a non-mapping too
            doc = _request_doc(kind, {**codec.to_jsonable(value), "extra": extra, "battery": 0.8})
            assert decode(_frame_of(doc)).payload == value


_HUGE = 10**400  # an int no float can hold


@pytest.mark.parametrize("kind, field", [
    ("resource_report", "cpu_cps"), ("resource_report", "storage_mb"), ("resource_report", "updated_at"),
    ("performance_record", "at"), ("performance_record", "throughput_mbps"),
    ("performance_record", "loss_rate"), ("performance_record", "accuracy"),
    ("task_request", "size_mb"), ("task_request", "deadline_s"),
])
def test_a_request_carrying_a_huge_number_is_malformed(kind, field):
    payload = codec.to_jsonable({
        "resource_report": make_profile(),
        "performance_record": make_record(),
        "task_request": make_task(),
    }[kind])
    payload[field] = _HUGE
    with pytest.raises(MalformedFrameError, match=f"bad {kind} payload: {field} "):
        decode(_frame_of(_request_doc(kind, payload)))


def test_a_huge_or_unparsable_header_value_is_malformed():
    doc = _request_doc("task_request", codec.to_jsonable(make_task()), sent_at=2**63)
    with pytest.raises(MalformedFrameError, match="sent_at must fit in 64 bits"):
        decode(_frame_of(doc))
    frame = _frame_of({**doc, "sent_at": 0})
    body = frame[4:].replace(b'"sent_at": 0', b'"sent_at": ' + b"9" * 5_000)
    with pytest.raises(MalformedFrameError, match="bad message document"):
        decode(len(body).to_bytes(4, "big") + body)
    nested = frame[4:].replace(b'"sent_at": 0', b'"sent_at": ' + b"[" * 100_000 + b"]" * 100_000)
    with pytest.raises(MalformedFrameError, match="bad message document"):
        decode(len(nested).to_bytes(4, "big") + nested)


def test_a_v2_peer_gets_version_mismatch(server):
    msg = _messages()[3]
    v2_doc = _bundle_doc([_semantics_doc(c.semantics) for c in msg.payload.candidates])
    with pytest.raises(VersionMismatchError, match="schema version 2, supported 3"):
        decode(_frame_of(v2_doc, version=2))
    request = bytearray(encode(_messages()[2]))
    request[4] = 2
    with socket.create_connection(server.address) as sock:
        sock.sendall(bytes(request))
        reply = read_frame(sock)
    assert reply.kind is MessageKind.ERROR
    assert reply.payload.code == "version_mismatch"


def test_unhashable_semantics_label_is_a_validation_error():
    row = codec.semantics_to_row(_sample_bundle().candidates[0].semantics)
    row[codec.SEMANTICS_COLUMNS.index("loss_rate")] = ["normal"]
    with pytest.raises(ValidationError, match="bad semantics enum value"):
        codec.semantics_from_row(row)


def test_encode_refuses_a_body_over_the_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 200)
    fits = Message(MessageKind.ACK, "server", Ack(detail="x"), "m1", 0)
    assert decode(encode(fits)) == fits
    with pytest.raises(ProtocolError, match="exceeds cap 200"):
        encode(Message(MessageKind.ACK, "server", Ack(detail="x" * 200), "m1", 0))


def test_semantics_made_by_replace_encode_their_own_fields():
    """A replace that changes one trend encodes its own row, not the cached one."""
    leaf = _sample_bundle().candidates[0].semantics
    original = codec.semantics_row_json(leaf)
    assert codec.semantics_row_json(leaf) is original  # filled once, then served from the instance
    for metric in COMM_METRICS + COMP_METRICS:
        assert getattr(leaf, metric) is not Trend.DECREASING
        changed = dataclasses.replace(leaf, **{metric: Trend.DECREASING})
        row = codec.semantics_row_json(changed)
        assert row == codec.canonical_json_bytes(_reference_row(changed)) != original
        assert json.loads(row)[codec.SEMANTICS_COLUMNS.index(metric)] == "decreasing"
    assert codec.semantics_row_json(leaf) is original


def test_two_threads_encoding_one_cold_bundle_get_identical_frames():
    msg = Message(MessageKind.CANDIDATE_BUNDLE, "server", _wide_bundle(), "m1", 50_000)
    reference = _reference_frame(msg)
    barrier = threading.Barrier(2)
    frames = [None, None]

    def work(slot):
        barrier.wait(timeout=10)
        frames[slot] = encode(msg)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert frames[0] == frames[1] == reference


def test_decoder_accepts_a_non_canonical_document():
    doc = {"sent_at": 5, "sender": "server", "payload": {"detail": "ok"}, "msg_id": "m1", "kind": "ack"}
    body = bytes([PROTOCOL_VERSION]) + json.dumps(doc, indent=2).encode("utf-8")
    msg = decode(len(body).to_bytes(4, "big") + body)
    assert msg == Message(MessageKind.ACK, "server", Ack(detail="ok"), "m1", 5)
    assert encode(msg) != len(body).to_bytes(4, "big") + body  # re-encoding is canonical


def test_unknown_kind_is_distinguished_from_malformed():
    frame = encode(_messages()[4])
    tampered = frame.replace(b'"kind":"ack"', b'"kind":"abc"')  # same length, frame stays valid
    with pytest.raises(UnknownKindError):
        decode(tampered)


def test_truncation_trailing_and_cap_are_malformed():
    frame = encode(_messages()[0])
    with pytest.raises(MalformedFrameError):
        decode(frame[:3])  # short length prefix
    with pytest.raises(MalformedFrameError):
        decode(frame[:-1])  # body shorter than declared
    with pytest.raises(MalformedFrameError):
        decode(frame + b"x")  # trailing bytes
    with pytest.raises(MalformedFrameError):
        decode((MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\x01{}")


@given(st.binary(max_size=200))
def test_decode_never_crashes_on_garbage(data):
    try:
        decode(data)
    except ProtocolError:
        pass  # the only acceptable failure mode


@given(st.data())
def test_decode_never_crashes_on_corrupted_frames(data):
    frame = bytearray(encode(_messages()[1]))
    index = data.draw(st.integers(0, len(frame) - 1))
    frame[index] = data.draw(st.integers(0, 255))
    try:
        decode(bytes(frame))
    except ProtocolError:
        pass


@pytest.fixture()
def server():
    srv = TrustServer(TeacherAgent(), clock=lambda: 77_000)
    srv.serve_background()
    yield srv
    srv.shutdown()
    srv.server_close()


def test_tcp_ingest_and_request_flow(server):
    host, port = server.address
    with DeviceClient(host, port, "a_k") as collaborator:
        ack = collaborator.call(
            MessageKind.RESOURCE_REPORT, make_profile(device="a_k", updated_at=70_000)
        )
        assert ack.kind is MessageKind.ACK
        assert ack.msg_id == "a_k-1"
        assert ack.sender == "server"
    with DeviceClient(host, port, "a_i") as owner:
        for rec in make_records(8, collaborator="a_k"):
            ack = owner.call(MessageKind.PERFORMANCE_RECORD, rec)
            assert ack.kind is MessageKind.ACK
        reply = owner.call(MessageKind.TASK_REQUEST, make_task())
        assert reply.kind is MessageKind.CANDIDATE_BUNDLE
        assert reply.msg_id == "a_i-9"
        assert reply.payload.devices() == ["a_k"]
        assert reply.sent_at == 77_000


def test_tcp_application_error_echoes_msg_id(server):
    host, port = server.address
    with DeviceClient(host, port, "a_k") as client:
        client.call(MessageKind.RESOURCE_REPORT, make_profile(updated_at=5_000))
        reply = client.call(MessageKind.RESOURCE_REPORT, make_profile(updated_at=1_000))
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "stale_update"
        assert reply.msg_id == "a_k-2"
        # connection survives an application error
        ok = client.call(MessageKind.RESOURCE_REPORT, make_profile(updated_at=6_000))
        assert ok.kind is MessageKind.ACK


def test_tcp_rejects_unservable_kinds(server):
    host, port = server.address
    with DeviceClient(host, port, "a_k") as client:
        reply = client.call(MessageKind.ACK, Ack())
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "unknown_kind"


def test_tcp_pipelined_frames_answered_in_order(server):
    host, port = server.address
    first = Message(MessageKind.RESOURCE_REPORT, "a_k", make_profile(updated_at=1), "p-1", 0)
    second = Message(MessageKind.RESOURCE_REPORT, "a_k", make_profile(updated_at=2), "p-2", 0)
    with socket.create_connection((host, port)) as sock:
        sock.sendall(encode(first) + encode(second))
        replies = [read_frame(sock), read_frame(sock)]
    assert [r.msg_id for r in replies] == ["p-1", "p-2"]
    assert all(r.kind is MessageKind.ACK for r in replies)


def test_tcp_malformed_frame_gets_error_then_close(server):
    host, port = server.address
    with socket.create_connection((host, port)) as sock:
        sock.sendall((5).to_bytes(4, "big") + b"\x01abcd")  # wrong version byte
        reply = read_frame(sock)
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "version_mismatch"
        assert read_frame(sock) is None  # server hangs up after a framing error


def test_tcp_v1_task_request_gets_version_mismatch(server):
    host, port = server.address
    frame = bytearray(encode(_messages()[2]))
    frame[4] = 1
    with socket.create_connection((host, port)) as sock:
        sock.sendall(bytes(frame))
        reply = read_frame(sock)
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "version_mismatch"


def test_tcp_reply_over_the_cap_gets_error_and_connection_stays_usable(server, monkeypatch):
    host, port = server.address
    with DeviceClient(host, port, "a_i") as client:
        for device in ["a_j", "a_k", "a_l", "a_m", "a_n"]:
            client.call(MessageKind.RESOURCE_REPORT, make_profile(device=device, updated_at=70_000))
            for rec in make_records(8, collaborator=device):
                client.call(MessageKind.PERFORMANCE_RECORD, rec)
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 500)  # the bundle body is 598 bytes
        reply = client.call(MessageKind.TASK_REQUEST, make_task())
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "protocol"
        assert "exceeds cap" in reply.payload.detail
        assert reply.msg_id == "a_i-46"
        ok = client.call(MessageKind.RESOURCE_REPORT, make_profile(device="a_i", updated_at=70_000))
        assert ok.kind is MessageKind.ACK
        monkeypatch.undo()
        bundle = client.call(MessageKind.TASK_REQUEST, make_task())
        assert bundle.payload.devices() == ["a_j", "a_k", "a_l", "a_m", "a_n"]


def test_tcp_bundle_after_a_re_extraction_carries_the_new_semantics(server):
    host, port = server.address
    with DeviceClient(host, port, "a_i") as client:
        for device in ["a_k", "a_l"]:
            client.call(MessageKind.RESOURCE_REPORT, make_profile(device=device, updated_at=70_000))
            for rec in make_records(8, collaborator=device):
                client.call(MessageKind.PERFORMANCE_RECORD, rec)
        bundle = client.call(MessageKind.TASK_REQUEST, make_task()).payload
        before = {c.device: c.semantics for c in bundle.candidates}
        assert before["a_k"].throughput is Trend.NORMAL
        for i in range(8):  # a steep throughput rise on a_k alone
            rec = make_record(collaborator="a_k", at=20_000 + i * 1_000, throughput_mbps=200.0 + 100.0 * i)
            client.call(MessageKind.PERFORMANCE_RECORD, rec)
        bundle = client.call(MessageKind.TASK_REQUEST, make_task()).payload
        after = {c.device: c.semantics for c in bundle.candidates}
    assert after["a_k"].throughput is Trend.INCREASING
    assert after["a_k"].state is TrustState.TRUSTED
    assert after["a_k"].record_count == 16 and after["a_k"].window == (1_000, 27_000)
    assert after["a_l"] == before["a_l"]


def _raw_request(kind: str, msg_id: str = "x-1") -> bytes:
    """A frame whose document is raw UTF-8, as a peer may send it."""
    doc = {"kind": kind, "msg_id": msg_id, "payload": {}, "sender": "a_i", "sent_at": 0}
    body = bytes([PROTOCOL_VERSION]) + json.dumps(doc, ensure_ascii=False).encode("utf-8")
    return len(body).to_bytes(4, "big") + body


@pytest.fixture()
def quiet_failures(server, monkeypatch):
    """Exceptions that escape a connection handler, however they surface."""
    seen = []
    monkeypatch.setattr(threading, "excepthook", lambda args: seen.append(args.exc_value))
    monkeypatch.setattr(server, "handle_error", lambda request, address: seen.append(sys.exc_info()[1]))
    return seen


_SMALL_CAP = 4_096


@pytest.mark.parametrize(
    "kind",
    ["k" * (_SMALL_CAP - 100), "\u00e9" * 1_000, "\U0001f600" * 500],
    ids=["ascii", "two_byte", "astral"],
)
def test_tcp_error_reply_echoing_a_long_kind_fits_the_cap(server, monkeypatch, quiet_failures, kind):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", _SMALL_CAP)
    request = _raw_request(kind)
    assert len(request) - 4 <= _SMALL_CAP
    unbounded = Message(
        MessageKind.ERROR, "server", ErrorInfo("unknown_kind", f"unknown message kind {kind!r}"), "unknown", 0
    )
    assert len(_reference_frame(unbounded)) - 4 > _SMALL_CAP  # the reply would not fit unbounded
    host, port = server.address
    with socket.create_connection((host, port)) as sock:
        sock.sendall(request)
        reply = read_frame(sock)
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "unknown_kind"
        assert reply.payload.detail.startswith("unknown message kind ")
        assert reply.payload.detail.endswith("...")
        assert read_frame(sock) is None  # a framing error still ends the connection
    with DeviceClient(host, port, "a_k") as client:
        assert client.call(MessageKind.RESOURCE_REPORT, make_profile()).kind is MessageKind.ACK
    assert quiet_failures == []


def test_tcp_msg_id_too_long_to_echo_closes_quietly(server, monkeypatch, quiet_failures):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", _SMALL_CAP)
    msg_id = "\u00e9" * 1_500  # 3 000 bytes raw, 9 000 once escaped in any reply
    doc = {
        "kind": "resource_report", "msg_id": msg_id, "sender": "a_k", "sent_at": 0,
        "payload": codec.to_jsonable(make_profile()),
    }
    body = bytes([PROTOCOL_VERSION]) + json.dumps(doc, ensure_ascii=False).encode("utf-8")
    assert len(body) <= _SMALL_CAP
    host, port = server.address
    with socket.create_connection((host, port)) as sock:
        sock.sendall(len(body).to_bytes(4, "big") + body)
        assert read_frame(sock) is None
    with DeviceClient(host, port, "a_k") as client:
        reply = client.call(MessageKind.RESOURCE_REPORT, make_profile(updated_at=1))
        assert reply.kind is MessageKind.ACK
    assert quiet_failures == []


def test_tcp_client_reset_ends_its_connection_quietly(server, monkeypatch, quiet_failures):
    """A client that sends a request and resets the connection leaves no traceback."""
    done = threading.Semaphore(0)
    shutdown_request = server.shutdown_request

    def counted_shutdown(request):
        shutdown_request(request)
        done.release()

    monkeypatch.setattr(server, "shutdown_request", counted_shutdown)
    frame = encode(Message(MessageKind.TASK_REQUEST, "a_i", make_task(), "a_i-1", 0))
    host, port = server.address
    for _ in range(5):
        sock = socket.create_connection((host, port))
        sock.sendall(frame)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()  # linger 0: the close sends a reset
    for _ in range(5):
        assert done.acquire(timeout=5.0)  # every reset connection's handler has finished
    with DeviceClient(host, port, "a_k") as client:
        assert client.call(MessageKind.RESOURCE_REPORT, make_profile()).kind is MessageKind.ACK
    assert quiet_failures == []


def test_read_frame_clean_eof_vs_midframe_cut(server):
    host, port = server.address
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    lhost, lport = listener.getsockname()
    frame = encode(_messages()[0])

    with socket.create_connection((lhost, lport)) as client:
        peer, _ = listener.accept()
        with peer:
            peer.sendall(frame)
            peer.shutdown(socket.SHUT_WR)
            assert read_frame(client) is not None
            assert read_frame(client) is None  # EOF at a frame boundary

    with socket.create_connection((lhost, lport)) as client:
        peer, _ = listener.accept()
        with peer:
            peer.sendall(frame[: len(frame) // 2])
            peer.shutdown(socket.SHUT_WR)
            with pytest.raises(MalformedFrameError):
                read_frame(client)
    listener.close()


def test_tcp_a_poisoned_profile_is_refused_and_requests_still_get_bundles(server, quiet_failures):
    """A profile stamped past int64 is refused, so no later request that reaches its device fails on it."""
    host, port = server.address
    with DeviceClient(host, port, "a_i") as owner:
        for rec in make_records(8, collaborator="a_k"):
            owner.call(MessageKind.PERFORMANCE_RECORD, rec)
    poisoned = {**codec.to_jsonable(make_profile(device="a_k")), "updated_at": _HUGE}
    with socket.create_connection((host, port)) as sock:
        sock.sendall(_frame_of(_request_doc("resource_report", poisoned, sender="a_k")))
        reply = read_frame(sock)
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "malformed" and "updated_at" in reply.payload.detail
        assert read_frame(sock) is None
    with DeviceClient(host, port, "a_i") as owner:
        assert owner.call(MessageKind.TASK_REQUEST, make_task()).payload.devices() == []
        owner.call(MessageKind.RESOURCE_REPORT, make_profile(device="a_k", updated_at=70_000))
        assert owner.call(MessageKind.TASK_REQUEST, make_task()).payload.devices() == ["a_k"]
    assert quiet_failures == []


def test_tcp_an_ingest_with_a_large_extra_stores_what_the_plain_ingest_stores(server):
    """A 1 MiB ``extra`` and an unknown key are acked and leave no trace in memory."""
    doc = {**codec.to_jsonable(make_record()), "extra": {"blob": "x" * 2**20}, "site": "lab"}
    with socket.create_connection(server.address) as sock:
        sock.sendall(_frame_of(_request_doc("performance_record", doc)))
        assert read_frame(sock).kind is MessageKind.ACK
    plain = TeacherAgent()
    plain.handle_performance_record(make_record())
    assert server.teacher.memory.to_snapshot_dict() == plain.memory.to_snapshot_dict()
