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
from twotsd.memory import MemoryModule
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
from twotsd.teacher import CandidateBundle, TeacherAgent, assemble_bundle, matched_candidates

from _builders import leaf_snapshot, make_profile, make_record, make_records, make_task, window_of


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


# The wire's kind bytes and trend codes, and its bundle record layout, spelled
# out here independently of the protocol module.
_KIND_BYTES = {"resource_report": 1, "performance_record": 2, "task_request": 3,
               "candidate_bundle": 4, "ack": 5, "error": 6}
_TREND_CODES = {"increasing": 0, "decreasing": 1, "normal": 2}
_RECORD = struct.Struct("<BBBBBqqqq")
_RECORD_FIELDS = ("throughput", "loss_rate", "accuracy", "proc_speed", "window_present",
                  "window_from", "window_to", "extracted_at", "record_count")


def test_encode_is_deterministic_and_framed():
    msg = _messages()[0]
    frame = encode(msg)
    assert frame == encode(msg)
    length = int.from_bytes(frame[:4], "big")
    assert length == len(frame) - 4
    assert frame[4] == PROTOCOL_VERSION == 4
    assert frame[5] == _KIND_BYTES["resource_report"]
    body = frame[6:].decode("ascii")  # raises if the document is not pure ascii
    assert '"kind"' not in body  # the kind travels in its byte only
    # top-level keys appear in sorted order in the canonical document
    keys = ["msg_id", "payload", "sender", "sent_at"]
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


def _canonical(doc) -> bytes:
    """The canonical arguments spelled out, independent of codec's shared encoder."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("ascii")


def _framed(body: bytes) -> bytes:
    return len(body).to_bytes(4, "big") + body


def _record_bytes(ts: TrustSemantics) -> bytes:
    lo, hi = ts.window or (0, 0)
    codes = [_TREND_CODES[getattr(ts, metric).value] for metric in COMM_METRICS + COMP_METRICS]
    return _RECORD.pack(*codes, int(ts.window is not None), lo, hi, ts.extracted_at, ts.record_count)


def _bundle_body(header: dict, records: bytes, version: int = PROTOCOL_VERSION) -> bytes:
    head = _canonical(header)
    return bytes([version, _KIND_BYTES["candidate_bundle"]]) + len(head).to_bytes(4, "little") + head + records


def _reference_frame(msg: Message) -> bytes:
    """The frame built from the grammar alone: a JSON document, or a bundle's header and records."""
    p = msg.payload
    if msg.kind is MessageKind.CANDIDATE_BUNDLE:
        header = {
            "devices": [c.semantics.device for c in p.candidates],
            "generated_at": p.generated_at,
            "msg_id": msg.msg_id,
            "sender": msg.sender,
            "sent_at": msg.sent_at,
            "task_id": p.task_id,
            "task_type": p.candidates[0].semantics.task_type if p.candidates else None,
        }
        return _framed(_bundle_body(header, b"".join(_record_bytes(c.semantics) for c in p.candidates)))
    payload = {
        MessageKind.RESOURCE_REPORT: lambda: dataclasses.asdict(p),
        MessageKind.PERFORMANCE_RECORD: lambda: {**dataclasses.asdict(p), "verdict": p.verdict.value},
        MessageKind.TASK_REQUEST: lambda: dataclasses.asdict(p),
        MessageKind.ACK: lambda: {"detail": p.detail},
        MessageKind.ERROR: lambda: {"code": p.code, "detail": p.detail},
    }[msg.kind]()
    doc = {"sender": msg.sender, "msg_id": msg.msg_id, "sent_at": msg.sent_at, "payload": payload}
    return _framed(bytes([PROTOCOL_VERSION, _KIND_BYTES[msg.kind.value]]) + _canonical(doc))


# Any code point: non-ASCII, astral (a surrogate pair when escaped) and control.
_IDS = st.text(min_size=1, max_size=12)
# Device ids as a bundle header carries them: also lone surrogates, which only
# JSON's escapes can carry.
_WIRE_IDS = st.text(st.characters(categories=["L", "N", "P", "S", "Z", "Cc", "Cs"]), min_size=1, max_size=12)
_INT64_EDGES = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
_STAMPS = st.integers(-(2**63), 2**63 - 1) | st.sampled_from(_INT64_EDGES)  # timestamps are signed 64-bit
_COUNTS = st.integers(0, 2**63 - 1) | st.sampled_from([0, 1, 2**63 - 1])
_WINDOWS = st.none() | st.tuples(_STAMPS, _STAMPS).map(sorted).map(tuple)
_MAX = sys.float_info.max
_POSITIVE = st.floats(min_value=5e-324, max_value=_MAX) | st.sampled_from([5e-324, _MAX])
_NONNEG = st.floats(min_value=0.0, max_value=_MAX) | st.sampled_from([-0.0, 0.0, 5e-324, _MAX])
_FRACTION = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324, 1.0])


@st.composite
def _leaves(draw, device: str, task_type: str) -> TrustSemantics:
    return TrustSemantics(
        device=device,
        task_type=task_type,
        state=TrustState.TRUSTED,
        **{m: draw(st.sampled_from(list(Trend))) for m in COMM_METRICS + COMP_METRICS},
        window=draw(_WINDOWS),
        extracted_at=draw(_STAMPS),
        record_count=draw(_COUNTS),
    )


@st.composite
def _bundles(draw):
    """0, 1 or many candidates of one task type, each with its own semantics.

    The 1 000-candidate bundles copy one leaf across devices, so they stay quick to draw.
    """
    task_type = draw(_WIRE_IDS)
    n = draw(st.sampled_from([0, 1, 3, 40, 1_000]))
    if n == 1_000:
        prefix = draw(_WIRE_IDS)
        leaf = draw(_leaves("placeholder", task_type))
        leaves = [dataclasses.replace(leaf, device=f"{prefix}{i:04d}") for i in range(n)]
    else:
        devices = sorted(draw(st.lists(_WIRE_IDS, min_size=n, max_size=n, unique=True)))
        leaves = [draw(_leaves(device, task_type)) for device in devices]
    return CandidateBundle(draw(_WIRE_IDS), matched_candidates(leaves), draw(_STAMPS))


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
    assert encode(msg) == reference  # cold: bundle records packed now
    assert encode(msg) == reference  # warm: bundle records from the cache


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bundle=_bundles(), sender=_WIRE_IDS, msg_id=_WIRE_IDS, sent_at=_STAMPS)
def test_a_bundle_round_trips_with_every_field_of_every_candidate(bundle, sender, msg_id, sent_at):
    msg = Message(MessageKind.CANDIDATE_BUNDLE, sender, bundle, msg_id, sent_at)
    decoded = decode(encode(msg))
    assert decoded == msg
    names = [f.name for f in dataclasses.fields(TrustSemantics)]
    for got, want in zip(decoded.payload.candidates, bundle.candidates, strict=True):
        assert got.matched is True
        assert list(got.semantics.__dict__) == names  # fields in declaration order, no cache yet
        for name in names:
            assert type(getattr(got.semantics, name)) is type(getattr(want.semantics, name))
        assert got.semantics == want.semantics and hash(got.semantics) == hash(want.semantics)


def test_version_byte_is_checked():
    frame = bytearray(encode(_messages()[0]))
    frame[4] = 1  # a protocol v1 peer
    with pytest.raises(VersionMismatchError):
        decode(bytes(frame))


def _wide_bundle(n: int = 1_000):
    """A fixed ``n``-candidate bundle: one trusted leaf copied across devices."""
    records = window_of(make_records(8, collaborator="d0000"), "d0000")
    leaf = DeterministicEngine().extract("d0000", "video_transcoding", records)
    leaves = [dataclasses.replace(leaf, device=f"d{i:04d}") for i in range(n)]
    profiles = {ts.device: make_profile(device=ts.device, updated_at=50_000) for ts in leaves}
    return assemble_bundle(make_task(), leaves, profiles.get, 50_000, MatchConfig())


def _v3_row(ts: TrustSemantics) -> list:
    """``ts`` as a v3 bundle carried it: its fields in order, enums as labels, the window as two columns."""
    lo, hi = ts.window or (None, None)
    return [ts.device, ts.task_type, ts.state.value, ts.throughput.value, ts.loss_rate.value,
            ts.accuracy.value, ts.proc_speed.value, lo, hi, ts.extracted_at, ts.record_count]


def test_a_wide_bundle_frame_is_at_most_half_its_v3_rows():
    """10 000 candidates: the v4 frame against only the rows a v3 frame carried for them."""
    bundle = _wide_bundle(10_000)
    assert len(bundle.candidates) == 10_000
    frame = encode(Message(MessageKind.CANDIDATE_BUNDLE, "server", bundle, "m1", 50_000))
    v3_rows = sum(len(codec.canonical_json_bytes(_v3_row(c.semantics))) for c in bundle.candidates)
    assert len(frame) <= v3_rows / 2
    assert decode(frame).payload == bundle


# Each ``_messages()`` frame, byte for byte: any change to one is a wire change,
# a renamed payload field included.
_GOLDEN_FRAMES = {
    MessageKind.RESOURCE_REPORT: bytes.fromhex(
        "0000009c04017b226d73675f6964223a22615f6b2d31222c227061796c6f6164223a7b22"
        "62616e6477696474685f6d627073223a3130302e302c226370755f637073223a31303030"
        "303030303030302e302c22646576696365223a22615f6b222c2273746f726167655f6d62"
        "223a3230302e302c22757064617465645f6174223a307d2c2273656e646572223a22615f"
        "6b222c2273656e745f6174223a31307d"
    ),
    MessageKind.PERFORMANCE_RECORD: bytes.fromhex(
        "000000ee04027b226d73675f6964223a22615f692d31222c227061796c6f6164223a7b22"
        "6163637572616379223a302e39382c226174223a313030302c22636f6c6c61626f726174"
        "6f72223a22615f6a222c226c6f73735f72617465223a302e30312c226f776e6572223a22"
        "615f69222c2270726f635f73706565645f6d627073223a322e302c227461736b5f747970"
        "65223a22766964656f5f7472616e73636f64696e67222c227468726f7567687075745f6d"
        "627073223a3130302e302c2276657264696374223a22736174697366696564227d2c2273"
        "656e646572223a22615f69222c2273656e745f6174223a31317d"
    ),
    MessageKind.TASK_REQUEST: bytes.fromhex(
        "000000af04037b226d73675f6964223a22615f692d32222c227061796c6f6164223a7b22"
        "646561646c696e655f73223a35302e302c2264656e736974795f637062223a313030302e"
        "302c226f776e6572223a22615f69222c2273697a655f6d62223a35302e302c227461736b"
        "5f6964223a226332222c227461736b5f74797065223a22766964656f5f7472616e73636f"
        "64696e67227d2c2273656e646572223a22615f69222c2273656e745f6174223a31327d"
    ),
    MessageKind.CANDIDATE_BUNDLE: bytes.fromhex(
        "000000b20404870000007b2264657669636573223a5b22615f6b225d2c2267656e657261"
        "7465645f6174223a35303030302c226d73675f6964223a22615f692d32222c2273656e64"
        "6572223a22736572766572222c2273656e745f6174223a31332c227461736b5f6964223a"
        "226332222c227461736b5f74797065223a22766964656f5f7472616e73636f64696e6722"
        "7d0202020201e803000000000000401f000000000000401f000000000000080000000000"
        "0000"
    ),
    MessageKind.ACK: bytes.fromhex(
        "0000005104057b226d73675f6964223a22615f6b2d31222c227061796c6f6164223a7b22"
        "64657461696c223a2273746f726564227d2c2273656e646572223a22736572766572222c"
        "2273656e745f6174223a31347d"
    ),
    MessageKind.ERROR: bytes.fromhex(
        "0000006b04067b226d73675f6964223a22615f6b2d32222c227061796c6f6164223a7b22"
        "636f6465223a227374616c655f757064617465222c2264657461696c223a226f6c642072"
        "65706f7274227d2c2273656e646572223a22736572766572222c2273656e745f6174223a"
        "31357d"
    ),
}


@pytest.mark.parametrize("msg", _messages(), ids=lambda m: m.kind.value)
def test_every_frame_matches_the_golden_bytes(msg):
    assert encode(msg) == _GOLDEN_FRAMES[msg.kind] == _reference_frame(msg)
    assert decode(_GOLDEN_FRAMES[msg.kind]) == msg


def _frame_of(doc: dict, version: int = PROTOCOL_VERSION) -> bytes:
    """A JSON-kind frame of ``doc``: its ``kind`` key goes into the kind byte."""
    doc = dict(doc)
    kind = _KIND_BYTES[doc.pop("kind")]
    return _framed(bytes([version, kind]) + json.dumps(doc).encode("utf-8"))


# The sample bundle's a_k leaf, field by field of ``_RECORD_FIELDS``.
_GOOD_RECORD = (2, 2, 2, 2, 1, 1000, 8000, 8000, 8)
_BUNDLE_HEADER = {"generated_at": 50_000, "msg_id": "a_i-2", "sender": "server", "sent_at": 13,
                  "task_id": "c2", "task_type": "video_transcoding"}


def _record(**fields) -> bytes:
    """``_GOOD_RECORD`` with the named fields replaced."""
    values = dict(zip(_RECORD_FIELDS, _GOOD_RECORD))
    values.update(fields)
    return _RECORD.pack(*values.values())


def _bundle_frame(records: list[bytes], **header) -> bytes:
    """A bundle frame of ``records`` for devices a_a000, a_a001, ..., unless ``header`` says otherwise."""
    doc = {**_BUNDLE_HEADER, "devices": [f"a_a{i:03d}" for i in range(len(records))], **header}
    return _framed(_bundle_body(doc, b"".join(records)))


def test_a_valid_record_decodes_to_its_semantics():
    absent = _record(window_present=0, window_from=0, window_to=0)
    frame = _bundle_frame([_record(), absent], devices=["a_k", "a_l"])
    bundle = decode(frame).payload
    assert bundle.devices() == ["a_k", "a_l"]
    assert bundle.candidates[0] == _sample_bundle().candidates[0]
    assert bundle.candidates[1].semantics.window is None  # flag 0 is no window
    assert bundle.candidates[1].semantics.task_type == "video_transcoding"


def test_an_empty_bundle_carries_no_task_type_and_no_records():
    msg = Message(MessageKind.CANDIDATE_BUNDLE, "server", CandidateBundle("c2", (), 50_000), "a_i-2", 13)
    frame = encode(msg)
    assert frame == _bundle_frame([], task_type=None)
    assert decode(frame) == msg
    assert decode(_bundle_frame([], task_type="ignored")) == msg  # nothing carries it


def test_a_bundle_of_candidates_of_two_task_types_cannot_be_framed():
    first, second = _sample_bundle().candidates[0].semantics, _wide_bundle(1).candidates[0].semantics
    mixed = dataclasses.replace(second, device="a_l", task_type="face_recognition")
    bundle = CandidateBundle("c2", matched_candidates([first, mixed]), 50_000)
    with pytest.raises(ProtocolError, match="2 task types"):
        encode(Message(MessageKind.CANDIDATE_BUNDLE, "server", bundle, "m1", 0))


# Each bad record with the field and the refusal that name it. A bundle frame
# and a snapshot's leaf block carry the same record, so both refuse it alike.
# This is the binary analogue of every refusal of the old JSON row decoder
# that the record layout can still express. A count, timestamp or window bound
# is an int64 whatever its bytes, a trend or state a code, so a label of the
# wrong type or value, a float, a bool, a half-null window or a number past
# 64 bits has no bytes that say it.
_MALFORMED_RECORDS = [
    pytest.param({"loss_rate": 3}, "loss_rate", "loss_rate must be a Trend code below 3, got 3", id="unknown_trend"),
    pytest.param({"throughput": 255}, "throughput", "throughput must be a Trend code below 3, got 255",
                 id="unknown_trend_high"),
    pytest.param({"proc_speed": 7}, "proc_speed", "proc_speed must be a Trend code below 3, got 7",
                 id="unknown_trend_last"),
    pytest.param({"window_present": 2}, "window", "window must be flagged 0 or 1, got 2", id="window_flag_2"),
    pytest.param({"window_present": 0}, "window", "window must be (0, 0) when flagged absent, got (1000, 8000)",
                 id="absent_window_with_bounds"),
    pytest.param({"window_present": 0, "window_from": 0}, "window",
                 "window must be (0, 0) when flagged absent, got (0, 8000)", id="absent_window_with_window_to"),
    pytest.param({"window_present": 0, "window_to": 0}, "window",
                 "window must be (0, 0) when flagged absent, got (1000, 0)", id="absent_window_with_window_from"),
    pytest.param({"record_count": -1}, "record_count", "record_count must be >= 0, got -1", id="negative_count"),
    pytest.param({"record_count": -(2**63)}, "record_count", f"record_count must be >= 0, got {-(2**63)}",
                 id="int64_min_count"),
    pytest.param({"window_from": 9000, "window_to": 1000}, "window",
                 "window must be ordered, from <= to, got (9000, 1000)", id="reversed_window"),
    pytest.param({"window_from": 2**63 - 1, "window_to": -(2**63)}, "window",
                 f"window must be ordered, from <= to, got ({2**63 - 1}, {-(2**63)})",
                 id="reversed_window_int64_edges"),
]
# A snapshot also carries each leaf's state code: codes of TrustState
# (trusted 0, untrusted 1, insufficient_data 2), beside the record.
_MALFORMED_STATES = [
    pytest.param({"state": 3}, "state", "state must be a TrustState code below 3, got 3", id="unknown_state"),
    pytest.param({"state": 255}, "state", "state must be a TrustState code below 3, got 255", id="unknown_state_high"),
    pytest.param({"state": 2, "throughput": 0}, "state",
                 "state must be trusted or untrusted where a trend is not normal, got 2",
                 id="insufficient_data_with_a_trend"),
    pytest.param({"state": 2, "proc_speed": 1}, "state",
                 "state must be trusted or untrusted where a trend is not normal, got 2",
                 id="insufficient_data_with_the_last_trend"),
]
_MALFORMED_HEADERS = [
    pytest.param({"devices": ""}, "device must be a nonempty string", id="empty_device"),
    pytest.param({"devices": 7}, "device must be a nonempty string", id="int_device"),
    pytest.param({"devices": None}, "device must be a nonempty string", id="null_device"),
    pytest.param({"task_type": 5}, "task_type must be a nonempty string", id="int_task_type"),
    pytest.param({"task_type": ""}, "task_type must be a nonempty string", id="empty_task_type"),
    pytest.param({"task_type": None}, "task_type must be a nonempty string", id="null_task_type"),
]


def _wide_frame(last: bytes, n: int, **header) -> bytes:
    """``n - 1`` good records, then ``last``."""
    return _bundle_frame([_record()] * (n - 1) + [last], **header)


@pytest.mark.parametrize("n", [2, 400])
@pytest.mark.parametrize("fields, field, error", _MALFORMED_RECORDS)
def test_a_malformed_record_fails_the_whole_frame(fields, field, error, n):
    """One bad record after good ones is refused as it is alone, naming its device."""
    expected = f"{error} for device 'a_a{n - 1:03d}'"
    with pytest.raises(MalformedFrameError, match=re.escape(f"bad candidate_bundle payload: {expected}")) as err:
        decode(_wide_frame(_record(**fields), n))
    refusal = err.value.__context__  # the record's own refusal, under the frame's
    assert (refusal.message, refusal.field, refusal.code) == (expected, field, "validation")


@pytest.mark.parametrize("n", [2, 400])
@pytest.mark.parametrize("fields, field, error", _MALFORMED_RECORDS + _MALFORMED_STATES)
def test_a_malformed_record_fails_the_whole_snapshot(tmp_path, fields, field, error, n):
    """The same bad record last in a snapshot's leaf block: the frame's refusal, field and code."""
    fields = dict(fields)
    state = fields.pop("state", 0)
    devices = [f"a_a{i:03d}" for i in range(n)]
    path = tmp_path / "snapshot.bin"
    path.write_bytes(leaf_snapshot([("video_transcoding", devices, bytes(n), _record() * n)]))
    assert len(MemoryModule.load(path).semantics.get_by_task_type("video_transcoding")) == n
    path.write_bytes(leaf_snapshot([("video_transcoding", devices, bytes(n - 1) + bytes([state]),
                                     _record() * (n - 1) + _record(**fields))]))
    expected = f"{error} for device 'a_a{n - 1:03d}'"
    with pytest.raises(ValidationError, match=re.escape(f"malformed snapshot: ValidationError {expected}")) as err:
        MemoryModule.load(path)
    assert (err.value.field, err.value.code) == (field, "validation")


@pytest.mark.parametrize("n", [2, 400])
@pytest.mark.parametrize("header, error", _MALFORMED_HEADERS)
def test_a_malformed_device_id_or_task_type_fails_the_whole_frame(header, error, n):
    if "devices" in header:  # the bad id comes last
        header = {"devices": [f"a_a{i:03d}" for i in range(n - 1)] + [header["devices"]]}
    with pytest.raises(MalformedFrameError, match=re.escape(f"bad candidate_bundle payload: {error}")):
        decode(_wide_frame(_record(), n, **header))


@pytest.mark.parametrize("cut", [-1, -36, -37, 1, 36, 37], ids=lambda c: f"{c:+d}_bytes")
def test_a_record_block_cut_short_or_overlong_fails_the_whole_frame(cut):
    records = [_record(), _record()]
    block = b"".join(records)
    block = block[:cut] if cut < 0 else block + bytes(range(cut))
    frame = _framed(_bundle_body({**_BUNDLE_HEADER, "devices": ["a_a000", "a_a001"]}, block))
    with pytest.raises(MalformedFrameError, match=re.escape(
            f"bad candidate_bundle payload: record block of {len(block)} bytes, not 2 records of 37")):
        decode(frame)


@pytest.mark.parametrize(
    "devices, records", [(["a_a000"], 2), (["a_a000", "a_a001"], 1), ([], 1)],
    ids=["fewer_ids", "fewer_records", "no_ids"],
)
def test_a_device_list_that_does_not_match_the_records_fails_the_whole_frame(devices, records):
    with pytest.raises(MalformedFrameError, match="record block of"):
        decode(_bundle_frame([_record()] * records, devices=devices))


@pytest.mark.parametrize("body, error", [
    (b"\x04\x04", "bundle body has no header length"),
    (b"\x04\x04\x05\x00\x00", "bundle body has no header length"),
    (b"\x04\x04\x05\x00\x00\x00{}", "bundle header of 5 bytes overruns the frame body"),
    (b"\x04\x04\x02\x00\x00\x00[]", "bundle header must be an object"),
    (b"\x04\x04\x02\x00\x00\x00{]", "bad bundle header"),
    (b"\x04\x04\x02\x00\x00\x00\xff\xfe", "bad bundle header"),
])
def test_a_bundle_header_cut_short_or_unparsable_is_malformed(body, error):
    with pytest.raises(MalformedFrameError, match=re.escape(error)):
        decode(_framed(body))


def test_a_bundle_header_missing_a_field_is_malformed():
    for field in ["devices", "generated_at", "msg_id", "sender", "sent_at", "task_id", "task_type"]:
        header = {**_BUNDLE_HEADER, "devices": ["a_a000"]}
        del header[field]
        with pytest.raises(MalformedFrameError, match=re.escape(f"bad candidate_bundle payload: '{field}'")):
            decode(_framed(_bundle_body(header, _record())))


@pytest.mark.parametrize("devices", [["a_k", "a_k"], ["a_l", "a_k"]], ids=["twice", "descending"])
def test_a_bundle_frame_listing_devices_out_of_order_is_malformed(devices):
    frame = _bundle_frame([_record(), _record()], devices=devices)
    with pytest.raises(MalformedFrameError, match="ordered by device id"):
        decode(frame)


@pytest.mark.parametrize(
    "field, value",
    [("sender", 7), ("msg_id", 5), ("sent_at", "13"), ("sent_at", True), ("sent_at", 2**63),
     ("task_id", ["c2"]), ("generated_at", "50000"), ("generated_at", -(2**63) - 1), ("devices", "a_a000"),
     ("devices", {"a_a000": 1})],
)
def test_a_header_field_of_the_wrong_type_is_malformed(field, value):
    with pytest.raises(MalformedFrameError, match=field):
        decode(_bundle_frame([_record()], **{field: value}))


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


def _v3_frame(msg: Message) -> bytes:
    """``msg`` as a protocol v3 peer framed it: version 3, then one JSON document with its kind.

    A bundle's candidates were positional semantics rows.
    """
    payload = codec.to_jsonable(msg.payload)
    if msg.kind is MessageKind.CANDIDATE_BUNDLE:
        payload = {"candidates": [_v3_row(c.semantics) for c in msg.payload.candidates],
                   "generated_at": msg.payload.generated_at, "task_id": msg.payload.task_id}
    doc = {"kind": msg.kind.value, "msg_id": msg.msg_id, "payload": payload, "sender": msg.sender,
           "sent_at": msg.sent_at}
    return _framed(bytes([3]) + _canonical(doc))


@pytest.mark.parametrize("msg", _messages(), ids=lambda m: m.kind.value)
def test_a_v3_frame_gets_version_mismatch(msg):
    with pytest.raises(VersionMismatchError, match="schema version 3, supported 4"):
        decode(_v3_frame(msg))


def test_a_v3_peer_gets_version_mismatch_over_tcp(server):
    with socket.create_connection(server.address) as sock:
        sock.sendall(_v3_frame(_messages()[2]))
        reply = read_frame(sock)
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "version_mismatch"
        assert reply.payload.detail == "schema version 3, supported 4"
        assert read_frame(sock) is None  # a framing error ends the connection


def test_encode_refuses_a_body_over_the_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 200)
    fits = Message(MessageKind.ACK, "server", Ack(detail="x"), "m1", 0)
    assert decode(encode(fits)) == fits
    with pytest.raises(ProtocolError, match="exceeds cap 200"):
        encode(Message(MessageKind.ACK, "server", Ack(detail="x" * 200), "m1", 0))


def test_semantics_made_by_replace_encode_their_own_fields():
    """A replace that changes one trend packs its own record, not the cached one."""

    def frame_of(ts: TrustSemantics) -> bytes:
        bundle = CandidateBundle("c2", matched_candidates([ts]), 0)
        return encode(Message(MessageKind.CANDIDATE_BUNDLE, "server", bundle, "m1", 0))

    leaf = _sample_bundle().candidates[0].semantics
    frame = frame_of(leaf)
    original = leaf.__dict__["_wire"]
    assert original == (_canonical(leaf.device), _record_bytes(leaf)) and frame.endswith(original[1])
    assert frame_of(leaf) == frame
    assert leaf.__dict__["_wire"] is original  # filled once, then served from the instance
    for i, metric in enumerate(COMM_METRICS + COMP_METRICS):
        assert getattr(leaf, metric) is not Trend.DECREASING
        changed = dataclasses.replace(leaf, **{metric: Trend.DECREASING})
        assert "_wire" not in changed.__dict__
        assert frame_of(changed).endswith(_record_bytes(changed))
        assert changed.__dict__["_wire"][1] == _record_bytes(changed) != original[1]
        assert changed.__dict__["_wire"][1][i] == _TREND_CODES["decreasing"]
    assert leaf.__dict__["_wire"] is original


def test_caching_a_leaf_wire_bytes_keeps_its_dict_keys_shared():
    """One cached entry per leaf: a second one would unshare the instance dict and grow every leaf."""
    bundle = _wide_bundle(20)
    fresh = [sys.getsizeof(c.semantics.__dict__) for c in bundle.candidates]
    encode(Message(MessageKind.CANDIDATE_BUNDLE, "server", bundle, "m1", 50_000))
    assert [sys.getsizeof(c.semantics.__dict__) for c in bundle.candidates] == fresh


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
    body = bytes([PROTOCOL_VERSION, _KIND_BYTES["ack"]]) + json.dumps(doc, indent=2).encode("utf-8")
    msg = decode(len(body).to_bytes(4, "big") + body)
    assert msg == Message(MessageKind.ACK, "server", Ack(detail="ok"), "m1", 5)
    assert encode(msg) != len(body).to_bytes(4, "big") + body  # re-encoding is canonical


@pytest.mark.parametrize("kind_byte", [0, 7, 255])
def test_unknown_kind_is_distinguished_from_malformed(kind_byte):
    frame = bytearray(encode(_messages()[4]))
    frame[5] = kind_byte  # same length, frame stays valid
    with pytest.raises(UnknownKindError, match=f"unknown message kind byte {kind_byte}$"):
        decode(bytes(frame))


def test_an_unknown_kind_byte_gets_unknown_kind_over_tcp(server):
    frame = bytearray(encode(_messages()[2]))
    frame[5] = 7
    with socket.create_connection(server.address) as sock:
        sock.sendall(bytes(frame))
        reply = read_frame(sock)
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "unknown_kind"
        assert reply.payload.detail == "unknown message kind byte 7"
        assert read_frame(sock) is None


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
    with pytest.raises(MalformedFrameError, match="empty frame body"):
        decode(_framed(b""))
    with pytest.raises(MalformedFrameError, match="frame body has no kind byte"):
        decode(_framed(bytes([PROTOCOL_VERSION])))


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


@given(st.data())
def test_decode_never_crashes_on_corrupted_bundle_frames(data):
    frame = bytearray(encode(Message(MessageKind.CANDIDATE_BUNDLE, "server", _wide_bundle(3), "m1", 0)))
    for _ in range(data.draw(st.integers(1, 3))):
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
        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 300)  # the bundle body is 354 bytes
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


@pytest.fixture()
def quiet_failures(server, monkeypatch):
    """Exceptions that escape a connection handler, however they surface."""
    seen = []
    monkeypatch.setattr(threading, "excepthook", lambda args: seen.append(args.exc_value))
    monkeypatch.setattr(server, "handle_error", lambda request, address: seen.append(sys.exc_info()[1]))
    return seen


_SMALL_CAP = 4_096


@pytest.mark.parametrize("verdict", ["\u00e9" * 1_000, "\U0001f600" * 500], ids=["two_byte", "astral"])
def test_tcp_error_reply_echoing_a_long_value_fits_the_cap(server, monkeypatch, quiet_failures, verdict):
    """A refused verdict is echoed in the detail; escaped, the echo would not fit the cap."""
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", _SMALL_CAP)
    doc = _request_doc("performance_record", {**codec.to_jsonable(make_record()), "verdict": verdict})
    body = bytes([PROTOCOL_VERSION, _KIND_BYTES[doc.pop("kind")]]) + json.dumps(doc, ensure_ascii=False).encode("utf-8")
    assert len(body) <= _SMALL_CAP
    detail = f"bad performance_record payload: verdict must be 'satisfied' or 'unsatisfied', got {verdict!r}"
    unbounded = Message(MessageKind.ERROR, "server", ErrorInfo("malformed", detail), "unknown", 0)
    assert len(_reference_frame(unbounded)) - 4 > _SMALL_CAP  # the reply would not fit unbounded
    host, port = server.address
    with socket.create_connection((host, port)) as sock:
        sock.sendall(_framed(body))
        reply = read_frame(sock)
        assert reply.kind is MessageKind.ERROR
        assert reply.payload.code == "malformed"
        assert reply.payload.detail.startswith("bad performance_record payload: verdict must be ")
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
    body = bytes([PROTOCOL_VERSION, _KIND_BYTES[doc.pop("kind")]]) + json.dumps(doc, ensure_ascii=False).encode("utf-8")
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
