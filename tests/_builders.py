"""Shared value factories for tests. Defaults are valid; override per test."""

from __future__ import annotations

import json
import struct

from twotsd.domain import (
    PerformanceRecord,
    RecordWindow,
    ResourceProfile,
    Task,
    Trend,
    TrustSemantics,
    TrustState,
    Verdict,
)
from twotsd.memory import SNAPSHOT_MAGIC, HistoryQuery, HistoryStore


def make_record(**over) -> PerformanceRecord:
    base = dict(
        owner="a_i",
        collaborator="a_j",
        task_type="video_transcoding",
        at=1_000,
        throughput_mbps=100.0,
        loss_rate=0.01,
        proc_speed_mbps=2.0,
        accuracy=0.98,
        verdict=Verdict.SATISFIED,
    )
    base.update(over)
    return PerformanceRecord(**base)


def make_records(n: int, *, start_at: int = 1_000, step_ms: int = 1_000, **over):
    return [make_record(at=start_at + i * step_ms, **over) for i in range(n)]


def window_of(records, collaborator: str = "a_j", task_type: str = "video_transcoding") -> RecordWindow:
    """The window a fresh ``HistoryStore`` returns for ``records``, all of the given pair."""
    store = HistoryStore()
    for record in records:
        store.append(record)
    window = store.query(HistoryQuery(collaborator, task_type, last_k=max(len(records), 1)))
    assert len(window) == len(records), "records of another pair"
    return window


def make_profile(**over) -> ResourceProfile:
    base = dict(
        device="a_k",
        cpu_cps=1e10,
        storage_mb=200.0,
        bandwidth_mbps=100.0,
        updated_at=0,
    )
    base.update(over)
    return ResourceProfile(**base)


def make_task(**over) -> Task:
    base = dict(
        task_id="c2",
        owner="a_i",
        task_type="video_transcoding",
        size_mb=50.0,
        density_cpb=1000.0,
        deadline_s=50.0,
    )
    base.update(over)
    return Task(**base)


def make_semantics(**over) -> TrustSemantics:
    base = dict(
        device="a_j",
        task_type="video_transcoding",
        state=TrustState.TRUSTED,
        throughput=Trend.NORMAL,
        loss_rate=Trend.NORMAL,
        accuracy=Trend.NORMAL,
        proc_speed=Trend.NORMAL,
        window=(1_000, 20_000),
        extracted_at=20_000,
        record_count=20,
    )
    base.update(over)
    return TrustSemantics(**base)


def frame_snapshot(header: bytes, body: bytes = b"") -> bytes:
    """A binary snapshot file: the magic, the header's length as a little-endian uint64, the header, the columns."""
    return SNAPSHOT_MAGIC + struct.pack("<Q", len(header)) + header + body


def split_snapshot(data: bytes) -> tuple[dict, bytes]:
    """A binary snapshot file's parsed header and the column bytes after it."""
    start = len(SNAPSHOT_MAGIC) + 8
    (length,) = struct.unpack_from("<Q", data, len(SNAPSHOT_MAGIC))
    return json.loads(data[start:start + length]), data[start + length:]


def leaf_snapshot(task_types) -> bytes:
    """A v8 snapshot file holding only a tree, written independently of the module's writer.

    ``task_types`` holds one ``(task_type, devices, states, records)`` entry
    per task type: its header entry, then its leaf block's state code bytes
    and record bytes.
    """
    header = {"format": "twotsd-snapshot", "version": 8, "resources": {"profiles": []},
              "history": {"pairs": []},
              "tree": {"task_types": [[task_type, devices] for task_type, devices, _, _ in task_types]}}
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return frame_snapshot(text, b"".join(states + records for _, _, states, records in task_types))
