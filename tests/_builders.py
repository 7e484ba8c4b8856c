"""Shared value factories for tests. Defaults are valid; override per test."""

from __future__ import annotations

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
from twotsd.memory import HistoryQuery, HistoryStore


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
