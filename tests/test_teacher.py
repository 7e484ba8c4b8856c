"""Teacher agent: ingestion pipeline, extraction windows, bundle assembly."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotsd.domain import RecordWindow, Trend, TrustState, Verdict
from twotsd.errors import RemoteTimeoutError, StaleUpdateError, ValidationError
from twotsd.memory import HistoryQuery, HistoryStore
from twotsd.semantics import DeterministicEngine
from twotsd.teacher import Candidate, CandidateBundle, TeacherAgent

from _builders import make_profile, make_record, make_records, make_task


def test_ingest_updates_tree_incrementally():
    teacher = TeacherAgent()
    for i, rec in enumerate(make_records(6, collaborator="a_j")):
        sem = teacher.handle_performance_record(rec)
        assert sem.device == "a_j"
        assert sem.record_count == i + 1
    (leaf,) = teacher.memory.semantics.get_by_task_type("video_transcoding")
    assert leaf.state is TrustState.TRUSTED
    assert leaf.record_count == 6


def test_extraction_window_is_trimmed_to_last_k():
    teacher = TeacherAgent(window_k=5)
    # 20 old satisfied records, then 5 unsatisfied: K=5 sees only failures.
    for rec in make_records(20):
        teacher.handle_performance_record(rec)
    for rec in make_records(5, start_at=50_000, verdict=Verdict.UNSATISFIED):
        sem = teacher.handle_performance_record(rec)
    assert sem.record_count == 5
    assert sem.state is TrustState.UNTRUSTED
    assert sem.window == (50_000, 54_000)


class _FlakyEngine(DeterministicEngine):
    """Raises on its first ``failures`` calls, then extracts; keeps every window it is given."""

    def __init__(self, failures: int = 0):
        super().__init__()
        self.failures = failures
        self.windows = []

    def extract(self, device, task_type, records):
        self.windows.append(list(records))
        if self.failures:
            self.failures -= 1
            raise RemoteTimeoutError("no answer in time")
        return super().extract(device, task_type, records)


class _SlowEngine(DeterministicEngine):
    """Sleeps 1 ms in each extraction, so ingests that are not serialized interleave."""

    def extract(self, device, task_type, records):
        time.sleep(0.001)
        return super().extract(device, task_type, records)


def test_concurrent_ingests_into_one_pair_leave_the_leaf_of_the_final_window():
    """The per-pair lock keeps query, extract, append and upsert of one ingest together."""
    teacher = TeacherAgent(engine=_SlowEngine(), window_k=5)
    threads, per_thread = 8, 10
    barrier = threading.Barrier(threads)

    def ingest(thread):
        barrier.wait(timeout=10)
        for i in range(per_thread):  # later records are newer, whichever thread sends them
            at = 1_000 * (i * threads + thread + 1)
            teacher.handle_performance_record(make_record(at=at, throughput_mbps=100.0 + i))

    workers = [threading.Thread(target=ingest, args=(t,)) for t in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
    assert not any(w.is_alive() for w in workers)
    assert len(teacher.memory.history) == threads * per_thread
    final = teacher.memory.history.query(HistoryQuery("a_j", "video_transcoding", last_k=5))
    (leaf,) = teacher.memory.semantics.get_by_task_type("video_transcoding")
    assert leaf == DeterministicEngine().extract("a_j", "video_transcoding", final)


def test_ingest_hands_the_engine_a_window_of_history_columns():
    """The extraction window is built from column slices, not from records."""
    given = []

    class _Engine(DeterministicEngine):
        def extract(self, device, task_type, records):
            given.append(records)
            return super().extract(device, task_type, records)

    teacher = TeacherAgent(engine=_Engine(), window_k=5)
    records = make_records(8)
    for rec in records:
        teacher.handle_performance_record(rec)
    assert [type(window) for window in given] == [RecordWindow] * 8
    assert list(given[-1]) == records[-5:]
    assert given[-1] == teacher.memory.history.query(HistoryQuery("a_j", "video_transcoding", last_k=5))


def test_an_engine_that_raises_leaves_the_record_unstored():
    teacher = TeacherAgent(engine=_FlakyEngine())
    for rec in make_records(3):
        teacher.handle_performance_record(rec)
    (leaf,) = teacher.memory.semantics.get_by_task_type("video_transcoding")
    teacher.engine.failures = 1
    resent = make_record(at=10_000, verdict=Verdict.UNSATISFIED)
    with pytest.raises(RemoteTimeoutError):
        teacher.handle_performance_record(resent)
    assert teacher.memory.history.count_for("a_j", "video_transcoding") == 3
    assert teacher.memory.semantics.get_by_task_type("video_transcoding") == [leaf]
    sem = teacher.handle_performance_record(resent)  # the resend after the error
    assert teacher.memory.history.count_for("a_j", "video_transcoding") == 4
    assert sem.record_count == 4 and sem.window == (1_000, 10_000)
    assert teacher.memory.semantics.get_by_task_type("video_transcoding") == [sem]


@settings(max_examples=100, deadline=None)
@given(
    history=st.lists(st.integers(0, 12), max_size=30),
    at=st.integers(-1, 13),
    window_k=st.integers(1, 8),
)
def test_extraction_window_equals_the_append_then_query_window(history, at, window_k):
    """Tied and out-of-order timestamps: the new record sits where the store puts it."""
    # Each record tagged by a distinct throughput, so the windows compare arrival order too.
    records = [make_record(at=t, throughput_mbps=float(i)) for i, t in enumerate(history)]
    new = make_record(at=at, throughput_mbps=float(len(history)))
    engine = _FlakyEngine()
    teacher = TeacherAgent(engine=engine, window_k=window_k)
    reference = HistoryStore()
    for rec in records:
        teacher.memory.history.append(rec)
        reference.append(rec)
    reference.append(new)
    teacher.handle_performance_record(new)
    query = HistoryQuery("a_j", "video_transcoding", last_k=window_k)
    assert engine.windows == [list(reference.query(query))]
    assert teacher.memory.history.query(query) == reference.query(query)


def test_resource_report_stale_rejection_propagates():
    teacher = TeacherAgent()
    teacher.handle_resource_report(make_profile(updated_at=2_000))
    with pytest.raises(StaleUpdateError):
        teacher.handle_resource_report(make_profile(updated_at=1_000))


def _loaded_teacher() -> TeacherAgent:
    """a_k clean+fast, a_j trusted but low bandwidth, a_l untrusted, a_m no profile."""
    teacher = TeacherAgent()
    teacher.handle_resource_report(make_profile(device="a_k", updated_at=100_000))
    teacher.handle_resource_report(
        make_profile(device="a_j", bandwidth_mbps=1.0, updated_at=100_000)
    )
    teacher.handle_resource_report(make_profile(device="a_l", updated_at=100_000))
    for device in ["a_k", "a_j", "a_m"]:
        for rec in make_records(8, collaborator=device):
            teacher.handle_performance_record(rec)
    for rec in make_records(8, collaborator="a_l", verdict=Verdict.UNSATISFIED):
        teacher.handle_performance_record(rec)
    return teacher


def test_bundle_keeps_only_trusted_matched_devices():
    teacher = _loaded_teacher()
    # 50 MB over 1 Mbps is 400 s of transfer: a_j fails the deadline stage.
    bundle = teacher.handle_task_request(make_task(deadline_s=50.0), now=100_000)
    assert bundle.devices() == ["a_k"]
    assert bundle.task_id == "c2"
    assert bundle.generated_at == 100_000
    assert all(c.matched for c in bundle.candidates)


def test_bundle_excludes_owner_even_if_qualified():
    teacher = _loaded_teacher()
    bundle = teacher.handle_task_request(make_task(owner="a_k"), now=100_000)
    assert "a_k" not in bundle.devices()


def test_bundle_sorted_by_device_id():
    teacher = _loaded_teacher()
    # Loosen the deadline so a_j matches too despite the slow link.
    bundle = teacher.handle_task_request(make_task(deadline_s=10_000.0), now=100_000)
    assert bundle.devices() == ["a_j", "a_k"]


def test_untrusted_and_profileless_devices_never_appear():
    teacher = _loaded_teacher()
    bundle = teacher.handle_task_request(make_task(deadline_s=10_000.0), now=100_000)
    assert "a_l" not in bundle.devices()  # untrusted
    assert "a_m" not in bundle.devices()  # trusted but no resource profile


def test_unknown_task_type_yields_empty_bundle():
    teacher = _loaded_teacher()
    bundle = teacher.handle_task_request(make_task(task_type="text_word_count"), now=100_000)
    assert bundle.devices() == []


def test_request_serves_from_memory_only():
    """A request mutates neither the history nor the tree."""
    teacher = _loaded_teacher()
    history_len = len(teacher.memory.history)
    tree = teacher.memory.semantics.to_dict()
    teacher.handle_task_request(make_task(), now=100_000)
    assert len(teacher.memory.history) == history_len
    assert teacher.memory.semantics.to_dict() == tree


def _candidate(device: str, state=TrustState.TRUSTED, matched=True) -> Candidate:
    engine = DeterministicEngine()
    records = make_records(8, collaborator=device)
    if state is not TrustState.TRUSTED:
        records = make_records(8, collaborator=device, verdict=Verdict.UNSATISFIED)
    return Candidate(engine.extract(device, "video_transcoding", records), matched)


def test_bundle_constructor_rejects_disorder_and_disqualified():
    CandidateBundle("t", (_candidate("a_a"), _candidate("a_b")), 0)
    with pytest.raises(ValidationError):
        CandidateBundle("t", (_candidate("a_b"), _candidate("a_a")), 0)
    with pytest.raises(ValidationError):
        CandidateBundle("t", (_candidate("a_a", matched=False),), 0)
    with pytest.raises(ValidationError):
        CandidateBundle("t", (_candidate("a_a", state=TrustState.UNTRUSTED),), 0)


def test_bundle_constructor_rejects_a_device_listed_twice():
    c = _candidate("d1")
    with pytest.raises(ValidationError, match="ordered by device id, each once"):
        CandidateBundle("t", (c, c), 5)


@pytest.mark.parametrize(
    "task_id, generated_at, field",
    [("", 5, "task_id"), (["t"], 5, "task_id"), ("t", "5", "generated_at"), ("t", 5.0, "generated_at")],
)
def test_bundle_constructor_type_checks_its_header(task_id, generated_at, field):
    with pytest.raises(ValidationError, match=field):
        CandidateBundle(task_id, (_candidate("d1"),), generated_at)


def test_teacher_validates_window_k():
    with pytest.raises(ValidationError, match="window_k"):
        TeacherAgent(window_k=0)
