"""Teacher agent: ingestion pipeline, extraction windows, bundle assembly."""

from __future__ import annotations

import pytest

from twotsd.domain import Trend, TrustState, Verdict
from twotsd.errors import StaleUpdateError, ValidationError
from twotsd.memory import HistoryQuery, MemoryModule
from twotsd.semantics import DeterministicEngine
from twotsd.teacher import Candidate, CandidateBundle, TeacherAgent, TeacherConfig

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
    teacher = TeacherAgent(cfg=TeacherConfig(history_window_k=5))
    # 20 old satisfied records, then 5 unsatisfied: K=5 sees only failures.
    for rec in make_records(20):
        teacher.handle_performance_record(rec)
    for rec in make_records(5, start_at=50_000, verdict=Verdict.UNSATISFIED):
        sem = teacher.handle_performance_record(rec)
    assert sem.record_count == 5
    assert sem.state is TrustState.UNTRUSTED
    assert sem.window == (50_000, 54_000)


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
    return Candidate(engine.extract(device, "video_transcoding", records), matched, ())


def test_bundle_constructor_rejects_disorder_and_disqualified():
    CandidateBundle("t", (_candidate("a_a"), _candidate("a_b")), 0)
    with pytest.raises(ValidationError):
        CandidateBundle("t", (_candidate("a_b"), _candidate("a_a")), 0)
    with pytest.raises(ValidationError):
        CandidateBundle("t", (_candidate("a_a", matched=False),), 0)
    with pytest.raises(ValidationError):
        CandidateBundle("t", (_candidate("a_a", state=TrustState.UNTRUSTED),), 0)


def test_teacher_config_validates_window():
    with pytest.raises(ValidationError):
        TeacherConfig(history_window_k=0)


def test_explicit_record_ids_flow_through_to_history():
    memory = MemoryModule()
    teacher = TeacherAgent(memory=memory)
    teacher.handle_performance_record(make_record(), record_id=41)
    assert [rid for rid, _ in memory.history.all_records()] == [41]
