"""Server-side teacher agent: ingestion and task-request pipelines.

Two flows compose the memory module, the semantics engine, and the matching
chain:

* ingestion -- resource reports upsert the key-value store; performance
  records are appended to history, the (collaborator, task type) window is
  re-queried, and the refreshed semantics is upserted into the tree.
* task request -- semantics retrieval for the task type, owner dropped,
  resource retrieval, chain matching per candidate, then only devices that are
  both trusted and matched go into the candidate bundle. That assembly is
  :func:`assemble_bundle`, which the simulation's polling baseline shares;
  only where the semantics and profiles come from differs.

Serving a request touches memory only; it never contacts a device. That is the
whole point of the architecture, and the simulation asserts it with counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from .domain import DeviceId, PerformanceRecord, ResourceProfile, Task, TimestampMs, TrustSemantics, TrustState
from .errors import ValidationError
from .matching import MatchConfig, StageResult, evaluate_chain, missing_profile_verdict
from .memory import HistoryQuery, MemoryModule
from .semantics import DeterministicEngine, SemanticsEngine


@dataclass(frozen=True)
class Candidate:
    """One qualified collaborator: its trust semantics annotated with the match outcome."""

    semantics: TrustSemantics
    matched: bool
    stages: tuple[StageResult, ...]

    @property
    def device(self) -> DeviceId:
        return self.semantics.device


@dataclass(frozen=True)
class CandidateBundle:
    """What the teacher transfers to a student: qualified candidates only.

    Every candidate is matched and trusted, ordered by device id.
    """

    task_id: str
    candidates: tuple[Candidate, ...]
    generated_at: TimestampMs

    def __post_init__(self):
        devices = [c.device for c in self.candidates]
        if devices != sorted(devices):
            raise ValidationError("bundle candidates must be ordered by device id", field="candidates")
        for c in self.candidates:
            if not c.matched:
                raise ValidationError(f"unmatched candidate {c.device} in bundle", field="candidates")
            if c.semantics.state is not TrustState.TRUSTED:
                raise ValidationError(f"non-trusted candidate {c.device} in bundle", field="candidates")

    def devices(self) -> list[DeviceId]:
        return [c.device for c in self.candidates]


@dataclass(frozen=True)
class TeacherConfig:
    """Orchestration knobs.

    ``history_window_k``: how many newest records feed each extraction.
    """

    history_window_k: int = 20

    def __post_init__(self):
        if self.history_window_k < 1:
            raise ValidationError("history_window_k must be >= 1", field="history_window_k")


class TeacherAgent:
    """The server-side agent. Owns a MemoryModule and a SemanticsEngine."""

    def __init__(
        self,
        memory: MemoryModule | None = None,
        engine: SemanticsEngine | None = None,
        match_cfg: MatchConfig | None = None,
        cfg: TeacherConfig | None = None,
    ):
        self.memory = memory or MemoryModule()
        self.engine = engine or DeterministicEngine()
        self.match_cfg = match_cfg or MatchConfig()
        self.cfg = cfg or TeacherConfig()
        self._extraction_locks: dict[tuple[DeviceId, str], threading.Lock] = {}
        self._locks_guard = threading.Lock()

    def _lock_for(self, key: tuple[DeviceId, str]) -> threading.Lock:
        with self._locks_guard:
            lock = self._extraction_locks.get(key)
            if lock is None:
                lock = self._extraction_locks[key] = threading.Lock()
            return lock

    def handle_resource_report(self, profile: ResourceProfile) -> None:
        """Ingest an idle-state resource report. Raises StaleUpdateError on old reports."""
        self.memory.resources.upsert(profile)

    def handle_performance_record(
        self, record: PerformanceRecord, record_id: int | None = None
    ) -> TrustSemantics:
        """Ingest a collaboration outcome; return the collaborator's refreshed semantics."""
        self.memory.history.append(record, record_id=record_id)
        device, task_type = record.collaborator, record.task_type
        # Per-(device, task type) serialization so concurrent ingests for the
        # same pair cannot interleave query and upsert (lost updates).
        with self._lock_for((device, task_type)):
            window = self.memory.history.query(
                HistoryQuery(device, task_type, last_k=self.cfg.history_window_k)
            )
            semantics = self.engine.extract(device, task_type, window)
            self.memory.semantics.upsert(semantics)
            return semantics

    def handle_task_request(self, task: Task, now: TimestampMs) -> CandidateBundle:
        """Assemble the candidate bundle for a task request.

        All data come from the memory module; devices are never contacted.
        """
        return assemble_bundle(
            task,
            self.memory.semantics.get_by_task_type(task.task_type),
            self.memory.resources.get,
            now,
            self.match_cfg,
        )


def assemble_bundle(
    task: Task,
    semantics: Iterable[TrustSemantics],
    profile_of: Callable[[DeviceId], ResourceProfile | None],
    now: TimestampMs,
    match_cfg: MatchConfig,
) -> CandidateBundle:
    """The candidate bundle for ``task`` from per-device semantics and profiles.

    The owner and every device that is not trusted drop out. The rest run the
    matching chain against ``profile_of(device)``; a device without a profile
    fails the freshness stage. Matched devices are kept, ordered by device id.
    """
    candidates: list[Candidate] = []
    for sem in semantics:
        if sem.device == task.owner or sem.state is not TrustState.TRUSTED:
            continue
        profile = profile_of(sem.device)
        if profile is None:
            verdict = missing_profile_verdict(sem.device, task.task_id)
        else:
            verdict = evaluate_chain(task, profile, now, match_cfg)
        if verdict.matched:
            candidates.append(Candidate(sem, True, verdict.stages))
    candidates.sort(key=lambda c: c.device)
    return CandidateBundle(task.task_id, tuple(candidates), now)
