"""Server-side teacher agent: ingestion and task-request pipelines.

Two flows compose the memory module, the semantics engine, and the matching
chain:

* ingestion -- resource reports upsert the key-value store; a performance
  record joins its (collaborator, task type) window, the semantics is
  extracted from that window, and only then is the record appended to
  history and the refreshed semantics upserted into the tree. A batch of
  records extracts each pair it touches once, from the window with all of
  that pair's records placed, before storing them.
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
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .domain import (
    DeviceId,
    PerformanceRecord,
    ResourceProfile,
    Task,
    TaskType,
    TimestampMs,
    TrustSemantics,
    TrustState,
    _require_device_id,
    _require_timestamp,
)
from .errors import ValidationError
from .matching import MatchConfig, evaluate_chain
from .memory import HistoryQuery, MemoryModule
from .semantics import DeterministicEngine, SemanticsEngine


_TRUSTED = TrustState.TRUSTED  # read once per candidate; a global is faster than the Enum class

_INGEST_LOCKS = 64  # per teacher; each (device, task type) pair takes one by its hash


class Candidate(NamedTuple):
    """One qualified collaborator: its trust semantics and the match outcome.

    The per-stage chain results stay on the server; only the semantics travel.
    """

    semantics: TrustSemantics
    matched: bool

    @property
    def device(self) -> DeviceId:
        return self.semantics.device


def matched_candidates(semantics: Iterable[TrustSemantics]) -> tuple[Candidate, ...]:
    """Each of ``semantics`` as a matched ``Candidate``.

    The tuples are built by ``tuple.__new__``, as the named tuple's own
    ``__new__`` would build them, without a Python-level call per candidate.
    """
    return tuple(map(tuple.__new__, repeat(Candidate), zip(semantics, repeat(True))))


@dataclass(frozen=True)
class CandidateBundle:
    """What the teacher transfers to a student: qualified candidates only.

    Every candidate is matched and trusted, in strictly ascending device id
    order, so no device is listed twice.
    """

    task_id: str
    candidates: tuple[Candidate, ...]
    generated_at: TimestampMs

    def __post_init__(self):
        _require_device_id(self.task_id, "task_id")
        _require_timestamp(self.generated_at, "generated_at")
        previous = None
        for semantics, matched in self.candidates:
            device = semantics.device
            if previous is not None and device <= previous:
                raise ValidationError(
                    f"bundle candidates must be ordered by device id, each once: {device} after {previous}",
                    field="candidates",
                )
            if not matched:
                raise ValidationError(f"unmatched candidate {device} in bundle", field="candidates")
            if semantics.state is not _TRUSTED:
                raise ValidationError(f"non-trusted candidate {device} in bundle", field="candidates")
            previous = device

    def devices(self) -> list[DeviceId]:
        return [c.device for c in self.candidates]


class TeacherAgent:
    """The server-side agent. Owns a MemoryModule and a SemanticsEngine."""

    def __init__(
        self,
        memory: MemoryModule | None = None,
        engine: SemanticsEngine | None = None,
        match_cfg: MatchConfig | None = None,
        window_k: int = 20,  # how many newest records feed each extraction
    ):
        if type(window_k) is not int or window_k < 1:
            raise ValidationError(f"window_k must be an integer >= 1, got {window_k!r}", field="window_k")
        self.memory = memory or MemoryModule()
        self.engine = engine or DeterministicEngine()
        self.match_cfg = match_cfg or MatchConfig()
        self.window_k = window_k
        self._ingest_locks = tuple(threading.Lock() for _ in range(_INGEST_LOCKS))

    def handle_resource_report(self, profile: ResourceProfile) -> None:
        """Ingest an idle-state resource report. Raises StaleUpdateError on old reports."""
        self.memory.resources.upsert(profile)

    def handle_performance_record(self, record: PerformanceRecord) -> TrustSemantics:
        """Ingest a collaboration outcome; return the collaborator's refreshed semantics.

        The record is stored only after its extraction succeeds, so an engine
        that raises leaves history and tree as they were, and a resend stores
        the record once.
        """
        return self._ingest_pair((record,))

    def handle_performance_records(self, records: Iterable[PerformanceRecord]) -> list[TrustSemantics]:
        """Ingest a batch of outcomes with one extraction per (device, task type) pair.

        The records are grouped by pair in first-seen order. Each pair's
        leaf is extracted from its newest ``window_k`` records with the
        whole batch placed: the leaf that ingesting the records one at a
        time would leave, since each ingest overwrites the last one's.
        Returns the refreshed semantics of each pair, in first-seen order.

        Each pair is stored all or nothing, in turn: an engine that raises
        for a pair leaves that pair's history and leaf as they were, the
        pairs before it stay stored, the pairs after it are not ingested,
        and the exception propagates.
        """
        by_pair: dict[tuple[DeviceId, TaskType], list[PerformanceRecord]] = {}
        for record in records:
            by_pair.setdefault((record.collaborator, record.task_type), []).append(record)
        return [self._ingest_pair(batch) for batch in by_pair.values()]

    def _ingest_pair(self, records: Sequence[PerformanceRecord]) -> TrustSemantics:
        """Extract once from ``records`` (all of one pair) placed in its window, then store them."""
        device, task_type = records[0].collaborator, records[0].task_type
        history = self.memory.history
        # Per-(device, task type) serialization so concurrent ingests for the
        # same pair cannot interleave query, append and upsert (lost updates).
        with self._ingest_locks[hash((device, task_type)) % _INGEST_LOCKS]:
            window = history.query(
                HistoryQuery(device, task_type, last_k=self.window_k)
            ).with_records(records)
            semantics = self.engine.extract(device, task_type, window[-self.window_k :])
            for record in records:
                history.append(record)
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

    ``semantics`` must come in strictly ascending device order, as
    ``SemanticsTree.get_by_task_type`` returns them; ``CandidateBundle``
    rejects any other order. The owner and every device that is not trusted
    drop out. The rest run the matching chain against ``profile_of(device)``;
    a device without a profile drops out too. Matched devices are kept, in
    the order given.
    """
    matched: list[TrustSemantics] = []
    for sem in semantics:
        if sem.device == task.owner or sem.state is not _TRUSTED:
            continue
        profile = profile_of(sem.device)
        if profile is not None and evaluate_chain(task, profile, now, match_cfg).matched:
            matched.append(sem)
    return CandidateBundle(task.task_id, matched_candidates(matched), now)
