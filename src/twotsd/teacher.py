"""Server-side teacher agent: ingestion and task-request pipelines.

Two flows compose the memory module, the semantics engine, and the matching
chain:

* ingestion -- resource reports upsert the key-value store; a performance
  record joins its (collaborator, task type) window, the semantics is
  extracted from that window, and only then is the record appended to
  history and the refreshed semantics upserted into the tree. A batch of
  records extracts each pair it touches once, from the window with all of
  that pair's records placed, before storing them.
* task request -- semantics retrieval for the task type, owner and
  non-trusted devices dropped, resource retrieval, then the matching chain
  over every remaining candidate in one batch predicate
  (:func:`~twotsd.matching.feasible`); only devices that are both trusted and
  matched go into the candidate bundle. That assembly is
  :func:`assemble_bundle`, which the simulation's polling baseline shares;
  only where the semantics and profiles come from differs.

Serving a request touches memory only; it never contacts a device. That is the
whole point of the architecture, and the simulation asserts it with counters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields
from itertools import compress, repeat
from operator import attrgetter, lt
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import codec
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
from .matching import MatchConfig, feasible
from .memory import HistoryQuery, MemoryModule
from .semantics import DeterministicEngine, SemanticsEngine


_TRUSTED = TrustState.TRUSTED  # read once per candidate; a global is faster than the Enum class
_DEVICE, _STATE, _TASK_TYPE = attrgetter("device"), attrgetter("state"), attrgetter("task_type")

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


@dataclass(frozen=True, init=False)
class CandidateBundle:
    """What the teacher transfers to a student: qualified candidates only, held as columns.

    Every candidate is matched and trusted, of one task type, in strictly
    ascending device id order, so no device is listed twice. The bundle
    holds the task id, ``generated_at``, the candidates' ``task_type`` (None
    when there are none), their ``device_ids`` and ``block``: one ``codec``
    semantics record per device, in the same order, the bytes a bundle frame
    carries. ``candidates`` gives each as a matched ``Candidate``: the
    values the bundle was made from, or, for a decoded bundle, values built
    on first read from the columns that decoding checked, never checked
    twice. Two threads reading a decoded bundle's ``candidates`` at once
    build equal values; each read after that returns the same tuple.
    """

    task_id: str
    generated_at: TimestampMs
    task_type: TaskType | None
    device_ids: tuple[DeviceId, ...]
    block: bytes = field(repr=False)
    _source: Any = field(repr=False, compare=False)  # the leaves, or the checked columns, values come from
    _candidates: tuple[Candidate, ...] | None = field(repr=False, compare=False)

    def __init__(self, task_id: str, candidates: Iterable[Candidate], generated_at: TimestampMs):
        candidates = tuple(candidates)
        for semantics, matched in candidates:
            if not matched:
                raise ValidationError(f"unmatched candidate {semantics.device} in bundle", field="candidates")
        self._of_leaves(task_id, generated_at, [candidate.semantics for candidate in candidates], candidates)

    @classmethod
    def of_leaves(cls, task_id: str, generated_at: TimestampMs, leaves: list[TrustSemantics]
                  ) -> "CandidateBundle":
        """The bundle of matched ``leaves``, packed into its columns without a ``Candidate`` each."""
        bundle = object.__new__(cls)
        bundle._of_leaves(task_id, generated_at, leaves, None)
        return bundle

    @classmethod
    def of_columns(cls, task_id: str, generated_at: TimestampMs, columns: "codec.RecordColumns | None",
                   block: bytes) -> "CandidateBundle":
        """The bundle of ``block``, whose columns ``codec.checked_columns`` checked; None for no records."""
        devices = () if columns is None else tuple(columns.devices)
        _require_ascending(devices)
        bundle = object.__new__(cls)
        bundle._set(task_id, generated_at, None if columns is None else columns.task_type, devices, block,
                    [] if columns is None else columns, None)
        return bundle

    def _of_leaves(self, task_id: str, generated_at: TimestampMs, leaves: list[TrustSemantics],
                   candidates: tuple[Candidate, ...] | None) -> None:
        """Check ``leaves`` a column at a time as a bundle's candidates, then join their cached records."""
        devices = tuple(map(_DEVICE, leaves))
        _require_ascending(devices)
        if [*map(_STATE, leaves)].count(_TRUSTED) != len(leaves):
            device = next(leaf.device for leaf in leaves if leaf.state is not _TRUSTED)
            raise ValidationError(f"non-trusted candidate {device} in bundle", field="candidates")
        task_types = [*map(_TASK_TYPE, leaves)]
        task_type = task_types[0] if leaves else None
        if task_types.count(task_type) != len(leaves):
            raise ValidationError(
                f"bundle candidates of {len({*task_types})} task types; a bundle carries one", field="candidates")
        self._set(task_id, generated_at, task_type, devices, codec.block_of(leaves), leaves, candidates)

    def _set(self, *values) -> None:
        """Check the header values, then store every field, in declaration order."""
        _require_device_id(values[0], "task_id")
        _require_timestamp(values[1], "generated_at")
        for name, value in zip(_BUNDLE_FIELDS, values, strict=True):
            object.__setattr__(self, name, value)

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """Each candidate as a matched ``Candidate``, in device order.

        The tuples are built by ``tuple.__new__``, as the named tuple's own
        ``__new__`` would build them, without a Python-level call per candidate.
        """
        candidates = self._candidates
        if candidates is None:
            source = self._source
            leaves = source if type(source) is list else codec.semantics_of_columns(source)
            candidates = tuple(map(tuple.__new__, repeat(Candidate), zip(leaves, repeat(True))))
            object.__setattr__(self, "_candidates", candidates)
        return candidates

    def devices(self) -> list[DeviceId]:
        return list(self.device_ids)


_BUNDLE_FIELDS = tuple(f.name for f in fields(CandidateBundle))


def _require_ascending(devices: Sequence[DeviceId]) -> None:
    """Refuse device ids that are not in strictly ascending order, naming the first pair out of it."""
    if not all(map(lt, devices, devices[1:])):
        previous, device = next((a, b) for a, b in zip(devices, devices[1:]) if not a < b)
        raise ValidationError(
            f"bundle candidates must be ordered by device id, each once: {device} after {previous}",
            field="candidates",
        )


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
    drop out. The rest are matched against ``profile_of(device)`` in one
    pass of :func:`~twotsd.matching.feasible`; a device without a profile
    drops out too. Matched devices are kept, in the order given.
    """
    owner = task.owner
    trusted = [sem for sem in semantics if sem.state is _TRUSTED and sem.device != owner]
    matched = feasible(task, map(profile_of, map(_DEVICE, trusted)), now, match_cfg)
    return CandidateBundle.of_leaves(task.task_id, now, [*compress(trusted, matched)])
