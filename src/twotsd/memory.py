"""The teacher's augmented memory: resource store, history store, semantics tree.

Three components back the server-side agent:

* :class:`ResourceStore` -- key-value map device -> newest ResourceProfile,
  rejecting stale writes.
* :class:`HistoryStore` -- append-only performance records, one list per
  (collaborator, task_type) in (timestamp, arrival) order; the "relational
  database" of the design, realized as the query contract rather than a SQL
  engine.
* :class:`SemanticsTree` -- the 4-level tree root -> task type -> device ->
  semantics leaf, one leaf per (task type, device), stored as a keyed map.

Every store serializes its mutations under a per-store lock; history
queries and tree reads hold the same lock, so they never see a half-done
write. :class:`MemoryModule` bundles the three and snapshots them to a single
versioned JSON file (``load(save(state)) == state``), written atomically
(temp file, fsync, rename).

Snapshot version 5 stores history in columns: one entry per pair, in sorted
pair order, laid out as :data:`HISTORY_COLUMNS` (no per-file header, no
record ids). Each column is a list in store order, and ``satisfied`` holds
booleans. The tree is stored as the leaves' wire rows
(``codec.semantics_to_row``) sorted by (task type, device). Loading builds
each pair's list straight from its columns through the validating
``PerformanceRecord`` constructor, and reads each leaf through the
validating ``codec.semantics_from_row``. Any other version is refused: a
snapshot is rebuilt from its scenario config and seed, not migrated.
"""

from __future__ import annotations

import bisect
import gc
import json
import operator
import os
import threading
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Any, NoReturn

from . import codec
from .domain import (
    DeviceId,
    PerformanceRecord,
    ResourceProfile,
    TaskType,
    TimestampMs,
    TrustSemantics,
    Verdict,
    _require_device_id,
)
from .errors import StaleUpdateError, ValidationError

SNAPSHOT_FORMAT = "twotsd-snapshot"
SNAPSHOT_VERSION = 5

# Column order of one snapshot-v5 history entry: the pair, then its records'
# fields as one list each, in store order.
HISTORY_COLUMNS = (
    "collaborator",
    "task_type",
    "owners",
    "at",
    "throughput_mbps",
    "loss_rate",
    "proc_speed_mbps",
    "accuracy",
    "satisfied",
)


@dataclass(frozen=True)
class HistoryQuery:
    """Records for one (collaborator, task type), windowed by time or by count.

    Exactly one of ``interval`` / ``last_k`` must be set. ``interval`` bounds
    are inclusive on both ends.
    """

    collaborator: DeviceId
    task_type: TaskType
    last_k: int | None = None
    interval: tuple[TimestampMs, TimestampMs] | None = None

    def __post_init__(self):
        if (self.last_k is None) == (self.interval is None):
            raise ValidationError("exactly one of last_k / interval must be set", field="window")
        if self.last_k is not None and self.last_k < 1:
            raise ValidationError("last_k must be >= 1", field="last_k")
        if self.interval is not None and self.interval[0] > self.interval[1]:
            raise ValidationError("interval start must be <= end", field="interval")


class ResourceStore:
    """Newest resource profile per device, in a key-value map."""

    def __init__(self):
        self._profiles: dict[DeviceId, ResourceProfile] = {}
        self._lock = threading.Lock()

    def upsert(self, profile: ResourceProfile) -> None:
        with self._lock:
            current = self._profiles.get(profile.device)
            if current is not None and profile.updated_at < current.updated_at:
                raise StaleUpdateError(
                    f"profile for {profile.device} at {profile.updated_at} is older "
                    f"than stored {current.updated_at}"
                )
            self._profiles[profile.device] = profile

    def get(self, device: DeviceId) -> ResourceProfile | None:
        return self._profiles.get(device)

    def __len__(self) -> int:
        return len(self._profiles)

    def to_dict(self) -> dict[str, Any]:
        return {
            "profiles": [codec.profile_to_dict(self._profiles[d]) for d in sorted(self._profiles)]
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ResourceStore":
        store = cls()
        for item in doc["profiles"]:
            profile = codec.profile_from_dict(item)
            if profile.device in store._profiles:
                raise ValidationError(f"profile for {profile.device} listed twice", field="profiles")
            store._profiles[profile.device] = profile
        return store


_at = operator.attrgetter("at")


class HistoryStore:
    """Append-only performance records, one list per (collaborator, task_type).

    Each list is kept in (timestamp, arrival) order as records arrive: a record
    goes after every stored record of its pair with the same or an earlier
    timestamp, which for in-order arrivals is a plain append. A newest-K query
    is a slice and a time-interval query two bisects, so either costs
    O(log n + window) whatever the history depth. Records are immutable and
    never removed, so ``count_for`` counts every record appended for a pair.
    """

    def __init__(self):
        self._by_key: dict[tuple[DeviceId, TaskType], list[PerformanceRecord]] = {}
        self._lock = threading.Lock()

    def append(self, record: PerformanceRecord) -> None:
        key = (record.collaborator, record.task_type)
        with self._lock:
            records = self._by_key.get(key)
            if records is None:
                self._by_key[key] = [record]
            elif records[-1].at <= record.at:
                records.append(record)
            else:
                bisect.insort_right(records, record, key=_at)

    def query(self, q: HistoryQuery) -> list[PerformanceRecord]:
        with self._lock:
            records = self._by_key.get((q.collaborator, q.task_type), [])
            if q.interval is not None:
                lo, hi = q.interval
                return records[bisect.bisect_left(records, lo, key=_at) :
                               bisect.bisect_right(records, hi, key=_at)]
            return records[-q.last_k :]

    def count_for(self, collaborator: DeviceId, task_type: TaskType) -> int:
        return len(self._by_key.get((collaborator, task_type), ()))

    def __len__(self) -> int:
        with self._lock:
            return sum(map(len, self._by_key.values()))

    def to_dict(self) -> dict[str, Any]:
        """Snapshot v5: one entry of columns per pair, in sorted pair order."""
        with self._lock:
            return {"pairs": [_pair_to_columns(key, self._by_key[key]) for key in sorted(self._by_key)]}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "HistoryStore":
        """Build each pair's list from its columns; every record goes through the PerformanceRecord checks.

        Nothing goes through ``append``: the store is not shared yet, and a
        traced load (``bench/tracing.py`` wraps ``append``) would otherwise
        count each loaded record as a served append. Ids are interned through
        one dict, so each distinct owner, collaborator and task type is one
        string object however many records name it.
        """
        store = cls()
        by_key = store._by_key
        ids: dict[str, str] = {}
        for entry in doc["pairs"]:
            key, records = _pair_from_columns(entry, ids)
            if key in by_key:
                raise ValidationError(f"history pair {key} listed twice", field="pairs")
            by_key[key] = records
        return store


_SATISFIED, _UNSATISFIED = Verdict.SATISFIED, Verdict.UNSATISFIED
_FIELD_GETTERS = tuple(
    operator.attrgetter(name)
    for name in ("owner", "at", "throughput_mbps", "loss_rate", "proc_speed_mbps", "accuracy")
)


def _pair_to_columns(key: tuple[DeviceId, TaskType], records: list[PerformanceRecord]) -> list[Any]:
    return [
        *key,
        *(list(map(get, records)) for get in _FIELD_GETTERS),
        [r.verdict is _SATISFIED for r in records],
    ]


def _not_a_bool(value: Any) -> NoReturn:
    raise ValidationError(f"satisfied must hold booleans, got {value!r}", field="satisfied")


def _pair_from_columns(entry: Any, ids: dict[str, str]):
    """One snapshot-v5 history entry as its pair key and its records in store order."""
    if type(entry) is not list or len(entry) != len(HISTORY_COLUMNS):
        raise ValidationError(
            f"history pair is not a list of {len(HISTORY_COLUMNS)} columns: {entry!r:.80}",
            field="pairs",
        )
    collaborator, task_type, owners, *columns, satisfied = entry
    _require_device_id(collaborator, "collaborator")
    _require_device_id(task_type, "task_type")
    n = len(owners) if type(owners) is list else 0
    if n == 0:
        raise ValidationError("owners must be a nonempty list", field="owners")
    for name, column in zip(HISTORY_COLUMNS[3:], entry[3:]):
        if type(column) is not list or len(column) != n:
            raise ValidationError(f"{name} must be a list of {n} entries, one per owner", field=name)
    verdicts = [_SATISFIED if s is True else _UNSATISFIED if s is False else _not_a_bool(s)
                for s in satisfied]
    intern = ids.setdefault
    collaborator = intern(collaborator, collaborator)
    task_type = intern(task_type, task_type)
    owners = [intern(o, o) if type(o) is str else o for o in owners]
    records = list(map(PerformanceRecord, owners, repeat(collaborator), repeat(task_type),
                       *columns, verdicts))
    at = columns[0]  # integers now: each record checked its own
    if any(map(operator.gt, at, islice(at, 1, None))):
        raise ValidationError(f"at must not decrease within a pair: {collaborator}, {task_type}", field="at")
    return (collaborator, task_type), records


class SemanticsTree:
    """Tree-structured trust-semantics store: root -> task type -> device -> leaf.

    Only the leaves are stored, one per (task type, device), in a dict keyed
    by that pair; updates replace the leaf in place. A sorted device list per
    task type gives ordered retrieval. The root, task-type and device levels
    are implied by the keys, so a snapshot holds just the leaves, sorted by
    (task type, device).
    """

    def __init__(self):
        self._leaves: dict[tuple[TaskType, DeviceId], TrustSemantics] = {}
        self._devices: dict[TaskType, list[DeviceId]] = {}
        self._lock = threading.Lock()

    def upsert(self, ts: TrustSemantics) -> None:
        """Insert or update the semantics leaf for (ts.task_type, ts.device)."""
        with self._lock:
            key = (ts.task_type, ts.device)
            if key not in self._leaves:
                bisect.insort(self._devices.setdefault(ts.task_type, []), ts.device)
            self._leaves[key] = ts

    def get_by_task_type(self, task_type: TaskType) -> list[TrustSemantics]:
        """All semantics under one task type, ordered by device id."""
        with self._lock:
            return [self._leaves[(task_type, d)] for d in self._devices.get(task_type, ())]

    def task_types(self) -> list[TaskType]:
        with self._lock:
            return sorted(self._devices)

    def devices_for(self, task_type: TaskType) -> list[DeviceId]:
        with self._lock:
            return list(self._devices.get(task_type, ()))

    def leaf_count(self) -> int:
        return len(self._leaves)

    def node_count(self) -> int:
        """Root, one node per task type, and a device node plus a leaf per pair."""
        return 1 + len(self._devices) + 2 * len(self._leaves)

    def to_dict(self) -> dict[str, Any]:
        """Snapshot v3: each leaf as its wire row, sorted by (task type, device)."""
        with self._lock:
            leaves = [self._leaves[k] for k in sorted(self._leaves)]
        return {"leaves": [codec.semantics_to_row(ts) for ts in leaves]}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SemanticsTree":
        tree = cls()
        for ts in map(codec.semantics_from_row, doc["leaves"]):
            if (ts.task_type, ts.device) in tree._leaves:
                raise ValidationError(
                    f"semantics for ({ts.task_type}, {ts.device}) listed twice", field="tree"
                )
            tree.upsert(ts)
        return tree


class MemoryModule:
    """The three stores, plus single-file snapshotting."""

    def __init__(self):
        self.resources = ResourceStore()
        self.history = HistoryStore()
        self.semantics = SemanticsTree()

    def to_snapshot_dict(self) -> dict[str, Any]:
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "resources": self.resources.to_dict(),
            "history": self.history.to_dict(),
            "tree": self.semantics.to_dict(),
        }

    def save(self, path: str | Path) -> None:
        """Write the snapshot atomically.

        The bytes go to a new temp file in the target's directory, which is
        flushed and fsynced and then renamed over the target. On any failure
        the temp file is removed and the previous snapshot stays as it was.
        """
        path = Path(path)
        data = codec.canonical_json_bytes(self.to_snapshot_dict()) + b"\n"
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "MemoryModule":
        """Read a snapshot, checking every value as an ingest would.

        The cyclic GC is paused across the parse and the build, then restored
        to the caller's setting: every object they allocate is kept, so each
        collection would walk the growing heap again for nothing.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                doc = json.loads(Path(path).read_bytes())
            except (OSError, ValueError, RecursionError) as exc:  # also an overlong int or too deep nesting
                raise ValidationError(f"unreadable snapshot: {exc}") from None
            if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
                raise ValidationError("not a twotsd snapshot file")
            version = doc.get("version")
            if type(version) is not int or version != SNAPSHOT_VERSION:
                raise ValidationError(
                    f"unsupported snapshot version {version!r}; this build reads version "
                    f"{SNAPSHOT_VERSION} only, so rebuild the file with `twotsd simulate --snapshot`"
                )
            module = cls()
            try:
                module.resources = ResourceStore.from_dict(doc["resources"])
                module.history = HistoryStore.from_dict(doc["history"])
                module.semantics = SemanticsTree.from_dict(doc["tree"])
            except (KeyError, TypeError, ValueError, AttributeError, ValidationError) as exc:
                field, code = (exc.field, exc.code) if isinstance(exc, ValidationError) else (None, None)
                raise ValidationError(
                    f"malformed snapshot: {type(exc).__name__} {exc}", field=field, code=code
                ) from None
            return module
        finally:
            if enabled:
                gc.enable()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryModule):
            return NotImplemented
        return self.to_snapshot_dict() == other.to_snapshot_dict()
