"""The teacher's augmented memory: resource store, history store, semantics tree.

Three components back the server-side agent:

* :class:`ResourceStore` -- key-value map device -> newest ResourceProfile,
  rejecting stale writes.
* :class:`HistoryStore` -- append-only performance-record log with a
  (collaborator, task_type) secondary index; the "relational database" of the
  design, realized as the query contract rather than a SQL engine.
* :class:`SemanticsTree` -- the 4-level tree root -> task type -> device ->
  semantics leaf, one leaf per (task type, device), stored as a keyed map.

Every store serializes its mutations under a per-store lock; history
queries and tree reads hold the same lock, so they never see a half-done
write or prune. :class:`MemoryModule` bundles the three and
snapshots them to a single versioned JSON file (``load(save(state)) == state``).
"""

from __future__ import annotations

import bisect
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import codec
from .domain import (
    DeviceId,
    PerformanceRecord,
    ResourceProfile,
    TaskType,
    TimestampMs,
    TrustSemantics,
)
from .errors import DuplicateRecordError, StaleUpdateError, ValidationError

SNAPSHOT_FORMAT = "twotsd-snapshot"
SNAPSHOT_VERSION = 1


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


class HistoryStore:
    """Append-only record log, indexed by (collaborator, task_type).

    Record ids are dense integers assigned on append; explicit ids may be
    supplied (e.g. for idempotent replays) and must be unique. Each
    per-pair id list is kept ascending by (timestamp, id) as records arrive,
    so a query is a slice or two bisects and its results come out in that
    order. Records are immutable; the only removal path is explicit retention
    pruning.
    """

    def __init__(self):
        self._records: dict[int, PerformanceRecord] = {}
        self._by_key: dict[tuple[DeviceId, TaskType], list[int]] = {}
        self._next_id = 1
        self._lock = threading.Lock()

    def append(self, record: PerformanceRecord, record_id: int | None = None) -> int:
        with self._lock:
            if record_id is None:
                record_id = self._next_id
            elif record_id in self._records:
                raise DuplicateRecordError(f"record id {record_id} already stored")
            self._next_id = max(self._next_id, record_id + 1)
            self._records[record_id] = record
            ids = self._by_key.setdefault((record.collaborator, record.task_type), [])
            if not ids or self._order(ids[-1]) < (record.at, record_id):
                ids.append(record_id)
            else:
                bisect.insort(ids, record_id, key=self._order)
            return record_id

    def _order(self, record_id: int) -> tuple[TimestampMs, int]:
        return self._records[record_id].at, record_id

    def _at(self, record_id: int) -> TimestampMs:
        return self._records[record_id].at

    def query(self, q: HistoryQuery) -> list[PerformanceRecord]:
        with self._lock:
            ids = self._by_key.get((q.collaborator, q.task_type), [])
            if q.interval is not None:
                lo, hi = q.interval
                start = bisect.bisect_left(ids, lo, key=self._at)
                ids = ids[start : bisect.bisect_right(ids, hi, key=self._at)]
            else:
                ids = ids[-q.last_k :]
            return [self._records[i] for i in ids]

    def count_for(self, collaborator: DeviceId, task_type: TaskType) -> int:
        return len(self._by_key.get((collaborator, task_type), []))

    def all_records(self) -> list[tuple[int, PerformanceRecord]]:
        return sorted(self._records.items())

    def prune_older_than(self, cutoff: TimestampMs) -> int:
        """Retention: drop records with at < cutoff. Returns how many went."""
        with self._lock:
            dropped = 0
            for ids in self._by_key.values():
                cut = bisect.bisect_left(ids, cutoff, key=self._at)
                for i in ids[:cut]:
                    del self._records[i]
                del ids[:cut]
                dropped += cut
            return dropped

    def __len__(self) -> int:
        return len(self._records)

    def to_dict(self) -> dict[str, Any]:
        return {
            "next_id": self._next_id,
            "records": [[i, codec.record_to_dict(r)] for i, r in self.all_records()],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "HistoryStore":
        store = cls()
        for rid, item in doc["records"]:
            if type(rid) is not int or rid in store._records:
                raise ValidationError(f"record id {rid!r} is not a new integer", field="records")
            store.append(codec.record_from_dict(item), record_id=rid)
        next_id = doc["next_id"]
        if type(next_id) is not int or next_id < store._next_id:
            # Below a record id, the next append would overwrite a stored record.
            raise ValidationError(
                f"next_id {next_id!r} is not an integer above every record id", field="next_id"
            )
        store._next_id = next_id
        return store


class SemanticsTree:
    """Tree-structured trust-semantics store: root -> task type -> device -> leaf.

    Only the leaves are stored, one per (task type, device), keyed in a dict
    whose insertion order is the order in which each pair first appeared;
    updates replace the leaf in place. A sorted device list per task type
    gives ordered retrieval. The 4-level node view of snapshot version 1
    (depths root=0, task type=1, device=2, leaf=3; dense creation-order node
    ids; children sorted by key) is derived from that order in :meth:`to_dict`.
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
        """The v1 node list, replayed from the leaves in creation order."""
        with self._lock:
            leaves = list(self._leaves.items())
        nodes: list[dict[str, Any]] = []
        children: list[dict[str, int]] = []  # per node: child key -> child id

        def add(kind: str, key: str | None, parent: int | None, payload: Any = None) -> int:
            node_id = len(nodes)
            nodes.append(
                {"id": node_id, "kind": kind, "key": key, "parent": parent, "payload": payload}
            )
            children.append({})
            if parent is not None:
                children[parent][key or ""] = node_id
            return node_id

        add("root", None, None)
        type_ids: dict[TaskType, int] = {}
        for (task_type, device), ts in leaves:
            if task_type not in type_ids:
                type_ids[task_type] = add("task_type", task_type, 0)
            device_id = add("device", device, type_ids[task_type])
            add("semantics", None, device_id, codec.semantics_to_dict(ts))
        for node, kids in zip(nodes, children):
            node["children"] = [kids[k] for k in sorted(kids)]
        return {"next_node_id": len(nodes), "nodes": nodes}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SemanticsTree":
        tree = cls()
        for item in sorted(doc["nodes"], key=lambda n: n["id"]):
            if item["kind"] == "semantics" and item["payload"]:
                ts = codec.semantics_from_dict(item["payload"])
                if (ts.task_type, ts.device) in tree._leaves:
                    raise ValidationError(
                        f"semantics for ({ts.task_type}, {ts.device}) listed twice", field="nodes"
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
        data = codec.canonical_json_bytes(self.to_snapshot_dict())
        Path(path).write_bytes(data + b"\n")

    @classmethod
    def load(cls, path: str | Path) -> "MemoryModule":
        try:
            doc = json.loads(Path(path).read_bytes())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"unreadable snapshot: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
            raise ValidationError("not a twotsd snapshot file")
        if doc.get("version") != SNAPSHOT_VERSION:
            raise ValidationError(f"unsupported snapshot version {doc.get('version')}")
        module = cls()
        try:
            module.resources = ResourceStore.from_dict(doc["resources"])
            module.history = HistoryStore.from_dict(doc["history"])
            module.semantics = SemanticsTree.from_dict(doc["tree"])
        except (KeyError, TypeError, ValueError, AttributeError, ValidationError) as exc:
            raise ValidationError(f"malformed snapshot: {type(exc).__name__} {exc}") from None
        return module

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryModule):
            return NotImplemented
        return self.to_snapshot_dict() == other.to_snapshot_dict()
