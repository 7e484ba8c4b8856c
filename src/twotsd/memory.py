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
snapshots them to a single versioned JSON file (``load(save(state)) == state``),
written atomically (temp file, fsync, rename).

Snapshot version 2 stores history as positional rows in the column order
:data:`HISTORY_COLUMNS` (no per-file header) and the tree as a flat list of
leaves sorted by (task type, device). Version 1 (history as ``[id, record
dict]`` pairs, the tree as a 4-level node list) is still read, with each
leaf's device, task-type and root nodes checked against its payload; it is
no longer written, so a v1 file re-saves as v2.
"""

from __future__ import annotations

import bisect
import json
import os
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
    parse_verdict,
)
from .errors import DuplicateRecordError, StaleUpdateError, ValidationError

SNAPSHOT_FORMAT = "twotsd-snapshot"
SNAPSHOT_VERSION = 2
READABLE_VERSIONS = (1, 2)

# Column order of one snapshot-v2 history row.
HISTORY_COLUMNS = (
    "id",
    "owner",
    "collaborator",
    "task_type",
    "at",
    "throughput_mbps",
    "loss_rate",
    "proc_speed_mbps",
    "accuracy",
    "verdict",
    "extra",
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
        """Snapshot v2: ``next_id`` and one row per record, in id order."""
        return {
            "next_id": self._next_id,
            "rows": [
                [i, r.owner, r.collaborator, r.task_type, r.at, r.throughput_mbps, r.loss_rate,
                 r.proc_speed_mbps, r.accuracy, r.verdict.value, dict(r.extra)]
                for i, r in self.all_records()
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any], version: int = SNAPSHOT_VERSION) -> "HistoryStore":
        """One validated pass over the records, then one sort per pair.

        Version-2 rows and version-1 ``[id, record dict]`` pairs build the
        same index; every record goes through the PerformanceRecord checks.
        """
        if version == 1:
            items = ((rid, codec.record_from_dict(item)) for rid, item in doc["records"])
        else:
            items = map(_record_from_row, doc["rows"])
        store = cls()
        records = store._records
        orders: dict[tuple[DeviceId, TaskType], list[tuple[TimestampMs, int]]] = {}
        for rid, record in items:
            if type(rid) is not int or rid in records:
                raise ValidationError(f"record id {rid!r} is not a new integer", field="records")
            records[rid] = record
            key = (record.collaborator, record.task_type)
            order = orders.get(key)
            if order is None:
                order = orders[key] = []
            order.append((record.at, rid))
        for key, order in orders.items():
            order.sort()
            store._by_key[key] = [rid for _, rid in order]
        next_id = doc["next_id"]
        if type(next_id) is not int or next_id <= max(0, max(records, default=0)):
            # Below a record id, the next append would overwrite a stored record.
            raise ValidationError(
                f"next_id {next_id!r} is not an integer above every record id", field="next_id"
            )
        store._next_id = next_id
        return store


def _record_from_row(row: Any) -> tuple[Any, PerformanceRecord]:
    if type(row) is not list or len(row) != len(HISTORY_COLUMNS):
        raise ValidationError(
            f"history row is not a list of {len(HISTORY_COLUMNS)} columns: {row!r:.80}",
            field="rows",
        )
    rid, owner, collaborator, task_type, at, throughput, loss, proc, accuracy, verdict, extra = row
    if not isinstance(extra, dict):
        raise ValidationError(f"extra must be a mapping, got {extra!r}", field="extra")
    record = PerformanceRecord(
        owner, collaborator, task_type, at, throughput, loss, proc, accuracy,
        parse_verdict(verdict), extra,
    )
    return rid, record


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
        """Snapshot v2: the leaves, sorted by (task type, device)."""
        with self._lock:
            leaves = [self._leaves[k] for k in sorted(self._leaves)]
        return {"leaves": [codec.semantics_to_dict(ts) for ts in leaves]}

    @classmethod
    def from_dict(cls, doc: dict[str, Any], version: int = SNAPSHOT_VERSION) -> "SemanticsTree":
        if version == 1:
            leaves = _v1_leaves(doc["nodes"])
        else:
            leaves = map(codec.semantics_from_dict, doc["leaves"])
        tree = cls()
        for ts in leaves:
            if (ts.task_type, ts.device) in tree._leaves:
                raise ValidationError(
                    f"semantics for ({ts.task_type}, {ts.device}) listed twice", field="tree"
                )
            tree.upsert(ts)
        return tree


def _v1_leaves(nodes: list[dict[str, Any]]) -> list[TrustSemantics]:
    """The leaves of a v1 node list, in node-id order.

    Each leaf must hang from a device node keyed by its payload's device,
    under a task-type node keyed by its payload's task type, under the root.
    """
    by_id = {node["id"]: node for node in nodes}
    if len(by_id) != len(nodes):
        raise ValidationError("a tree node id is listed twice", field="nodes")
    leaves = []
    for node_id in sorted(by_id):
        node = by_id[node_id]
        if node["kind"] != "semantics" or not node["payload"]:
            continue
        ts = codec.semantics_from_dict(node["payload"])
        chain, parent = [], node["parent"]
        while parent is not None and len(chain) < 3:
            up = by_id[parent]
            chain.append((up["kind"], up["key"]))
            parent = up["parent"]
        if parent is not None or chain != [
            ("device", ts.device), ("task_type", ts.task_type), ("root", None)
        ]:
            raise ValidationError(
                f"semantics node {node_id} for ({ts.task_type}, {ts.device}) hangs under {chain}",
                field="nodes",
            )
        leaves.append(ts)
    return leaves


class MemoryModule:
    """The three stores, plus single-file snapshotting.

    ``loaded_version`` is the format version of the snapshot this memory was
    loaded from, or None for a memory built in process.
    """

    def __init__(self):
        self.resources = ResourceStore()
        self.history = HistoryStore()
        self.semantics = SemanticsTree()
        self.loaded_version: int | None = None

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
        try:
            doc = json.loads(Path(path).read_bytes())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"unreadable snapshot: {exc}") from None
        if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
            raise ValidationError("not a twotsd snapshot file")
        version = doc.get("version")
        if type(version) is not int or version not in READABLE_VERSIONS:
            raise ValidationError(f"unsupported snapshot version {version!r}")
        module = cls()
        module.loaded_version = version
        try:
            module.resources = ResourceStore.from_dict(doc["resources"])
            module.history = HistoryStore.from_dict(doc["history"], version)
            module.semantics = SemanticsTree.from_dict(doc["tree"], version)
        except (KeyError, TypeError, ValueError, AttributeError, ValidationError) as exc:
            raise ValidationError(f"malformed snapshot: {type(exc).__name__} {exc}") from None
        return module

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryModule):
            return NotImplemented
        return self.to_snapshot_dict() == other.to_snapshot_dict()
