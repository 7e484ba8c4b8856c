"""The teacher's augmented memory: resource store, history store, semantics tree.

Three components back the server-side agent:

* :class:`ResourceStore` -- key-value map device -> newest ResourceProfile,
  rejecting stale writes.
* :class:`HistoryStore` -- append-only performance records, kept as
  columns per (collaborator, task_type) in (timestamp, arrival) order (ids
  in a list, numbers in ``array`` columns); the "relational database" of the
  design, realized as the query contract rather than a SQL engine. A query
  returns a :class:`~twotsd.domain.RecordWindow` of column slices.
* :class:`SemanticsTree` -- the 4-level tree root -> task type -> device ->
  semantics leaf, one leaf per (task type, device), stored as a keyed map.

Every store serializes its mutations under a per-store lock; history
queries and tree reads hold the same lock, so they never see a half-done
write. :class:`MemoryModule` bundles the three and snapshots them to a single
versioned JSON file (``load(save(state)) == state``), written atomically
(temp file, fsync, rename).

Snapshot version 6 stores history in columns: one entry per pair, in sorted
pair order, laid out as :data:`HISTORY_COLUMNS` (no per-file header, no
record ids). ``owners`` is a JSON list of ids in store order; every other
record column is one base64 string of packed little-endian values: ``at``
as int64, the four metrics as IEEE-754 float64 and ``satisfied`` as one
byte per record, 0 or 1. The tree is stored as the leaves' wire rows
(``codec.semantics_to_row``) sorted by (task type, device), and saving
writes the store's arrays' bytes. Loading decodes each pair's packed
columns straight into the store, checking each whole column as the
``PerformanceRecord`` constructor checks one value, and reads each leaf
through the validating ``codec.semantics_from_row``. Any other version is
refused: a snapshot is rebuilt from its scenario config and seed, not
migrated.
"""

from __future__ import annotations

import base64
import bisect
import gc
import json
import math
import operator
import os
import sys
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from . import codec
from .domain import (
    COLUMN_CODES,
    RECORD_COLUMNS,
    DeviceId,
    PerformanceRecord,
    RecordWindow,
    ResourceProfile,
    TaskType,
    TimestampMs,
    TrustSemantics,
    _empty_columns,
    _place,
    _refuse_self_collaboration,
    _require_device_id,
    _require_number,
    _require_timestamp,
    from_fields,
    parse_fraction,
)
from .errors import StaleUpdateError, ValidationError

SNAPSHOT_FORMAT = "twotsd-snapshot"
SNAPSHOT_VERSION = 6

# Column order of one snapshot-v6 history entry: the pair, then its history
# columns in store order.
HISTORY_COLUMNS = ("collaborator", "task_type") + RECORD_COLUMNS
_BIG_ENDIAN = sys.byteorder == "big"


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
        if self.last_k is not None:
            if type(self.last_k) is not int:
                raise ValidationError(f"last_k must be an integer, got {self.last_k!r}", field="last_k")
            if self.last_k < 1:
                raise ValidationError("last_k must be >= 1", field="last_k")
        if self.interval is not None:
            if type(self.interval) is not tuple or len(self.interval) != 2:
                raise ValidationError("interval must be a (start, end) tuple", field="interval")
            lo, hi = self.interval
            _require_timestamp(lo, "interval")
            _require_timestamp(hi, "interval")
            if lo > hi:
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
            "profiles": [codec.to_jsonable(self._profiles[d]) for d in sorted(self._profiles)]
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "ResourceStore":
        store = cls()
        for item in doc["profiles"]:
            profile = from_fields(ResourceProfile, item, "profile")
            if profile.device in store._profiles:
                raise ValidationError(f"profile for {profile.device} listed twice", field="profiles")
            store._profiles[profile.device] = profile
        return store


class HistoryStore:
    """Append-only performance records, kept as columns per (collaborator, task_type).

    Each pair's history is one value per record in each of
    ``RECORD_COLUMNS``: owner ids in a list, ``at`` in an ``array('q')``, the
    four metrics in ``array('d')``s and ``satisfied`` in an ``array('B')``.
    The columns are kept in (timestamp, arrival) order as records arrive: a
    record goes after every stored record of its pair with the same or an
    earlier timestamp, which for in-order arrivals is a plain append. A
    query returns a :class:`RecordWindow` of column slices; a newest-K query
    is a slice and a time-interval query two bisects, so either costs
    O(log n + window) whatever the history depth, and builds no record.
    Records are never removed, so ``count_for`` counts every record appended
    for a pair.
    """

    def __init__(self):
        self._by_key: dict[tuple[DeviceId, TaskType], list] = {}
        self._lock = threading.Lock()

    def append(self, record: PerformanceRecord) -> None:
        key = (record.collaborator, record.task_type)
        with self._lock:
            columns = self._by_key.get(key)
            if columns is None:
                columns = self._by_key[key] = _empty_columns()
            _place(columns, record)

    def query(self, q: HistoryQuery) -> RecordWindow:
        with self._lock:
            columns = self._by_key.get((q.collaborator, q.task_type))
            if columns is None:
                return RecordWindow(q.collaborator, q.task_type, *_empty_columns())
            owners, at, throughput, loss, proc_speed, accuracy, satisfied = columns
            if q.interval is not None:
                lo, hi = q.interval
                s = slice(bisect.bisect_left(at, lo), bisect.bisect_right(at, hi))
            else:
                s = slice(max(len(at) - q.last_k, 0), None)
            return RecordWindow(q.collaborator, q.task_type, owners[s], at[s], throughput[s], loss[s],
                                proc_speed[s], accuracy[s], satisfied[s])

    def count_for(self, collaborator: DeviceId, task_type: TaskType) -> int:
        columns = self._by_key.get((collaborator, task_type))
        return 0 if columns is None else len(columns[1])

    def __len__(self) -> int:
        with self._lock:
            return sum(len(columns[1]) for columns in self._by_key.values())

    def to_dict(self) -> dict[str, Any]:
        """Snapshot v6: one entry of columns per pair, in sorted pair order."""
        with self._lock:
            return {"pairs": [_pair_to_columns(key, self._by_key[key]) for key in sorted(self._by_key)]}

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "HistoryStore":
        """Decode each pair's packed columns straight into the store, checking whole columns.

        Every column is checked as the ``PerformanceRecord`` constructor
        checks each of its values, and a refusal goes through the same
        helpers, so it names the same field and code. Each entry of
        ``doc["pairs"]`` is replaced by None as its columns are decoded, so
        the parsed document shrinks while the store grows instead of both
        peaking together. Nothing goes through ``append``: the store is not
        shared yet, and a traced load (``bench/tracing.py`` wraps ``append``)
        would otherwise count each loaded record as a served append. Ids are
        interned through one dict, so each distinct owner, collaborator and
        task type is one string object however many records name it.
        """
        store = cls()
        by_key = store._by_key
        ids: dict[str, str] = {}
        pairs = doc["pairs"]
        if type(pairs) is not list:
            raise ValidationError("history pairs must be a list", field="pairs")
        for i, entry in enumerate(pairs):
            pairs[i] = None
            key, columns = _pair_from_columns(entry, ids)
            if key in by_key:
                raise ValidationError(f"history pair {key} listed twice", field="pairs")
            by_key[key] = columns
        return store


def _pack(column: array) -> str:
    if _BIG_ENDIAN:
        column = column[:]
        column.byteswap()
    return base64.b64encode(column).decode("ascii")


def _unpack(name: str, code: str, text: Any, n: int) -> array:
    """One packed column of ``n`` values, its type and byte length checked."""
    if type(text) is not str:
        raise ValidationError(f"{name} must be a base64 string of packed values", field=name)
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValidationError(f"{name} is not valid base64: {exc}", field=name) from None
    column = array(code)
    if len(data) != n * column.itemsize:
        raise ValidationError(
            f"{name} must pack {n} {column.itemsize}-byte values, one per owner, not {len(data)} bytes",
            field=name,
        )
    column.frombytes(data)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _pair_to_columns(key: tuple[DeviceId, TaskType], columns: list) -> list[Any]:
    owners, *packed = columns
    return [*key, list(owners), *map(_pack, packed)]


def _check_owners(owners: list, collaborator: DeviceId) -> None:
    """Refuse the first owner that is not a nonempty id or is the collaborator itself."""
    for owner in owners:
        _require_device_id(owner, "owner")
        if owner == collaborator:
            _refuse_self_collaboration(owner)


def _check_numbers(name: str, column: array) -> None:
    """Refuse the first value that is not a finite number >= 0, as the record constructor would."""
    # A NaN or an infinity makes the sum NaN or infinite, whatever min makes
    # of it; a sum that overflows sends the column to the exact scan.
    if not (min(column) >= 0.0 and math.isfinite(sum(column))):
        for value in column:
            if not 0.0 <= value < math.inf:
                _require_number(value, name)


def _check_fractions(name: str, column: array) -> None:
    """Refuse the first value outside [0, 1], as the record constructor would."""
    if not (min(column) >= 0.0 and max(column) <= 1.0 and math.isfinite(sum(column))):
        for value in column:
            if not 0.0 <= value <= 1.0:
                parse_fraction(value, name)


def _pair_from_columns(entry: Any, ids: dict[str, str]):
    """One snapshot-v6 history entry as its pair key and its checked columns."""
    if type(entry) is not list or len(entry) != len(HISTORY_COLUMNS):
        raise ValidationError(
            f"history pair is not a list of {len(HISTORY_COLUMNS)} columns: {entry!r:.80}",
            field="pairs",
        )
    collaborator, task_type, owners = entry[:3]
    _require_device_id(collaborator, "collaborator")
    _require_device_id(task_type, "task_type")
    n = len(owners) if type(owners) is list else 0
    if n == 0:
        raise ValidationError("owners must be a nonempty list", field="owners")
    at, throughput, loss, proc_speed, accuracy, satisfied = (
        _unpack(name, code, text, n)
        for name, code, text in zip(HISTORY_COLUMNS[3:], COLUMN_CODES, entry[3:])
    )
    if max(satisfied) > 1:
        raise ValidationError(f"satisfied must hold bytes 0 or 1, got {max(satisfied)}", field="satisfied")
    if any(map(operator.gt, at, at[1:])):
        raise ValidationError(f"at must not decrease within a pair: {collaborator}, {task_type}", field="at")
    if set(map(type, owners)) != {str} or not {"", collaborator}.isdisjoint(owners):
        _check_owners(owners, collaborator)
    _check_numbers("throughput_mbps", throughput)
    _check_fractions("loss_rate", loss)
    _check_numbers("proc_speed_mbps", proc_speed)
    _check_fractions("accuracy", accuracy)
    intern = ids.setdefault
    collaborator = intern(collaborator, collaborator)
    task_type = intern(task_type, task_type)
    owners = list(map(intern, owners, owners))
    return (collaborator, task_type), [owners, at, throughput, loss, proc_speed, accuracy, satisfied]


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
        """Each leaf as its semantics row, sorted by (task type, device)."""
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
        Where directories can be opened (``os.O_DIRECTORY``), the directory
        is fsynced after the rename too, so the rename itself survives a
        crash once ``save`` returns.
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
        if hasattr(os, "O_DIRECTORY"):
            fd = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

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
