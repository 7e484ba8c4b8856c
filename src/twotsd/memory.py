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
  semantics leaf, one leaf per (task type, device), stored per task type as
  its ordered device ids and their leaves, two parallel lists.

Every store serializes its mutations under a per-store lock; history
queries and tree reads hold the same lock, so they never see a half-done
write. :class:`MemoryModule` bundles the three and snapshots them to a single
versioned file (``load(save(state)) == state``), written atomically (temp
file, fsync, rename).

A version-8 snapshot is a binary column file. It starts with
:data:`SNAPSHOT_MAGIC`, then the byte length of a canonical-JSON header as a
little-endian uint64, then the header: format, version, the resource
profiles, one entry per history pair in sorted pair order, laid out as
:data:`PAIR_FIELDS` (the pair, its distinct owner ids and its record count),
and one ``[task_type, device ids]`` entry per task type of the tree, task
types and device ids ascending. The header is followed by each pair's
columns in pair order, as raw little-endian bytes: an owner-index column
into the pair's owner ids as uint32, ``at`` as int64, the four metrics as
IEEE-754 float64 and ``satisfied`` as one byte per record, 0 or 1. Then
comes each task type's leaf block, in header order: one ``TrustState`` code
byte per device, then one semantics record per device, the record a
candidate bundle carries (``codec``). The leaf blocks end the file. Saving
writes the store's arrays' bytes and each leaf's cached record; loading
reads each column into a pre-sized array, so no parsed document or text
copy of the columns is ever built, and checks each whole column as the
``PerformanceRecord`` constructor checks one value. Leaves go through
``codec.checked_columns``, the checker bundles use too. A file is
recognised by its magic, never by its name. An older snapshot (a JSON one
starts with ``{``) is read only to name its version in the refusal: a
snapshot is rebuilt from its scenario config and seed, not migrated.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import operator
import os
import struct
import sys
import threading
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

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
SNAPSHOT_VERSION = 8
# The first bytes of a binary file (version 7 and later). The high first byte
# marks it binary; no JSON document starts with it.
SNAPSHOT_MAGIC = b"\x89twotsd\n"
_HEADER_LENGTH = struct.Struct("<Q")

# Fields of one history pair's header entry; the pair's columns follow the
# header in RECORD_COLUMNS order, owners as indexes into the entry's owners.
PAIR_FIELDS = ("collaborator", "task_type", "owners", "count")
_OWNER_INDEX = "I"  # uint32, four bytes on every platform CPython supports
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
        """Snapshot v8's history: header entries and the column arrays that follow the header.

        ``pairs`` holds one :data:`PAIR_FIELDS` entry per pair in sorted pair
        order, its owners the pair's distinct ids in first-use order.
        ``columns`` holds, pair after pair, the owner-index column and copies
        of the pair's other columns, taken under the lock so a concurrent
        append cannot part them from the entries.
        """
        pairs, columns = [], []
        with self._lock:
            for key in sorted(self._by_key):
                owners, *numbers = self._by_key[key]
                distinct = list(dict.fromkeys(owners))
                position = {owner: i for i, owner in enumerate(distinct)}
                pairs.append([*key, distinct, len(owners)])
                columns.append(array(_OWNER_INDEX, map(position.__getitem__, owners)))
                columns.extend(column[:] for column in numbers)
        return {"pairs": pairs, "columns": columns}

    @classmethod
    def from_dict(cls, doc: dict[str, Any], reader: "_ColumnReader", ids: dict[str, str]) -> "HistoryStore":
        """Read each pair's columns from ``reader`` straight into the store, checking whole columns.

        ``doc`` is the header's history and ``reader`` stands at the first
        column. Each column is read into an array sized from the entry's
        count, once the file is known to hold that many bytes. Every column
        is checked as the ``PerformanceRecord`` constructor checks each of
        its values, and a refusal goes through
        the same helpers, so it names the same field and code. Nothing goes
        through ``append``: the store is not shared yet, and a traced load
        (``bench/tracing.py`` wraps ``append``) would otherwise count each
        loaded record as a served append. Ids are interned through ``ids``,
        so each distinct owner, collaborator and task type is one string
        object however many records name it.
        """
        store = cls()
        by_key = store._by_key
        pairs = doc["pairs"]
        if type(pairs) is not list:
            raise ValidationError("history pairs must be a list", field="pairs")
        for entry in pairs:
            key, columns = _read_pair(entry, reader, ids)
            if key in by_key:
                raise ValidationError(f"history pair {key} listed twice", field="pairs")
            by_key[key] = columns
        return store


class _ColumnReader:
    """The column bytes of an open snapshot, read one pre-sized array at a time."""

    def __init__(self, file: BinaryIO):
        self.file = file
        start = file.tell()
        self.left = file.seek(0, os.SEEK_END) - start
        file.seek(start)

    def read(self, name: str, code: str, n: int) -> array:
        """``n`` values of type ``code``, refused before allocating if the file holds fewer."""
        itemsize = array(code).itemsize
        size = n * itemsize
        if size > self.left:
            raise ValidationError(
                f"{name} is cut short: {n} {itemsize}-byte values need {size} bytes, "
                f"the file holds {self.left} more",
                field=name,
            )
        column = array(code, bytes(itemsize)) * n
        if self.file.readinto(column) != size:
            raise ValidationError(f"{name} is cut short: the file ended while reading it", field=name)
        self.left -= size
        if _BIG_ENDIAN:
            column.byteswap()
        return column


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


def _read_pair(entry: Any, reader: _ColumnReader, ids: dict[str, str]):
    """One snapshot history entry and its columns, as the pair key and its checked columns."""
    if type(entry) is not list or len(entry) != len(PAIR_FIELDS):
        raise ValidationError(
            f"history pair is not a list of {len(PAIR_FIELDS)} fields: {entry!r:.80}", field="pairs"
        )
    collaborator, task_type, owners, n = entry
    _require_device_id(collaborator, "collaborator")
    _require_device_id(task_type, "task_type")
    if type(owners) is not list or not owners:
        raise ValidationError("owners must be a nonempty list of ids", field="owners")
    _check_owners(owners, collaborator)
    if len(set(owners)) != len(owners):
        raise ValidationError("owners must list each id once", field="owners")
    if type(n) is not int or n < 1:
        raise ValidationError(f"count must be an integer >= 1, got {n!r:.40}", field="count")
    index = reader.read("owners", _OWNER_INDEX, n)
    at, throughput, loss, proc_speed, accuracy, satisfied = (
        reader.read(name, code, n) for name, code in zip(RECORD_COLUMNS[1:], COLUMN_CODES)
    )
    if max(index) >= len(owners):
        raise ValidationError(
            f"owner index {max(index)} is outside the pair's {len(owners)} owners", field="owners"
        )
    if max(satisfied) > 1:
        raise ValidationError(f"satisfied must hold bytes 0 or 1, got {max(satisfied)}", field="satisfied")
    if any(map(operator.gt, at, at[1:])):
        raise ValidationError(f"at must not decrease within a pair: {collaborator}, {task_type}", field="at")
    _check_numbers("throughput_mbps", throughput)
    _check_fractions("loss_rate", loss)
    _check_numbers("proc_speed_mbps", proc_speed)
    _check_fractions("accuracy", accuracy)
    intern = ids.setdefault
    collaborator = intern(collaborator, collaborator)
    task_type = intern(task_type, task_type)
    distinct = list(map(intern, owners, owners))
    owners = list(map(distinct.__getitem__, index))
    return (collaborator, task_type), [owners, at, throughput, loss, proc_speed, accuracy, satisfied]


class SemanticsTree:
    """Tree-structured trust-semantics store: root -> task type -> device -> leaf.

    Only the leaves are stored, one per (task type, device): per task type,
    its device ids in ascending order and their leaves at the same
    positions, as two parallel lists. An update finds its device by bisection
    and replaces the leaf in place or inserts both; a read of a task type
    copies its leaf list. The root, task-type and device levels are implied
    by the keys, so a snapshot holds each task type's device ids and then
    their leaves as one block.
    """

    def __init__(self):
        self._by_task_type: dict[TaskType, tuple[list[DeviceId], list[TrustSemantics]]] = {}
        self._lock = threading.Lock()

    def upsert(self, ts: TrustSemantics) -> None:
        """Insert or update the semantics leaf for (ts.task_type, ts.device)."""
        with self._lock:
            lists = self._by_task_type.get(ts.task_type)
            if lists is None:
                lists = self._by_task_type[ts.task_type] = ([], [])
            devices, leaves = lists
            device = ts.device
            i = bisect.bisect_left(devices, device)
            if i < len(devices) and devices[i] == device:
                leaves[i] = ts
            else:
                devices.insert(i, device)
                leaves.insert(i, ts)

    def get_by_task_type(self, task_type: TaskType) -> list[TrustSemantics]:
        """All semantics under one task type, ordered by device id."""
        with self._lock:
            lists = self._by_task_type.get(task_type)
            return [] if lists is None else lists[1][:]

    def task_types(self) -> list[TaskType]:
        with self._lock:
            return sorted(self._by_task_type)

    def devices_for(self, task_type: TaskType) -> list[DeviceId]:
        with self._lock:
            lists = self._by_task_type.get(task_type)
            return [] if lists is None else lists[0][:]

    def leaf_count(self) -> int:
        with self._lock:
            return sum(len(devices) for devices, _ in self._by_task_type.values())

    def node_count(self) -> int:
        """Root, one node per task type, and a device node plus a leaf per pair."""
        return 1 + len(self._by_task_type) + 2 * self.leaf_count()

    def to_dict(self) -> dict[str, Any]:
        """Snapshot v8's tree: header entries and the leaf blocks that follow the history's columns.

        ``task_types`` holds one ``[task_type, device ids]`` entry per task
        type, in ascending order. ``columns`` holds, task type after task
        type, its leaves' state codes and then their records
        (``codec.records_of``), from lists copied under the lock.
        """
        with self._lock:
            lists = [(task_type, devices[:], leaves[:])
                     for task_type, (devices, leaves) in sorted(self._by_task_type.items())]
        task_types, columns = [], []
        for task_type, devices, leaves in lists:
            task_types.append([task_type, devices])
            columns.extend(codec.records_of(leaves))
        return {"task_types": task_types, "columns": columns}

    @classmethod
    def from_dict(cls, doc: dict[str, Any], reader: _ColumnReader, ids: dict[str, str]) -> "SemanticsTree":
        """The tree of a snapshot's task-type entries, each leaf block read from ``reader``.

        Each block is read whole into a pre-sized array, checked by
        ``codec.checked_columns`` and built by ``codec.semantics_of_columns``.
        Task types and device ids are interned through ``ids``, the dict the
        history's load interned its ids through, so a device is one string
        object in both stores. A task type's lists are installed
        directly, not through ``upsert``: the tree is not shared yet, and a
        traced load (``bench/tracing.py`` wraps ``upsert``) would otherwise
        count each loaded leaf as a served update.
        """
        tree = cls()
        by_task_type = tree._by_task_type
        intern = ids.setdefault
        entries = doc["task_types"]
        if type(entries) is not list:
            raise ValidationError("tree task types must be a list", field="tree")
        for entry in entries:
            if type(entry) is not list or len(entry) != 2:
                raise ValidationError(f"tree entry is not a [task_type, devices] pair: {entry!r:.80}",
                                      field="tree")
            task_type, devices = entry
            if type(devices) is not list or not devices:
                raise ValidationError(f"devices of a tree entry must be a nonempty list: {devices!r:.80}",
                                      field="tree")
            states = reader.read("state", "B", len(devices))
            block = reader.read("leaves", "B", len(devices) * codec._RECORD.size)
            columns = codec.checked_columns(task_type, devices, states, block)
            if any(map(operator.ge, devices, devices[1:])):
                raise ValidationError(f"devices of {task_type} must ascend, each listed once", field="tree")
            if task_type in by_task_type:
                raise ValidationError(f"task type {task_type} listed twice", field="tree")
            columns = columns._replace(task_type=intern(task_type, task_type),
                                       devices=[*map(intern, devices, devices)])
            by_task_type[columns.task_type] = (columns.devices, codec.semantics_of_columns(columns))
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
        """Write the snapshot atomically: magic, header length, header, the columns, then the leaf blocks.

        The header goes out as one canonical-JSON document, each column as
        its array's bytes and each leaf block as its joined records,
        straight to a new temp file in the target's directory, which is
        flushed and fsynced and then renamed over the target. On any failure
        the temp file is removed and the previous snapshot stays as it was.
        Where directories can be opened (``os.O_DIRECTORY``), the directory
        is fsynced after the rename too, so the rename itself survives a
        crash once ``save`` returns.
        """
        path = Path(path)
        doc = self.to_snapshot_dict()
        columns = doc["history"].pop("columns")
        blocks = doc["tree"].pop("columns")
        header = codec.canonical_json_bytes(doc)
        tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(SNAPSHOT_MAGIC + _HEADER_LENGTH.pack(len(header)))
                fh.write(header)
                for column in columns:
                    if _BIG_ENDIAN:
                        column.byteswap()  # a copy: to_dict hands out no live column
                    fh.write(column)
                fh.writelines(blocks)  # little-endian already
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

        Only the header is parsed; the columns and leaf blocks are read from
        the file into their arrays, and must end it. The cyclic GC is paused
        across the read and the build, then restored to the caller's
        setting: every object they allocate is kept, so each collection
        would walk the growing heap again for nothing.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                fh = open(path, "rb")
            except OSError as exc:
                raise ValidationError(f"unreadable snapshot: {exc}") from None
            with fh:
                doc = _read_header(fh)
                module = cls()
                try:
                    module.resources = ResourceStore.from_dict(doc["resources"])
                    reader = _ColumnReader(fh)
                    ids: dict[str, str] = {}  # one string object per distinct id, in both stores
                    module.history = HistoryStore.from_dict(doc["history"], reader, ids)
                    module.semantics = SemanticsTree.from_dict(doc["tree"], reader, ids)
                    if reader.left:
                        raise ValidationError(f"{reader.left} bytes follow the last leaf block", field="tree")
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


def _parse_json(data: bytes) -> Any:
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # also an overlong int or too deep nesting
        raise ValidationError(f"unreadable snapshot: {exc}") from None


def _read_header(fh: BinaryIO) -> dict[str, Any]:
    """The parsed header of an open snapshot, leaving ``fh`` at the first column.

    A file that starts with ``{`` is an older, JSON snapshot: it is parsed
    only to name its version in the refusal. A header length is checked
    against the file's size before anything that long is read.
    """
    start = fh.read(len(SNAPSHOT_MAGIC) + _HEADER_LENGTH.size)
    older = start[:1] == b"{"
    if older:
        doc = _parse_json(start + fh.read())
    elif not start.startswith(SNAPSHOT_MAGIC):
        raise ValidationError(f"not a twotsd snapshot file: it starts {start[:8]!r}", field="magic")
    else:
        if len(start) < len(SNAPSHOT_MAGIC) + _HEADER_LENGTH.size:
            raise ValidationError("malformed snapshot: the file ends inside the header length", field="header")
        (length,) = _HEADER_LENGTH.unpack_from(start, len(SNAPSHOT_MAGIC))
        left = os.fstat(fh.fileno()).st_size - len(start)
        if length > left:
            raise ValidationError(
                f"malformed snapshot: a header of {length} bytes runs past the end of the file, "
                f"which holds {left} more",
                field="header",
            )
        doc = _parse_json(fh.read(length))
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise ValidationError("not a twotsd snapshot file")
    version = doc.get("version")
    if older or type(version) is not int or version != SNAPSHOT_VERSION:
        raise ValidationError(
            f"unsupported snapshot version {version!r}; this build reads binary version-"
            f"{SNAPSHOT_VERSION} files only, so rebuild the file with `twotsd simulate --snapshot`"
        )
    return doc
