"""Core value types: tasks, resource profiles, performance records, trust semantics.

All values are immutable after construction and validate their own invariants,
so any instance that exists is well-formed. The exception is
``RecordWindow``, a view of stored history whose values were checked on the
way into the store. Tasks and records carry only their named fields, and
trust semantics carries one ``Trend`` field per metric, in the column order
of its wire and snapshot row. Raw (possibly stringly-typed) input goes
through :func:`from_fields`, which takes a value's fields by name and ignores
other keys; :func:`validate_task` and :func:`validate_record` are its task
and record forms, and records also accept percent-style fields like ``"1%"``
and verdict labels.

Unit conventions: MB = 10^6 bytes, Mbps = 10^6 bits/s, so a task's size in bits
is ``size_mb * 8e6``. Timestamps are signed 64-bit integer milliseconds on a
scenario-local clock (simulation) or the wall clock (service mode).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache
from itertools import repeat
from typing import Any, Iterable, Mapping, NoReturn

from .errors import HeterogeneousInputError, ValidationError

# Device and task-type identifiers are plain strings: nonempty, totally
# ordered (lexicographic), used verbatim for deterministic tie-breaks.
DeviceId = str
TaskType = str
TimestampMs = int

# Seeded scenario task types. The TaskType domain itself is open.
FACE_RECOGNITION: TaskType = "face_recognition"
VIDEO_TRANSCODING: TaskType = "video_transcoding"
TEXT_WORD_COUNT: TaskType = "text_word_count"
DEFAULT_TASK_TYPES: tuple[TaskType, ...] = (
    FACE_RECOGNITION,
    VIDEO_TRANSCODING,
    TEXT_WORD_COUNT,
)

# Metric names used throughout semantics extraction and the student's decision.
COMM_METRICS: tuple[str, str] = ("throughput", "loss_rate")
COMP_METRICS: tuple[str, str] = ("accuracy", "proc_speed")
# All four, in the order of TrustSemantics's trend fields and of a semantics
# record's trend codes.
TREND_METRICS: tuple[str, ...] = COMM_METRICS + COMP_METRICS

BITS_PER_MB = 8_000_000  # 1 MB = 10^6 bytes
# Timestamps are signed 64-bit, as an ``array('q')`` column holds them.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class Verdict(Enum):
    """Comprehensive outcome of one collaboration."""

    SATISFIED = "satisfied"
    UNSATISFIED = "unsatisfied"


class Trend(Enum):
    """Direction of a metric's temporal evolution."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    NORMAL = "normal"


class TrustState(Enum):
    """Overall trust status of a device for one task type.

    INSUFFICIENT_DATA marks cold-start devices whose history is too short to
    call either way; downstream they are excluded from candidate bundles but
    stay distinguishable from UNTRUSTED in reports.
    """

    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    INSUFFICIENT_DATA = "insufficient_data"


def _require_device_id(value: Any, field_name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{field_name} must be a nonempty string", field=field_name)
    return value


def _require_number(value: Any, field_name: str, positive: bool = False) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{field_name} must be a number", field=field_name) from None
    except OverflowError:  # an int too large for a float
        raise ValidationError(f"{field_name} is too large", field=field_name) from None
    if not math.isfinite(out):
        raise ValidationError(f"{field_name} must be a finite number", field=field_name)
    if out < 0.0 or (positive and out == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise ValidationError(f"{field_name} must be {bound}", field=field_name)
    return out


def _refuse_self_collaboration(owner: DeviceId) -> NoReturn:
    raise ValidationError(
        f"owner and collaborator must differ (both {owner!r})",
        field="collaborator",
        code="self_collaboration",
    )


def _require_timestamp(value: Any, field_name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field_name} must be an integer (ms)", field=field_name)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValidationError(f"{field_name} must fit in 64 bits", field=field_name, code="out_of_range")
    return value


def parse_fraction(value: Any, field_name: str) -> float:
    """Parse a fraction in [0,1], accepting both 0.01 and percent strings like "1%"."""
    try:
        if isinstance(value, str) and value.strip().endswith("%"):
            out = float(value.strip()[:-1]) / 100.0
        else:
            # float() of a float is the same object, so a loaded record shares
            # it with the parsed document instead of holding a copy.
            out = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{field_name} is not numeric: {value!r}", field=field_name) from None
    except OverflowError:  # an int too large for a float
        raise ValidationError(f"{field_name} is too large", field=field_name, code="out_of_range") from None
    if not math.isfinite(out) or not 0.0 <= out <= 1.0:
        raise ValidationError(
            f"{field_name} out of range [0,1]: {out}", field=field_name, code="out_of_range"
        )
    return out


@dataclass(frozen=True)
class Task:
    """A computational job: what it is, how big, how heavy, how urgent."""

    task_id: str
    owner: DeviceId
    task_type: TaskType
    size_mb: float
    density_cpb: float  # CPU cycles per bit
    deadline_s: float

    def __post_init__(self):
        _require_device_id(self.task_id, "task_id")
        _require_device_id(self.owner, "owner")
        _require_device_id(self.task_type, "task_type")
        for name in ("size_mb", "density_cpb", "deadline_s"):
            object.__setattr__(self, name, _require_number(getattr(self, name), name, positive=True))

    @property
    def size_bits(self) -> float:
        return self.size_mb * BITS_PER_MB


@dataclass(frozen=True)
class ResourceProfile:
    """A device's idle-state resources as reported to the server.

    ``cpu_cps`` is effective aggregate cycles/second (multi-core allowed);
    single-core readings make realistic task deadlines infeasible.
    """

    device: DeviceId
    cpu_cps: float
    storage_mb: float
    bandwidth_mbps: float
    updated_at: TimestampMs

    def __post_init__(self):
        _require_device_id(self.device, "device")
        for name, positive in (("cpu_cps", True), ("storage_mb", False), ("bandwidth_mbps", True)):
            object.__setattr__(self, name, _require_number(getattr(self, name), name, positive))
        _require_timestamp(self.updated_at, "updated_at")


_INF = math.inf


@dataclass(frozen=True, init=False, slots=True)
class PerformanceRecord:
    """One collaboration outcome, reported by the task owner."""

    owner: DeviceId
    collaborator: DeviceId
    task_type: TaskType
    at: TimestampMs
    throughput_mbps: float
    loss_rate: float
    proc_speed_mbps: float  # MB/second
    accuracy: float
    verdict: Verdict

    # Written by hand, as TrustSemantics's is: the generated frozen __init__
    # plus a __post_init__ was most of the cost of loading a snapshot record.
    # Exact-type values in range are checked inline; any other value goes
    # through the shared helpers, which name the field and code of the first
    # bad field in field order. The fields are slots, set through their
    # descriptors' ``__set__`` (``_set_*`` below the class) at about half the
    # cost of object.__setattr__; instance-dict items read about twice as slow.
    def __init__(self, owner, collaborator, task_type, at, throughput_mbps, loss_rate,
                 proc_speed_mbps, accuracy, verdict):
        if type(owner) is not str or not owner:
            _require_device_id(owner, "owner")
        if type(collaborator) is not str or not collaborator:
            _require_device_id(collaborator, "collaborator")
        if type(task_type) is not str or not task_type:
            _require_device_id(task_type, "task_type")
        if owner == collaborator:
            _refuse_self_collaboration(owner)
        if type(at) is not int or not _INT64_MIN <= at <= _INT64_MAX:
            _require_timestamp(at, "at")
        if type(throughput_mbps) is not float or not 0.0 <= throughput_mbps < _INF:
            throughput_mbps = _require_number(throughput_mbps, "throughput_mbps")
        if type(loss_rate) is not float or not 0.0 <= loss_rate <= 1.0:
            loss_rate = parse_fraction(loss_rate, "loss_rate")
        if type(proc_speed_mbps) is not float or not 0.0 <= proc_speed_mbps < _INF:
            proc_speed_mbps = _require_number(proc_speed_mbps, "proc_speed_mbps")
        if type(accuracy) is not float or not 0.0 <= accuracy <= 1.0:
            accuracy = parse_fraction(accuracy, "accuracy")
        if type(verdict) is not Verdict:
            raise ValidationError(f"verdict must be a Verdict, got {verdict!r}", field="verdict")
        _set_owner(self, owner)
        _set_collaborator(self, collaborator)
        _set_task_type(self, task_type)
        _set_at(self, at)
        _set_throughput(self, throughput_mbps)
        _set_loss(self, loss_rate)
        _set_proc_speed(self, proc_speed_mbps)
        _set_accuracy(self, accuracy)
        _set_verdict(self, verdict)

    def __reduce__(self):
        # Through the constructor. The default protocol restores slot state
        # with setattr, which a frozen class refuses on Python 3.10 (3.11's
        # dataclasses add a __setstate__ that avoids it).
        return PerformanceRecord, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED


(_set_owner, _set_collaborator, _set_task_type, _set_at, _set_throughput, _set_loss,
 _set_proc_speed, _set_accuracy, _set_verdict) = (
    getattr(PerformanceRecord, f.name).__set__ for f in fields(PerformanceRecord)
)


# The columns of one pair's history, one value per record: in HistoryStore, in
# a RecordWindow and, packed, in a snapshot. ``satisfied`` is 1 or 0.
RECORD_COLUMNS = (
    "owners", "at", "throughput_mbps", "loss_rate", "proc_speed_mbps", "accuracy", "satisfied",
)
# array type codes of RECORD_COLUMNS[1:]; the owners column is a list.
COLUMN_CODES = ("q", "d", "d", "d", "d", "B")
_VERDICT_OF_BYTE = (Verdict.UNSATISFIED, Verdict.SATISFIED)
_SATISFIED = Verdict.SATISFIED


def _empty_columns() -> list:
    return [[], *map(array, COLUMN_CODES)]


def _place(columns: list, record: PerformanceRecord) -> None:
    """Put ``record``'s values into ``columns`` after every record at the same or an earlier time."""
    # Written out column by column: a loop over the seven columns took
    # twice as long, and every append to the store comes through here.
    owners, ats, throughput, loss, proc_speed, accuracy, satisfied = columns
    at = record.at
    if not ats or ats[-1] <= at:
        owners.append(record.owner)
        ats.append(at)
        throughput.append(record.throughput_mbps)
        loss.append(record.loss_rate)
        proc_speed.append(record.proc_speed_mbps)
        accuracy.append(record.accuracy)
        satisfied.append(record.verdict is _SATISFIED)
    else:
        i = bisect_right(ats, at)
        owners.insert(i, record.owner)
        ats.insert(i, at)
        throughput.insert(i, record.throughput_mbps)
        loss.insert(i, record.loss_rate)
        proc_speed.insert(i, record.proc_speed_mbps)
        accuracy.insert(i, record.accuracy)
        satisfied.insert(i, record.verdict is _SATISFIED)


@dataclass(frozen=True, init=False, eq=False)
class RecordWindow:
    """Consecutive records of one (collaborator, task type), as columns in (at, arrival) order.

    ``HistoryStore.query`` returns one: the pair plus a slice of each of its
    history columns (``RECORD_COLUMNS``), copied out under the store's lock.
    Extraction takes no other input: it reads the columns directly and
    relies on the store for their order. As a sequence the window holds
    ``PerformanceRecord`` values, built only when an item is read: ``len``,
    indexing, iteration, and slicing, which gives a window again. Two windows
    are equal when their pairs and columns are. The columns are the window's
    own copies and are never written after construction.
    """

    collaborator: DeviceId
    task_type: TaskType
    owners: list
    at: array
    throughput_mbps: array
    loss_rate: array
    proc_speed_mbps: array
    accuracy: array
    satisfied: array

    # Not checked: the columns come from HistoryStore, whose values were
    # checked on the way in, or from ``with_records``, which checks what it
    # adds. The fields are stored as instance-dict items, as
    # TrustSemantics stores its own: a window is built three times per
    # ingest, and setting slots through their descriptors took twice as long.
    def __init__(self, collaborator, task_type, owners, at, throughput_mbps, loss_rate,
                 proc_speed_mbps, accuracy, satisfied):
        attrs = self.__dict__
        attrs["collaborator"] = collaborator
        attrs["task_type"] = task_type
        attrs["owners"] = owners
        attrs["at"] = at
        attrs["throughput_mbps"] = throughput_mbps
        attrs["loss_rate"] = loss_rate
        attrs["proc_speed_mbps"] = proc_speed_mbps
        attrs["accuracy"] = accuracy
        attrs["satisfied"] = satisfied

    def with_records(self, records: Iterable[PerformanceRecord]) -> "RecordWindow":
        """This window with each of ``records`` placed, in turn, where ``HistoryStore.append`` puts it.

        That is after every record at the same or an earlier time. The
        columns are copied once, whatever the number of records.
        """
        columns = [self.owners[:], self.at[:], self.throughput_mbps[:], self.loss_rate[:],
                   self.proc_speed_mbps[:], self.accuracy[:], self.satisfied[:]]
        for record in records:
            if record.collaborator != self.collaborator or record.task_type != self.task_type:
                raise HeterogeneousInputError(
                    f"record for ({record.collaborator}, {record.task_type}) added to the window "
                    f"of ({self.collaborator}, {self.task_type})"
                )
            _place(columns, record)
        return RecordWindow(self.collaborator, self.task_type, *columns)

    def __len__(self) -> int:
        return len(self.at)

    def __getitem__(self, index):
        if type(index) is slice:
            if index.step is not None and index.step < 0:
                raise ValueError("a window keeps its (at, arrival) order: the slice step must be positive")
            return RecordWindow(
                self.collaborator, self.task_type, self.owners[index], self.at[index],
                self.throughput_mbps[index], self.loss_rate[index], self.proc_speed_mbps[index],
                self.accuracy[index], self.satisfied[index],
            )
        return PerformanceRecord(
            self.owners[index], self.collaborator, self.task_type, self.at[index],
            self.throughput_mbps[index], self.loss_rate[index], self.proc_speed_mbps[index],
            self.accuracy[index], _VERDICT_OF_BYTE[self.satisfied[index]],
        )

    def __iter__(self):
        return map(PerformanceRecord, self.owners, repeat(self.collaborator), repeat(self.task_type),
                   self.at, self.throughput_mbps, self.loss_rate, self.proc_speed_mbps, self.accuracy,
                   map(_VERDICT_OF_BYTE.__getitem__, self.satisfied))

    def __eq__(self, other: object) -> bool:
        if type(other) is not RecordWindow:
            return NotImplemented
        return self.__dict__ == other.__dict__  # the pair and every column

    def __repr__(self) -> str:
        return f"RecordWindow({self.collaborator!r}, {self.task_type!r}, {list(self)!r})"


# Module constants: reading an Enum member off its class is several times
# slower than a global lookup, and these are read once per constructed value.
_NORMAL = Trend.NORMAL
_INSUFFICIENT_DATA = TrustState.INSUFFICIENT_DATA


@dataclass(frozen=True, init=False)
class TrustSemantics:
    """Per (device, task type) trust assessment: overall state plus per-metric trends.

    One ``Trend`` field per metric of ``TREND_METRICS``, in the order of a
    semantics record's trend codes; every field is immutable, so instances are hashable.
    ``window`` is the [first, last] record-timestamp span the assessment was
    extracted from, or None when there were no records. When state is
    INSUFFICIENT_DATA every trend is NORMAL: a cold start carries no trend claims.
    ``record_count`` is bounded like a timestamp, so it fits an int64 column.
    """

    device: DeviceId
    task_type: TaskType
    state: TrustState
    throughput: Trend
    loss_rate: Trend
    accuracy: Trend
    proc_speed: Trend
    window: tuple[TimestampMs, TimestampMs] | None
    extracted_at: TimestampMs
    record_count: int

    # Written by hand rather than generated: the generated frozen __init__ sets
    # each field through an object.__setattr__ call, which was about a third of
    # decoding a bundle row. This one validates the arguments, then stores the
    # fields as instance-dict items in declaration order; ``dict.update`` would
    # be slower and would unshare the dict's keys, growing every instance.
    def __init__(self, device, task_type, state, throughput, loss_rate, accuracy, proc_speed,
                 window, extracted_at, record_count):
        _require_device_id(device, "device")
        _require_device_id(task_type, "task_type")
        if not isinstance(state, TrustState):
            raise ValidationError(f"state must be a TrustState, got {state!r}", field="state")
        all_normal = True
        for metric, trend in zip(TREND_METRICS, (throughput, loss_rate, accuracy, proc_speed)):
            if trend is not _NORMAL:
                if not isinstance(trend, Trend):
                    raise ValidationError(f"{metric} must be a Trend, got {trend!r}", field=metric)
                all_normal = False
        if window is not None:
            lo, hi = window
            _require_timestamp(lo, "window.from")
            _require_timestamp(hi, "window.to")
            if lo > hi:
                raise ValidationError("window.from must be <= window.to", field="window")
            if type(window) is not tuple:
                window = (lo, hi)
        _require_timestamp(extracted_at, "extracted_at")
        if isinstance(record_count, bool) or not isinstance(record_count, int):
            raise ValidationError("record_count must be an integer", field="record_count")
        if record_count < 0:
            raise ValidationError("record_count must be >= 0", field="record_count")
        if record_count > _INT64_MAX:
            raise ValidationError("record_count must fit in 64 bits", field="record_count", code="out_of_range")
        if not all_normal and state is _INSUFFICIENT_DATA:
            raise ValidationError(
                "insufficient_data semantics must carry only normal trends",
                field="state",
            )
        attrs = self.__dict__
        attrs["device"] = device
        attrs["task_type"] = task_type
        attrs["state"] = state
        attrs["throughput"] = throughput
        attrs["loss_rate"] = loss_rate
        attrs["accuracy"] = accuracy
        attrs["proc_speed"] = proc_speed
        attrs["window"] = window
        attrs["extracted_at"] = extracted_at
        attrs["record_count"] = record_count

    def all_trends(self) -> dict[str, Trend]:
        """Metric -> trend, in ``TREND_METRICS`` order."""
        return {metric: getattr(self, metric) for metric in TREND_METRICS}


def _semantics_of_valid_columns(devices, task_types, states, throughputs, loss_rates, accuracies,
                                proc_speeds, windows, extracted_ats, record_counts) -> list[TrustSemantics]:
    """One ``TrustSemantics`` per position of columns that already hold valid field values.

    The caller has checked every column as the constructor checks one value
    (``codec.checked_columns``, for bundle records and snapshot leaves),
    so the constructor is not run again: each instance gets its
    fields stored as ``__init__`` stores them, in declaration order, so the
    instance dicts keep sharing their keys. Each window is a tuple or None.
    """
    new = object.__new__
    out = []
    append = out.append
    for (device, task_type, state, throughput, loss_rate, accuracy, proc_speed, window, extracted_at,
         record_count) in zip(devices, task_types, states, throughputs, loss_rates, accuracies,
                              proc_speeds, windows, extracted_ats, record_counts):
        ts = new(TrustSemantics)
        attrs = ts.__dict__
        attrs["device"] = device
        attrs["task_type"] = task_type
        attrs["state"] = state
        attrs["throughput"] = throughput
        attrs["loss_rate"] = loss_rate
        attrs["accuracy"] = accuracy
        attrs["proc_speed"] = proc_speed
        attrs["window"] = window
        attrs["extracted_at"] = extracted_at
        attrs["record_count"] = record_count
        append(ts)
    return out


_VERDICTS = {v.value: v for v in Verdict}


def parse_verdict(value: Any) -> Verdict:
    """Parse a Verdict or its value, ignoring case and surrounding blanks."""
    if isinstance(value, Verdict):
        return value
    if isinstance(value, str):
        verdict = _VERDICTS.get(value)
        if verdict is None:
            verdict = _VERDICTS.get(value.strip().lower())
        if verdict is not None:
            return verdict
    raise ValidationError(f"verdict must be 'satisfied' or 'unsatisfied', got {value!r}", field="verdict")


@cache
def _field_spec(cls: type) -> tuple[tuple[str, ...], frozenset[str]]:
    """Dataclass ``cls``'s field names in order, and those of its fields without a default."""
    return tuple(f.name for f in fields(cls)), frozenset(
        f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING)


def from_fields(cls: type, raw: Mapping[str, Any], kind: str) -> Any:
    """Build dataclass ``cls`` from the items of ``raw`` named after its fields.

    Keys that are not fields are ignored, and the constructor validates the
    values. A field without a default that ``raw`` lacks is refused, all of
    them in one ``missing <kind> fields: a, b`` error naming the first.
    """
    names, required = _field_spec(cls)
    if not raw.keys() >= required:
        missing = sorted(required - raw.keys())
        raise ValidationError(f"missing {kind} fields: {', '.join(missing)}", field=missing[0])
    return cls(**{name: raw[name] for name in names if name in raw})


def validate_task(raw: Mapping[str, Any]) -> Task:
    """Build a Task from raw task-shaped fields, validating every invariant."""
    return from_fields(Task, raw, "task")


def validate_record(raw: Mapping[str, Any]) -> PerformanceRecord:
    """Build a PerformanceRecord from raw fields.

    Accepts percent strings for loss_rate and accuracy ("1%" == 0.01) and
    verdicts as strings; rejects self-collaboration and out-of-range bounds.
    """
    if "verdict" in raw:
        raw = {**raw, "verdict": parse_verdict(raw["verdict"])}
    return from_fields(PerformanceRecord, raw, "record")
