"""Core value types: tasks, resource profiles, performance records, trust semantics.

All values are immutable after construction and validate their own invariants,
so any instance that exists is well-formed. Raw (possibly stringly-typed) input
goes through :func:`validate_task` / :func:`validate_record`, which also accept
percent-style fields like ``"1%"``.

Unit conventions: MB = 10^6 bytes, Mbps = 10^6 bits/s, so a task's size in bits
is ``size_mb * 8e6``. Timestamps are integer milliseconds on a scenario-local
clock (simulation) or the wall clock (service mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping

from .errors import ValidationError

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

BITS_PER_MB = 8_000_000  # 1 MB = 10^6 bytes


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
    if not math.isfinite(out) or out < 0.0 or (positive and out == 0.0):
        bound = "> 0" if positive else ">= 0"
        raise ValidationError(f"{field_name} must be {bound}", field=field_name)
    return out


def _require_timestamp(value: Any, field_name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{field_name} must be an integer (ms)", field=field_name)
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
    if not math.isfinite(out) or not 0.0 <= out <= 1.0:
        raise ValidationError(
            f"{field_name} out of range [0,1]: {out}", field=field_name, code="out_of_range"
        )
    return out


@dataclass(frozen=True)
class Task:
    """A computational job: what it is, how big, how heavy, how urgent.

    ``extra`` holds unrecognized metrics from open-ended schemas; it is kept
    for round-tripping but ignored by the semantics engine.
    """

    task_id: str
    owner: DeviceId
    task_type: TaskType
    size_mb: float
    density_cpb: float  # CPU cycles per bit
    deadline_s: float
    extra: Mapping[str, Any] = field(default_factory=dict)

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
        object.__setattr__(self, "cpu_cps", _require_number(self.cpu_cps, "cpu_cps", positive=True))
        object.__setattr__(self, "storage_mb", _require_number(self.storage_mb, "storage_mb"))
        object.__setattr__(
            self,
            "bandwidth_mbps",
            _require_number(self.bandwidth_mbps, "bandwidth_mbps", positive=True),
        )
        _require_timestamp(self.updated_at, "updated_at")


# Shared by every record with no extra metrics: one read-only mapping instead
# of an empty dict per record.
_NO_EXTRA: Mapping[str, Any] = MappingProxyType({})
_INF = math.inf


@dataclass(frozen=True, init=False, slots=True)
class PerformanceRecord:
    """One collaboration outcome, reported by the task owner.

    An empty ``extra`` is stored as one shared read-only mapping.
    """

    owner: DeviceId
    collaborator: DeviceId
    task_type: TaskType
    at: TimestampMs
    throughput_mbps: float
    loss_rate: float
    proc_speed_mbps: float  # MB/second
    accuracy: float
    verdict: Verdict
    extra: Mapping[str, Any]

    # Written by hand, as TrustSemantics's is: the generated frozen __init__
    # plus a __post_init__ was most of the cost of loading a snapshot record.
    # Exact-type values that pass are checked inline; any other value goes
    # through the same helpers as before, so what is accepted, each error's
    # field and code, and each stored value stay the same; the checks run in
    # field order, so the first bad field is the one named. The fields are
    # slots, set through their descriptors' ``__set__`` (``_set_*`` below the
    # class) at about half the cost of object.__setattr__: extraction reads
    # records field by field, and instance-dict items read about twice as slow.
    def __init__(self, owner, collaborator, task_type, at, throughput_mbps, loss_rate,
                 proc_speed_mbps, accuracy, verdict, extra=_NO_EXTRA):
        if type(owner) is not str or not owner:
            _require_device_id(owner, "owner")
        if type(collaborator) is not str or not collaborator:
            _require_device_id(collaborator, "collaborator")
        if type(task_type) is not str or not task_type:
            _require_device_id(task_type, "task_type")
        if owner == collaborator:
            raise ValidationError(
                f"owner and collaborator must differ (both {owner!r})",
                field="collaborator",
                code="self_collaboration",
            )
        if type(at) is not int:
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
        if type(extra) is dict and not extra:
            extra = _NO_EXTRA
        _set_owner(self, owner)
        _set_collaborator(self, collaborator)
        _set_task_type(self, task_type)
        _set_at(self, at)
        _set_throughput(self, throughput_mbps)
        _set_loss(self, loss_rate)
        _set_proc_speed(self, proc_speed_mbps)
        _set_accuracy(self, accuracy)
        _set_verdict(self, verdict)
        _set_extra(self, extra)

    def __reduce__(self):
        # Through the constructor: the shared empty mapping does not pickle.
        return PerformanceRecord, (
            self.owner, self.collaborator, self.task_type, self.at, self.throughput_mbps,
            self.loss_rate, self.proc_speed_mbps, self.accuracy, self.verdict, dict(self.extra),
        )

    @property
    def satisfied(self) -> bool:
        return self.verdict is Verdict.SATISFIED


(_set_owner, _set_collaborator, _set_task_type, _set_at, _set_throughput, _set_loss,
 _set_proc_speed, _set_accuracy, _set_verdict, _set_extra) = (
    getattr(PerformanceRecord, f.name).__set__ for f in fields(PerformanceRecord)
)


_COMM_KEYS = frozenset(COMM_METRICS)
_COMP_KEYS = frozenset(COMP_METRICS)
# Module constants: reading an Enum member off its class is several times
# slower than a global lookup, and these are read once per constructed value.
_NORMAL = Trend.NORMAL
_INSUFFICIENT_DATA = TrustState.INSUFFICIENT_DATA


@dataclass(frozen=True, init=False)
class TrustSemantics:
    """Per (device, task type) trust assessment: overall state plus per-metric trends.

    ``window`` is the [first, last] record-timestamp span the assessment was
    extracted from, or None when there were no records. When state is
    INSUFFICIENT_DATA every trend is NORMAL: a cold start carries no trend claims.
    """

    device: DeviceId
    task_type: TaskType
    state: TrustState
    comm_trends: Mapping[str, Trend]
    comp_trends: Mapping[str, Trend]
    window: tuple[TimestampMs, TimestampMs] | None
    extracted_at: TimestampMs
    record_count: int

    # Written by hand rather than generated: the generated frozen __init__ sets
    # each field through an object.__setattr__ call, which was about a third of
    # decoding a bundle row. This one validates the arguments, then stores the
    # fields as instance-dict items in declaration order; ``dict.update`` would
    # be slower and would unshare the dict's keys, growing every instance.
    def __init__(self, device, task_type, state, comm_trends, comp_trends, window, extracted_at, record_count):
        _require_device_id(device, "device")
        _require_device_id(task_type, "task_type")
        if not isinstance(state, TrustState):
            raise ValidationError(f"state must be a TrustState, got {state!r}", field="state")
        comm, comp = dict(comm_trends), dict(comp_trends)
        all_normal = True
        for name, trends, expected in (("comm_trends", comm, _COMM_KEYS), ("comp_trends", comp, _COMP_KEYS)):
            if trends.keys() != expected:
                raise ValidationError(
                    f"{name} must contain exactly {sorted(expected)}, got {sorted(trends)}",
                    field=name,
                )
            for metric, trend in trends.items():
                if trend is not _NORMAL:
                    if not isinstance(trend, Trend):
                        raise ValidationError(
                            f"{name}[{metric}] must be a Trend, got {trend!r}", field=name
                        )
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
        if not all_normal and state is _INSUFFICIENT_DATA:
            raise ValidationError(
                "insufficient_data semantics must carry only normal trends",
                field="state",
            )
        attrs = self.__dict__
        attrs["device"] = device
        attrs["task_type"] = task_type
        attrs["state"] = state
        attrs["comm_trends"] = comm
        attrs["comp_trends"] = comp
        attrs["window"] = window
        attrs["extracted_at"] = extracted_at
        attrs["record_count"] = record_count

    def all_trends(self) -> dict[str, Trend]:
        """Flat metric -> trend view across both trend groups."""
        merged = dict(self.comm_trends)
        merged.update(self.comp_trends)
        return merged


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


_TASK_FIELDS = {"task_id", "owner", "task_type", "size_mb", "density_cpb", "deadline_s"}
_RECORD_FIELDS = {
    "owner",
    "collaborator",
    "task_type",
    "at",
    "throughput_mbps",
    "loss_rate",
    "proc_speed_mbps",
    "accuracy",
    "verdict",
}


def validate_task(raw: Mapping[str, Any]) -> Task:
    """Build a Task from raw task-shaped fields, validating every invariant.

    Unknown keys are preserved in ``extra``. Diagnostics name the field that
    failed.
    """
    missing = sorted(_TASK_FIELDS - set(raw))
    if missing:
        raise ValidationError(f"missing task fields: {', '.join(missing)}", field=missing[0])
    extra = {k: v for k, v in raw.items() if k not in _TASK_FIELDS and k != "extra"}
    extra.update(dict(raw.get("extra", {})))
    return Task(
        task_id=raw["task_id"],
        owner=raw["owner"],
        task_type=raw["task_type"],
        size_mb=raw["size_mb"],
        density_cpb=raw["density_cpb"],
        deadline_s=raw["deadline_s"],
        extra=extra,
    )


def validate_record(raw: Mapping[str, Any]) -> PerformanceRecord:
    """Build a PerformanceRecord from raw fields.

    Accepts percent strings for loss_rate and accuracy ("1%" == 0.01) and
    verdicts as strings; rejects self-collaboration and out-of-range bounds.
    """
    keys = raw.keys()
    if not keys >= _RECORD_FIELDS:
        missing = sorted(_RECORD_FIELDS - keys)
        raise ValidationError(f"missing record fields: {', '.join(missing)}", field=missing[0])
    given = raw.get("extra", {})
    if not isinstance(given, Mapping):
        raise ValidationError(f"extra must be a mapping, got {given!r}", field="extra")
    if len(keys) > len(_RECORD_FIELDS) + ("extra" in keys):  # unknown keys fold into extra
        extra = {k: v for k, v in raw.items() if k not in _RECORD_FIELDS and k != "extra"}
        extra.update(given)
    else:
        extra = dict(given)
    return PerformanceRecord(
        owner=raw["owner"],
        collaborator=raw["collaborator"],
        task_type=raw["task_type"],
        at=raw["at"],
        throughput_mbps=raw["throughput_mbps"],
        loss_rate=raw["loss_rate"],
        proc_speed_mbps=raw["proc_speed_mbps"],
        accuracy=raw["accuracy"],
        verdict=parse_verdict(raw["verdict"]),
        extra=extra,
    )
