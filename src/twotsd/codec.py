"""Dict codecs for domain values plus canonical JSON helpers.

Encoding is canonical (sorted keys, compact separators) so equal values always
produce identical bytes; floats round-trip exactly through JSON's shortest
repr. Canonical encoding has no indentation, so a value's bytes do not depend
on where it sits in a document: a document's bytes are the bytes of its parts
joined with the keys and punctuation around them, which is how
:mod:`twotsd.protocol` builds frames. The framing and message taxonomy live
there; memory snapshots reuse these codecs directly.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .domain import (
    PerformanceRecord,
    ResourceProfile,
    Task,
    Trend,
    TrustSemantics,
    TrustState,
    validate_record,
    validate_task,
)
from .errors import ValidationError


# One shared encoder: ``json.dumps`` with these arguments builds a new one per
# call. ``JSONEncoder.encode`` keeps no state between calls, so threads share it.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json_bytes(doc: Any) -> bytes:
    return _CANONICAL.encode(doc).encode("ascii")


def task_to_dict(task: Task) -> dict[str, Any]:
    return {
        "task_id": task.task_id,
        "owner": task.owner,
        "task_type": task.task_type,
        "size_mb": task.size_mb,
        "density_cpb": task.density_cpb,
        "deadline_s": task.deadline_s,
        "extra": dict(task.extra),
    }


def task_from_dict(doc: Mapping[str, Any]) -> Task:
    return validate_task(doc)


def profile_to_dict(profile: ResourceProfile) -> dict[str, Any]:
    return {
        "device": profile.device,
        "cpu_cps": profile.cpu_cps,
        "storage_mb": profile.storage_mb,
        "bandwidth_mbps": profile.bandwidth_mbps,
        "updated_at": profile.updated_at,
    }


def profile_from_dict(doc: Mapping[str, Any]) -> ResourceProfile:
    try:
        return ResourceProfile(
            device=doc["device"],
            cpu_cps=doc["cpu_cps"],
            storage_mb=doc["storage_mb"],
            bandwidth_mbps=doc["bandwidth_mbps"],
            updated_at=doc["updated_at"],
        )
    except KeyError as exc:
        raise ValidationError(f"missing profile field: {exc.args[0]}", field=exc.args[0]) from None


def record_to_dict(record: PerformanceRecord) -> dict[str, Any]:
    return {
        "owner": record.owner,
        "collaborator": record.collaborator,
        "task_type": record.task_type,
        "at": record.at,
        "throughput_mbps": record.throughput_mbps,
        "loss_rate": record.loss_rate,
        "proc_speed_mbps": record.proc_speed_mbps,
        "accuracy": record.accuracy,
        "verdict": record.verdict.value,
        "extra": dict(record.extra),
    }


def record_from_dict(doc: Mapping[str, Any]) -> PerformanceRecord:
    return validate_record(doc)


def semantics_to_dict(ts: TrustSemantics) -> dict[str, Any]:
    return {
        "device": ts.device,
        "task_type": ts.task_type,
        "state": ts.state.value,
        "comm_trends": {k: v.value for k, v in ts.comm_trends.items()},
        "comp_trends": {k: v.value for k, v in ts.comp_trends.items()},
        "window": list(ts.window) if ts.window is not None else None,
        "extracted_at": ts.extracted_at,
        "record_count": ts.record_count,
    }


def semantics_json(ts: TrustSemantics) -> bytes:
    """``canonical_json_bytes(semantics_to_dict(ts))``, encoded once per instance.

    The bytes are kept in the instance ``__dict__``, as ``functools.cached_property``
    does. ``TrustSemantics`` is frozen and a re-extraction makes a new instance
    (``SemanticsTree.upsert`` replaces the leaf), so the cached bytes cannot go
    stale; two threads filling the same instance at once store equal bytes.
    """
    cached = ts.__dict__.get("_canonical_json")
    if cached is None:
        cached = ts.__dict__["_canonical_json"] = canonical_json_bytes(semantics_to_dict(ts))
    return cached


# label -> member: a dict lookup per decoded label instead of ``Enum.__call__``.
_TREND_OF = {t.value: t for t in Trend}
_STATE_OF = {s.value: s for s in TrustState}


def _member(table: Mapping[str, Any], label: Any) -> Any:
    try:
        return table[label]
    except (KeyError, TypeError):
        raise ValidationError(f"bad semantics enum value: {label!r}") from None


def semantics_from_dict(doc: Mapping[str, Any]) -> TrustSemantics:
    try:
        window = doc["window"]
        return TrustSemantics(
            device=doc["device"],
            task_type=doc["task_type"],
            state=_member(_STATE_OF, doc["state"]),
            comm_trends={k: _member(_TREND_OF, v) for k, v in doc["comm_trends"].items()},
            comp_trends={k: _member(_TREND_OF, v) for k, v in doc["comp_trends"].items()},
            window=tuple(window) if window is not None else None,
            extracted_at=doc["extracted_at"],
            record_count=doc["record_count"],
        )
    except KeyError as exc:
        raise ValidationError(f"missing semantics field: {exc.args[0]}", field=exc.args[0]) from None
