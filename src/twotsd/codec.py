"""Codecs for domain values plus canonical JSON helpers.

Encoding is canonical (sorted keys, compact separators) so equal values always
produce identical bytes; floats round-trip exactly through JSON's shortest
repr. Canonical encoding has no indentation, so a value's bytes do not depend
on where it sits in a document: a document's bytes are the bytes of its parts
joined with the keys and punctuation around them, which is how
:mod:`twotsd.protocol` builds frames. The framing and message taxonomy live
there; memory snapshots reuse these codecs directly.

Trust semantics has one encoding, a positional row of ``SEMANTICS_COLUMNS``
in order (``semantics_to_row``), which both the wire and memory snapshots
carry; it has the value's own shape, and ``semantics_row_json`` keeps its
canonical bytes on the immutable instance. ``semantics_from_row`` maps the
labels through lookup tables and passes the columns positionally to
``TrustSemantics``'s validating constructor.
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
    }


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
    }


def record_from_dict(doc: Mapping[str, Any]) -> PerformanceRecord:
    return validate_record(doc)


# A semantics row: ``TrustSemantics``'s fields in order, each enum as its label
# and the window as two columns (two nulls for None).
SEMANTICS_COLUMNS = (
    "device", "task_type", "state", "throughput", "loss_rate", "accuracy", "proc_speed",
    "window_from", "window_to", "extracted_at", "record_count",
)


def semantics_to_row(ts: TrustSemantics) -> list[Any]:
    lo, hi = ts.window or (None, None)
    return [ts.device, ts.task_type, ts.state.value, ts.throughput.value, ts.loss_rate.value,
            ts.accuracy.value, ts.proc_speed.value, lo, hi, ts.extracted_at, ts.record_count]


def semantics_row_json(ts: TrustSemantics) -> bytes:
    """``canonical_json_bytes(semantics_to_row(ts))``, encoded once per instance.

    The bytes are kept in the instance ``__dict__``, as ``functools.cached_property``
    does. No field of a ``TrustSemantics`` can change and a re-extraction makes
    a new instance (``SemanticsTree.upsert`` replaces the leaf), so the cached
    bytes cannot go stale; two threads filling the same instance at once store
    equal bytes.
    """
    cached = ts.__dict__.get("_row_json")
    if cached is None:
        cached = ts.__dict__["_row_json"] = canonical_json_bytes(semantics_to_row(ts))
    return cached


# label -> member: a dict lookup per decoded label instead of ``Enum.__call__``.
_TREND_OF = {t.value: t for t in Trend}
_STATE_OF = {s.value: s for s in TrustState}


def _member(table: Mapping[str, Any], label: Any) -> Any:
    try:
        return table[label]
    except (KeyError, TypeError):
        raise ValidationError(f"bad semantics enum value: {label!r}") from None


def semantics_from_row(row: Any) -> TrustSemantics:
    """Inverse of ``semantics_to_row``, through the validating constructor."""
    if type(row) is not list or len(row) != len(SEMANTICS_COLUMNS):
        raise ValidationError(f"a semantics row must be a list of {len(SEMANTICS_COLUMNS)} values")
    device, task_type, state, throughput, loss_rate, accuracy, proc_speed, lo, hi, extracted_at, count = row
    return TrustSemantics(
        device, task_type, _member(_STATE_OF, state),
        _member(_TREND_OF, throughput), _member(_TREND_OF, loss_rate),
        _member(_TREND_OF, accuracy), _member(_TREND_OF, proc_speed),
        None if lo is None and hi is None else (lo, hi), extracted_at, count,
    )
