"""JSON forms of domain values, and canonical JSON.

A value's JSON form is its dataclass fields by name, each enum as its label
(``to_jsonable``); ``domain.from_fields`` passes them back to the validating
constructor. Reports, records, tasks, acks, errors, snapshot profiles and the
run manifest all take this form.

Encoding is canonical (sorted keys, compact separators) so equal values always
produce identical bytes; floats round-trip exactly through JSON's shortest
repr. Canonical encoding has no indentation, so a value's bytes do not depend
on where it sits in a document: a document's bytes are the bytes of its parts
joined with the keys and punctuation around them, which is how
:mod:`twotsd.protocol` builds frames.

Trust semantics alone has another form, the positional row of
``SEMANTICS_COLUMNS`` (``semantics_to_row``) that the wire and snapshots
carry; ``semantics_row_json`` keeps its canonical bytes on the immutable
instance, and ``semantics_from_row`` passes the columns, labels mapped to
their members, to ``TrustSemantics``'s validating constructor.
"""

from __future__ import annotations

import dataclasses
import json
from enum import Enum
from typing import Any, Mapping

from .domain import (
    PerformanceRecord,
    Trend,
    TrustSemantics,
    TrustState,
    _field_spec,
    validate_record,
)
from .errors import ValidationError


# One shared encoder: ``json.dumps`` with these arguments builds a new one per
# call. ``JSONEncoder.encode`` keeps no state between calls, so threads share it.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def canonical_json_bytes(doc: Any) -> bytes:
    return _CANONICAL.encode(doc).encode("ascii")


_SCALARS = frozenset({str, int, float, bool, type(None)})  # returned as they are


def to_jsonable(value: Any) -> Any:
    """``value`` down to plain JSON types.

    A dataclass becomes a mapping of its fields by name, an ``Enum`` its
    ``.value``, a mapping one with string keys and a list or tuple a list;
    anything else is returned as it is.
    """
    cls = type(value)
    if cls in _SCALARS:
        return value
    if isinstance(value, Enum):
        return value.value
    if dataclasses.is_dataclass(cls):
        doc = {}  # scalar fields inline: a call per field was a third of a record's cost
        for name in _field_spec(cls)[0]:
            field = getattr(value, name)
            doc[name] = field if type(field) in _SCALARS else to_jsonable(field)
        return doc
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def record_from_dict(doc: Mapping[str, Any]) -> PerformanceRecord:
    """``validate_record(doc)``, with the validator looked up when called, not bound at import."""
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
