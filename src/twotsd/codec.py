"""JSON forms of domain values, canonical JSON, and the trust-semantics record.

A value's JSON form is its dataclass fields by name, each enum as its label
(``to_jsonable``); ``domain.from_fields`` passes them back to the validating
constructor. Reports, records, tasks, acks, errors, snapshot profiles and the
run manifest all take this form.

Encoding is canonical (sorted keys, compact separators) so equal values always
produce identical bytes; floats round-trip exactly through JSON's shortest
repr.

Trust semantics alone has a binary form, the same bytes in a candidate
bundle and in a snapshot's leaf block. A leaf's device id and task type
travel beside it; its state is one ``TrustState`` code (its position in
``TrustState``: trusted 0, untrusted 1, insufficient_data 2), and the rest
is one fixed-width ``_RECORD``, little-endian:

    record := throughput, loss_rate, accuracy, proc_speed   (uint8 Trend codes)
              window_present                               (uint8, 0 or 1)
              window_from, window_to, extracted_at, record_count  (int64)

A trend code is the trend's position in ``Trend`` (increasing 0, decreasing
1, normal 2). Without a window the flag is 0 and both bounds are 0. Each
leaf's id as a JSON string and its record are packed once per extraction
(``_pack_wire``) and kept on the immutable ``TrustSemantics``, so a bundle
or a save joins cached bytes. ``semantics_of_records`` decodes the records
of one task type a column at a time: codes below their table sizes, flags,
empty and ordered windows, counts, only normal trends under
insufficient_data, and nonempty string ids. A bad value refuses the whole
block, naming its field and the first device that carries it.
"""

from __future__ import annotations

import dataclasses
import json
import re
import struct
import sys
from array import array
from enum import Enum
from itertools import compress, count, repeat
from operator import attrgetter, ge, gt, itemgetter, not_
from typing import Any, Iterable, Mapping, NoReturn, Sequence

from .domain import (
    TREND_METRICS,
    PerformanceRecord,
    Trend,
    TrustSemantics,
    TrustState,
    _INSUFFICIENT_DATA,
    _NORMAL,
    _field_spec,
    _require_device_id,
    _semantics_of_valid_columns,
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


_RECORD = struct.Struct("<5B4q")  # the record layout above
_INT64_FIELDS = re.compile(rb"(?s).{5}(.{32})")  # a record's int64 fields: the 32 bytes after its uint8 ones
_TREND_OF_CODE = dict(enumerate(Trend))
_TREND_CODE = {trend: code for code, trend in _TREND_OF_CODE.items()}
_STATE_OF_CODE = dict(enumerate(TrustState))
_STATE_CODE = {state: code for code, state in _STATE_OF_CODE.items()}
_INSUFFICIENT_CODE = _STATE_CODE[_INSUFFICIENT_DATA]
_NORMAL_CODES = (_TREND_CODE[_NORMAL],) * len(TREND_METRICS)
_BIG_ENDIAN = sys.byteorder == "big"
_ATTRS, _STATE = attrgetter("__dict__"), attrgetter("state")
_RECORD_BYTES = itemgetter(1)  # a cached wire's second half


def _pack_wire(ts: TrustSemantics) -> tuple[bytes, bytes]:
    """``ts``'s id as a JSON string and its record, kept on the instance for every later bundle or save.

    The pair is kept in the instance ``__dict__`` under ``_wire``, as
    ``functools.cached_property`` does: one key, because a twelfth key would
    unshare the instance dict's keys and grow every cached leaf about
    fivefold. No field of a ``TrustSemantics`` can change and a
    re-extraction makes a new instance (``SemanticsTree.upsert`` replaces the
    leaf), so the cached bytes cannot go stale; two threads filling the same
    instance at once store equal bytes.
    """
    lo, hi = ts.window or (0, 0)
    wire = ts.__dict__["_wire"] = (
        canonical_json_bytes(ts.device),
        _RECORD.pack(
            _TREND_CODE[ts.throughput], _TREND_CODE[ts.loss_rate], _TREND_CODE[ts.accuracy],
            _TREND_CODE[ts.proc_speed], ts.window is not None, lo, hi, ts.extracted_at, ts.record_count,
        ),
    )
    return wire


def wires_of(leaves: Sequence[TrustSemantics]) -> list[tuple[bytes, bytes]]:
    """Each leaf's id as a JSON string and its record, as ``_pack_wire`` made and kept them."""
    wires = [*map(dict.get, map(_ATTRS, leaves), repeat("_wire"))]
    if not all(wires):  # leaves in their first bundle or save
        for i in compress(count(), map(not_, wires)):
            wires[i] = _pack_wire(leaves[i])
    return wires


def records_of(leaves: Sequence[TrustSemantics]) -> tuple[bytes, bytes]:
    """The leaves' state codes, a byte each, and their records, as ``semantics_of_records`` reads them."""
    states = bytes(map(_STATE_CODE.__getitem__, map(_STATE, leaves)))
    return states, b"".join(map(_RECORD_BYTES, wires_of(leaves)))


def semantics_of_records(task_type: Any, devices: list, states: Sequence[int], block: Sequence[int]
                         ) -> list[TrustSemantics]:
    """The semantics of ``devices`` under ``task_type``, checked a column at a time.

    ``devices`` is a nonempty list, ``states`` holds one ``TrustState`` code
    per device and ``block`` one record per device, both as bytes or
    ``array('B')``. Each column is checked whole, as ``TrustSemantics``
    checks one value, so the values are built without its checks; only a
    failing column is searched, to name its first bad device.
    """
    task_type = _require_device_id(task_type, "task_type")
    if {*map(type, devices)} != {str} or not all(devices):
        for device in devices:
            _require_device_id(device, "device")
    if max(states) >= len(_STATE_OF_CODE):
        _refuse("state", f"a TrustState code below {len(_STATE_OF_CODE)}", states, devices,
                map(ge, states, repeat(len(_STATE_OF_CODE))))
    (*codes, flags), (los, his, extracted_ats, counts) = _record_columns(block)
    for metric, column in zip(TREND_METRICS, codes):
        if max(column) >= len(_TREND_OF_CODE):
            _refuse(metric, f"a Trend code below {len(_TREND_OF_CODE)}", column, devices,
                    map(ge, column, repeat(len(_TREND_OF_CODE))))
    if _INSUFFICIENT_CODE in states:
        bad = [state == _INSUFFICIENT_CODE and trends != _NORMAL_CODES
               for state, trends in zip(states, zip(*codes))]
        if any(bad):
            _refuse("state", "trusted or untrusted where a trend is not normal", states, devices, bad)
    if max(flags) > 1:
        _refuse("window", "flagged 0 or 1", flags, devices, map(gt, flags, repeat(1)))
    windows = [*zip(los, his)]
    if not all(flags):
        if any(map(any, compress(windows, map(not_, flags)))):
            _refuse("window", "(0, 0) when flagged absent", windows, devices,
                    (not flag and any(window) for flag, window in zip(flags, windows)))
        windows = [window if flag else None for window, flag in zip(windows, flags)]
    if any(map(gt, los, his)):  # an absent window's (0, 0) is in order
        _refuse("window", "ordered, from <= to", windows, devices, map(gt, los, his))
    if min(counts) < 0:
        _refuse("record_count", ">= 0", counts, devices, map(gt, repeat(0), counts))
    return _semantics_of_valid_columns(
        devices, repeat(task_type), map(_STATE_OF_CODE.__getitem__, states),
        *(map(_TREND_OF_CODE.__getitem__, column) for column in codes),
        windows, extracted_ats, counts,
    )


def _record_columns(block: Sequence[int]) -> tuple[list[Sequence[int]], list[array]]:
    """The five uint8 columns and the four int64 columns of a record block.

    A uint8 column is one strided slice of the block. Each record's int64
    fields, cut out and joined, read as one ``array('q')`` of four values per
    record, and each int64 column is a strided slice of that. No object is
    made per record but a bytes piece, which the cyclic GC does not track.
    """
    size = _RECORD.size
    ints = array("q", b"".join(_INT64_FIELDS.findall(block)))
    if _BIG_ENDIAN:
        ints.byteswap()
    return [block[offset::size] for offset in range(5)], [ints[field::4] for field in range(4)]


def _refuse(field: str, requirement: str, column: Sequence, devices: list, bad: Iterable[bool]) -> NoReturn:
    """Refuse the records at the first device where ``bad`` is true, naming its value."""
    i = next(compress(count(), bad))
    raise ValidationError(f"{field} must be {requirement}, got {column[i]!r} for device {devices[i]!r}",
                          field=field)
