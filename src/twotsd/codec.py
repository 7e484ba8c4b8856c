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
leaf's record is packed once per extraction (``_pack_record``) and kept on
the immutable ``TrustSemantics``, so a bundle or a save joins cached bytes.

Decoding has two steps. ``checked_columns`` cuts the records of one task
type into columns and checks each whole: codes below their table sizes,
flags, empty and ordered windows, counts, only normal trends under
insufficient_data, and nonempty string ids. A bad value refuses the whole
block, naming its field and the first device that carries it. It builds no
object per record, so a decoded bundle keeps the checked columns and a
device decides from its code columns alone. ``semantics_of_columns`` then
builds the values from checked columns without checking again: a snapshot
load does so at once, a bundle when its ``candidates`` are first read.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import sys
from array import array
from enum import Enum
from itertools import compress, count, repeat
from operator import attrgetter, ge, gt, not_
from typing import Any, Iterable, Mapping, NamedTuple, NoReturn, Sequence

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
_TREND_OF_CODE = dict(enumerate(Trend))
# Keyed by each member's ``_value_``, a plain instance attribute: a str key
# hashes in C, where a ``Trend`` key runs the Python-level ``Enum.__hash__``.
_TREND_CODE = {trend._value_: code for code, trend in _TREND_OF_CODE.items()}
_STATE_OF_CODE = dict(enumerate(TrustState))
_STATE_CODE = {state: code for code, state in _STATE_OF_CODE.items()}
_INSUFFICIENT_CODE = _STATE_CODE[_INSUFFICIENT_DATA]
_NORMAL_CODES = (_TREND_CODE[_NORMAL._value_],) * len(TREND_METRICS)
_BIG_ENDIAN = sys.byteorder == "big"
_ATTRS, _STATE = attrgetter("__dict__"), attrgetter("state")


def _pack_record(ts: TrustSemantics) -> bytes:
    """``ts``'s record, kept on the instance for every later bundle or save.

    The record is kept in the instance ``__dict__`` under ``_record``, as
    ``functools.cached_property`` does: one key, because a twelfth key would
    unshare the instance dict's keys and grow every cached leaf about
    fivefold. No field of a ``TrustSemantics`` can change and a
    re-extraction makes a new instance (``SemanticsTree.upsert`` replaces the
    leaf), so the cached bytes cannot go stale; two threads filling the same
    instance at once store equal bytes.
    """
    lo, hi = ts.window or (0, 0)
    code = _TREND_CODE
    record = ts.__dict__["_record"] = _RECORD.pack(
        code[ts.throughput._value_], code[ts.loss_rate._value_], code[ts.accuracy._value_],
        code[ts.proc_speed._value_], ts.window is not None, lo, hi, ts.extracted_at, ts.record_count,
    )
    return record


def block_of(leaves: Sequence[TrustSemantics]) -> bytes:
    """The leaves' records joined, as ``_pack_record`` made and kept them."""
    records = [*map(dict.get, map(_ATTRS, leaves), repeat("_record"))]
    if not all(records):  # leaves in their first bundle or save
        for i in compress(count(), map(not_, records)):
            records[i] = _pack_record(leaves[i])
    return b"".join(records)


def records_of(leaves: Sequence[TrustSemantics]) -> tuple[bytes, bytes]:
    """The leaves' state codes, a byte each, and their records, as ``checked_columns`` reads them."""
    return bytes(map(_STATE_CODE.__getitem__, map(_STATE, leaves))), block_of(leaves)


class RecordColumns(NamedTuple):
    """The checked columns of one task type's records, as ``checked_columns`` returns them.

    ``states`` holds a ``TrustState`` code per device, ``codes`` the four
    ``Trend`` code columns in ``TREND_METRICS`` order and ``flags`` the
    window flags, each as bytes or ``array('B')``; the window bounds,
    ``extracted_ats`` and ``counts`` are ``array('q')`` columns.
    """

    task_type: str
    devices: list
    states: Sequence[int]
    codes: list[Sequence[int]]
    flags: Sequence[int]
    los: array
    his: array
    extracted_ats: array
    counts: array


def checked_columns(task_type: Any, devices: list, states: Sequence[int], block: Sequence[int]
                    ) -> RecordColumns:
    """The columns of ``devices``' records under ``task_type``, each checked whole.

    ``devices`` is a nonempty list, ``states`` holds one ``TrustState`` code
    per device and ``block`` one record per device, both as bytes or
    ``array('B')``. Each column is checked as ``TrustSemantics`` checks one
    value, so ``semantics_of_columns`` builds the values without its checks;
    only a failing column is searched, to name its first bad device. A
    block without an insufficient_data state, as every bundle's is, is
    checked without an object per device.
    """
    task_type = _require_device_id(task_type, "task_type")
    if not _all_ids(devices):
        for device in devices:
            _require_device_id(device, "device")
    if _any_at_least(states, len(_STATE_OF_CODE)):
        _refuse("state", f"a TrustState code below {len(_STATE_OF_CODE)}", states, devices,
                map(ge, states, repeat(len(_STATE_OF_CODE))))
    (*codes, flags), (los, his, extracted_ats, counts) = _record_columns(block)
    for metric, column in zip(TREND_METRICS, codes):
        if _any_at_least(column, len(_TREND_OF_CODE)):
            _refuse(metric, f"a Trend code below {len(_TREND_OF_CODE)}", column, devices,
                    map(ge, column, repeat(len(_TREND_OF_CODE))))
    if _INSUFFICIENT_CODE in states:
        bad = [state == _INSUFFICIENT_CODE and trends != _NORMAL_CODES
               for state, trends in zip(states, zip(*codes))]
        if any(bad):
            _refuse("state", "trusted or untrusted where a trend is not normal", states, devices, bad)
    if _any_at_least(flags, 2):
        _refuse("window", "flagged 0 or 1", flags, devices, map(gt, flags, repeat(1)))
    if 0 in flags and (any(compress(los, map(not_, flags))) or any(compress(his, map(not_, flags)))):
        _refuse("window", "(0, 0) when flagged absent", [*zip(los, his)], devices,
                (not flag and (lo or hi) for flag, lo, hi in zip(flags, los, his)))
    if any(map(gt, los, his)):  # an absent window's (0, 0) is in order
        _refuse("window", "ordered, from <= to", [*zip(los, his)], devices, map(gt, los, his))
    if min(counts) < 0:
        _refuse("record_count", ">= 0", counts, devices, map(gt, repeat(0), counts))
    return RecordColumns(task_type, devices, states, codes, flags, los, his, extracted_ats, counts)


def semantics_of_columns(columns: RecordColumns) -> list[TrustSemantics]:
    """The semantics that ``checked_columns`` checked, built without a second check."""
    task_type, devices, states, codes, flags, los, his, extracted_ats, counts = columns
    windows = [*zip(los, his)]
    if 0 in flags:
        windows = [window if flag else None for window, flag in zip(windows, flags)]
    return _semantics_of_valid_columns(
        devices, repeat(task_type), map(_STATE_OF_CODE.__getitem__, states),
        *(map(_TREND_OF_CODE.__getitem__, column) for column in codes),
        windows, extracted_ats, counts,
    )


def _record_columns(block: Sequence[int]) -> tuple[list[Sequence[int]], list[array]]:
    """The five uint8 columns and the four int64 columns of a record block.

    A uint8 column is one strided slice of the block. The records' int64
    fields are gathered a byte position at a time, by strided slices, into
    one ``array('q')`` of four values per record, and each int64 column is a
    strided slice of that. No object is made per record.
    """
    size = _RECORD.size
    fields = bytearray(32 * (len(block) // size))
    for offset in range(32):
        fields[offset::32] = block[5 + offset::size]
    ints = array("q", fields)
    if _BIG_ENDIAN:
        ints.byteswap()
    return [block[offset::size] for offset in range(5)], [ints[field::4] for field in range(4)]


def _all_ids(devices: list) -> bool:
    """Whether every device is a nonempty string: ``str.join`` refuses anything else in one call."""
    try:
        "".join(devices)
    except TypeError:
        return False
    return "" not in devices


def _any_at_least(column: Sequence[int], limit: int) -> bool:
    """Whether a byte of ``column`` is ``limit`` or more: whether anything is left once the bytes below it go."""
    return bool(bytes(column).translate(None, _BYTES_BELOW[limit]))


_BYTES_BELOW = {limit: bytes(range(limit)) for limit in (2, len(_TREND_OF_CODE), len(_STATE_OF_CODE))}


def _refuse(field: str, requirement: str, column: Sequence, devices: list, bad: Iterable[bool]) -> NoReturn:
    """Refuse the records at the first device where ``bad`` is true, naming its value."""
    i = next(compress(count(), bad))
    raise ValidationError(f"{field} must be {requirement}, got {column[i]!r} for device {devices[i]!r}",
                          field=field)
