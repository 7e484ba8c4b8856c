"""Value-type invariants and raw-input validation."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import struct
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from twotsd import codec
from twotsd.domain import (
    COMM_METRICS,
    COMP_METRICS,
    TREND_METRICS,
    PerformanceRecord,
    Trend,
    TrustSemantics,
    TrustState,
    Verdict,
    _require_device_id,
    _require_number,
    _require_timestamp,
    parse_fraction,
    validate_record,
    validate_task,
)
from twotsd.errors import ValidationError

from _builders import make_profile, make_record, make_semantics, make_task


def test_parse_fraction_accepts_percent_strings():
    assert parse_fraction("1%", "loss_rate") == pytest.approx(0.01)
    assert parse_fraction("98%", "accuracy") == pytest.approx(0.98)
    assert parse_fraction(0.01, "loss_rate") == 0.01
    assert parse_fraction("0.25", "loss_rate") == 0.25


@pytest.mark.parametrize("bad", ["x%", "", "12e%%", 1.5, -0.1, float("nan"), None])
def test_parse_fraction_rejects_out_of_domain(bad):
    with pytest.raises(ValidationError):
        parse_fraction(bad, "loss_rate")


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_parse_fraction_percent_string_equals_plain(x):
    assert parse_fraction(f"{x * 100}%", "f") == pytest.approx(parse_fraction(x, "f"))


def test_record_rejects_self_collaboration():
    with pytest.raises(ValidationError) as err:
        make_record(owner="a_j", collaborator="a_j")
    assert err.value.code == "self_collaboration"


def test_record_satisfied_property_tracks_verdict():
    assert make_record(verdict=Verdict.SATISFIED).satisfied
    assert not make_record(verdict=Verdict.UNSATISFIED).satisfied


def test_task_size_bits_unit_convention():
    # MB = 10^6 bytes, so 50 MB is 4e8 bits.
    assert make_task(size_mb=50.0).size_bits == 50.0 * 8e6


@pytest.mark.parametrize("field,value", [
    ("size_mb", 0.0),
    ("size_mb", -1.0),
    ("density_cpb", 0.0),
    ("deadline_s", -5.0),
    ("task_id", ""),
    ("owner", ""),
])
def test_task_field_invariants(field, value):
    with pytest.raises(ValidationError):
        make_task(**{field: value})


def test_validate_task_ignores_unknown_keys():
    raw = {
        "task_id": "t1",
        "owner": "a_i",
        "task_type": "video_transcoding",
        "size_mb": 50,
        "density_cpb": 1000,
        "deadline_s": 50,
    }
    task = validate_task(raw)
    assert task.size_mb == 50.0
    for extra in ({"site": "lab"}, "not a mapping", None):
        assert validate_task({**raw, "codec_profile": "h264", "extra": extra}) == task
    assert [f.name for f in dataclasses.fields(task)] == [
        "task_id", "owner", "task_type", "size_mb", "density_cpb", "deadline_s",
    ]


def test_validate_task_reports_missing_fields():
    with pytest.raises(ValidationError) as err:
        validate_task({"task_id": "t1"})
    assert "missing task fields" in err.value.message


def test_validate_record_parses_percent_and_verdict_strings():
    rec = validate_record({
        "owner": "a_j",
        "collaborator": "a_k",
        "task_type": "face_recognition",
        "at": 5_000,
        "throughput_mbps": 100,
        "loss_rate": "1%",
        "proc_speed_mbps": 2,
        "accuracy": "98%",
        "verdict": "Satisfied",
    })
    assert rec.loss_rate == pytest.approx(0.01)
    assert rec.accuracy == pytest.approx(0.98)
    assert rec.verdict is Verdict.SATISFIED


def test_validate_record_ignores_unknown_keys_and_names_missing_fields():
    raw = codec.to_jsonable(make_record())
    assert set(raw) == {f.name for f in dataclasses.fields(PerformanceRecord)}
    assert raw["verdict"] == "satisfied"
    for extra in ({"site": "b"}, [["site", "b"]], None, "site"):
        assert validate_record({**raw, "battery": 0.8, "extra": extra}) == make_record()
    with pytest.raises(ValidationError) as err:
        validate_record({k: v for k, v in raw.items() if k not in ("at", "accuracy")})
    assert err.value.message == "missing record fields: accuracy, at"


def test_record_numbers_are_normalised_to_floats():
    rec = make_record(throughput_mbps=100, loss_rate="1%", proc_speed_mbps=2, accuracy=1)
    assert [type(v) for v in (rec.throughput_mbps, rec.loss_rate, rec.proc_speed_mbps,
                              rec.accuracy)] == [float] * 4
    assert (rec.throughput_mbps, rec.loss_rate, rec.proc_speed_mbps, rec.accuracy) == (
        100.0, 0.01, 2.0, 1.0)


def test_validate_record_rejects_unknown_verdict():
    with pytest.raises(ValidationError):
        validate_record({
            "owner": "a_j",
            "collaborator": "a_k",
            "task_type": "face_recognition",
            "at": 5_000,
            "throughput_mbps": 100,
            "loss_rate": 0.01,
            "proc_speed_mbps": 2,
            "accuracy": 0.98,
            "verdict": "maybe",
        })


@dataclass(frozen=True)
class _ReferenceRecord:
    """PerformanceRecord as a generated frozen dataclass with its earlier __post_init__ rules."""

    owner: Any
    collaborator: Any
    task_type: Any
    at: Any
    throughput_mbps: Any
    loss_rate: Any
    proc_speed_mbps: Any
    accuracy: Any
    verdict: Any

    def __post_init__(self):
        _require_device_id(self.owner, "owner")
        _require_device_id(self.collaborator, "collaborator")
        _require_device_id(self.task_type, "task_type")
        if self.owner == self.collaborator:
            raise ValidationError(
                f"owner and collaborator must differ (both {self.owner!r})",
                field="collaborator",
                code="self_collaboration",
            )
        _require_timestamp(self.at, "at")
        object.__setattr__(self, "throughput_mbps", _require_number(self.throughput_mbps, "throughput_mbps"))
        object.__setattr__(self, "loss_rate", parse_fraction(self.loss_rate, "loss_rate"))
        object.__setattr__(self, "proc_speed_mbps", _require_number(self.proc_speed_mbps, "proc_speed_mbps"))
        object.__setattr__(self, "accuracy", parse_fraction(self.accuracy, "accuracy"))
        if not isinstance(self.verdict, Verdict):
            raise ValidationError(f"verdict must be a Verdict, got {self.verdict!r}", field="verdict")


def _outcome(cls, args):
    try:
        record = cls(*args)
    except ValidationError as exc:
        return ("rejected", exc.field, exc.code, exc.message)
    values = [getattr(record, f.name) for f in dataclasses.fields(record)]
    return ("accepted", [
        (type(v), struct.pack("<d", v)) if type(v) is float else (type(v), v) for v in values
    ])


class _Str(str):
    pass


class _Float(float):
    pass


_NUMBERS = [
    -0.0, 0.0, 1.0, 1.0000000000000002, 1.5, 1e308, 5e-324, -5e-324, math.inf, -math.inf,
    math.nan, _Float(0.5), 0, 1, 2, -1, 10**400, True, False, "1%", "150%", "-1%", " 98% ",
    "0.5", "1e309", "nan", "-0.0", "x", "", None, [0.5],
]
# Edge values per field, in field order; each also stands alone in a valid record.
_EDGES = [
    ["a_i", "a_j", "", " ", _Str("a_i"), 3, None],
    ["a_j", "a_i", "", " ", _Str("a_k"), 3, None],
    ["video_transcoding", "", _Str("t"), b"x", None],
    [0, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**70, 10**400, True, 1.0, "1", None],
    _NUMBERS, _NUMBERS, _NUMBERS, _NUMBERS,
    [*Verdict, "satisfied", None, True],
]
_VALID = ("a_i", "a_j", "video_transcoding", 1_000, 100.0, 0.01, 2.0, 0.98, Verdict.SATISFIED)


def test_record_constructor_agrees_with_the_reference_rules_on_edge_values():
    for index, values in enumerate(_EDGES):
        for value in values:
            args = (*_VALID[:index], value, *_VALID[index + 1:])
            assert _outcome(PerformanceRecord, args) == _outcome(_ReferenceRecord, args), args


@settings(max_examples=500, deadline=None)
@given(st.tuples(*(st.sampled_from(values) for values in _EDGES[:4]),
                 *(st.sampled_from(_NUMBERS) | st.floats() for _ in range(4)),
                 st.sampled_from(_EDGES[8])))
def test_record_constructor_agrees_with_the_reference_rules(args):
    """Same accept or reject, same error field, code and message, same stored bits."""
    assert _outcome(PerformanceRecord, args) == _outcome(_ReferenceRecord, args)


def test_record_is_frozen_and_copies():
    record = make_record()
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.at = 5
    for again in (copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
                  dataclasses.replace(record, at=record.at)):
        assert again == record


def test_timestamps_must_be_integers():
    with pytest.raises(ValidationError):
        make_record(at=1000.5)
    with pytest.raises(ValidationError):
        make_record(at=True)


def _semantics(**over) -> TrustSemantics:
    return make_semantics(**{"loss_rate": Trend.INCREASING, **over})


@pytest.mark.parametrize("metric", TREND_METRICS)
def test_each_trend_must_be_a_trend_naming_its_metric(metric):
    for bad in ("normal", None, TrustState.TRUSTED):
        with pytest.raises(ValidationError, match=f"^{metric} must be a Trend") as err:
            _semantics(**{metric: bad})
        assert err.value.field == metric


def test_insufficient_data_forces_normal_trends():
    for metric in TREND_METRICS:
        with pytest.raises(ValidationError, match="must carry only normal trends"):
            _semantics(**{"state": TrustState.INSUFFICIENT_DATA, "loss_rate": Trend.NORMAL,
                          metric: Trend.DECREASING})
    ok = _semantics(state=TrustState.INSUFFICIENT_DATA, loss_rate=Trend.NORMAL, record_count=2)
    assert ok.state is TrustState.INSUFFICIENT_DATA


def test_semantics_window_ordering():
    with pytest.raises(ValidationError):
        _semantics(window=(20_000, 1_000))
    assert _semantics(window=None).window is None


def test_all_trends_lists_the_trend_fields_in_row_order():
    """The order of TREND_METRICS is the order of the semantics record's four trend codes."""
    trends = _semantics().all_trends()
    assert list(trends) == list(TREND_METRICS) == list(COMM_METRICS + COMP_METRICS)
    for i, metric in enumerate(TREND_METRICS):  # decreasing is code 1, normal 2
        record = codec._pack_record(make_semantics(**{metric: Trend.DECREASING}))
        assert [*record[:4]] == [1 if j == i else 2 for j in range(4)]
    assert trends == {"throughput": Trend.NORMAL, "loss_rate": Trend.INCREASING,
                      "accuracy": Trend.NORMAL, "proc_speed": Trend.NORMAL}


def test_semantics_is_hashable_and_equal_values_hash_equal():
    ts = _semantics()
    (again,) = codec.semantics_of_columns(codec.checked_columns(ts.task_type, [ts.device], *codec.records_of([ts])))
    # the cached wire bytes, filled on ts by records_of, take no part in equality
    assert again == ts and hash(again) == hash(ts)
    assert len({ts, again, _semantics(window=None)}) == 2
    assert _semantics(accuracy=Trend.DECREASING) != ts


def test_no_semantics_field_can_be_assigned():
    ts = _semantics()
    wire = codec._pack_record(ts)
    for field in dataclasses.fields(TrustSemantics):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ts, field.name, Trend.DECREASING)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(ts, field.name)
    ts.all_trends()["throughput"] = Trend.DECREASING  # a copy, not a view
    assert ts == _semantics() and ts.throughput is Trend.NORMAL
    assert codec._pack_record(ts) == wire == codec._pack_record(_semantics())


_HUGE = 10**400  # an int no float can hold


@pytest.mark.parametrize("kind, field", [
    ("record", "throughput_mbps"), ("record", "loss_rate"), ("record", "proc_speed_mbps"),
    ("record", "accuracy"), ("record", "at"), ("profile", "cpu_cps"), ("profile", "updated_at"),
    ("task", "deadline_s"), ("semantics", "extracted_at"),
])
def test_a_huge_number_is_a_validation_error_naming_its_field(kind, field):
    build = {"record": make_record, "profile": make_profile, "task": make_task, "semantics": _semantics}
    with pytest.raises(ValidationError) as err:
        build[kind](**{field: _HUGE})
    assert err.value.field == field


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, field", [(make_record, "throughput_mbps"), (make_profile, "cpu_cps")])
def test_a_non_finite_number_is_refused_as_not_finite(build, field, value):
    with pytest.raises(ValidationError) as err:
        build(**{field: value})
    assert err.value.message == f"{field} must be a finite number"
    assert (err.value.field, err.value.code) == (field, "validation")


@pytest.mark.parametrize("at", [2**63 - 1, -(2**63)])
def test_timestamps_span_the_signed_64_bit_range(at):
    assert make_record(at=at).at == at
    assert make_profile(updated_at=at).updated_at == at
    assert _semantics(window=(at, at), extracted_at=at).window == (at, at)
    for outside in (at + 1 if at > 0 else at - 1, 2 * at):
        for build, field in ((make_record, "at"), (make_profile, "updated_at"), (_semantics, "extracted_at")):
            with pytest.raises(ValidationError, match=f"{field} must fit in 64 bits") as err:
                build(**{field: outside})
            assert err.value.code == "out_of_range"


@pytest.mark.parametrize("count, error, code", [
    (-1, "record_count must be >= 0", "validation"),
    (2**63, "record_count must fit in 64 bits", "out_of_range"),
    (2**70, "record_count must fit in 64 bits", "out_of_range"),
])
def test_record_count_spans_the_non_negative_int64_range(count, error, code):
    assert _semantics(record_count=2**63 - 1).record_count == 2**63 - 1
    with pytest.raises(ValidationError, match=f"^{error}$") as err:
        _semantics(record_count=count)
    assert (err.value.field, err.value.code) == ("record_count", code)


# Codec round-trips: canonical bytes are stable and dict codecs invert.

_ids = st.text(st.characters(codec="ascii", categories=("Ll", "Nd")), min_size=1, max_size=8)
_floats = st.floats(min_value=0.001, max_value=1e6, allow_nan=False)


@given(
    owner=_ids, collaborator=_ids, at=st.integers(min_value=0, max_value=2**40),
    throughput=_floats, loss=st.floats(min_value=0, max_value=1, allow_nan=False),
    proc=_floats, acc=st.floats(min_value=0, max_value=1, allow_nan=False),
    verdict=st.sampled_from(list(Verdict)),
)
def test_record_dict_round_trip(owner, collaborator, at, throughput, loss, proc, acc, verdict):
    if owner == collaborator:
        collaborator = owner + "x"
    rec = make_record(
        owner=owner, collaborator=collaborator, at=at, throughput_mbps=throughput,
        loss_rate=loss, proc_speed_mbps=proc, accuracy=acc, verdict=verdict,
    )
    again = codec.record_from_dict(codec.to_jsonable(rec))
    assert again == rec
    assert codec.canonical_json_bytes(codec.to_jsonable(again)) == codec.canonical_json_bytes(
        codec.to_jsonable(rec)
    )


@given(size=_floats, density=_floats, deadline=_floats)
def test_task_dict_round_trip(size, density, deadline):
    task = make_task(size_mb=size, density_cpb=density, deadline_s=deadline)
    assert validate_task(codec.to_jsonable(task)) == task
