"""Value-type invariants and raw-input validation."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from twotsd import codec
from twotsd.domain import (
    COMM_METRICS,
    COMP_METRICS,
    Trend,
    TrustSemantics,
    TrustState,
    Verdict,
    parse_fraction,
    validate_record,
    validate_task,
)
from twotsd.errors import ValidationError

from _builders import make_record, make_task


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


def test_validate_task_collects_unknown_keys_into_extra():
    task = validate_task({
        "task_id": "t1",
        "owner": "a_i",
        "task_type": "video_transcoding",
        "size_mb": 50,
        "density_cpb": 1000,
        "deadline_s": 50,
        "codec_profile": "h264",
    })
    assert task.extra == {"codec_profile": "h264"}
    assert task.size_mb == 50.0


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
        "battery": 0.8,
    })
    assert rec.loss_rate == pytest.approx(0.01)
    assert rec.accuracy == pytest.approx(0.98)
    assert rec.verdict is Verdict.SATISFIED
    assert rec.extra == {"battery": 0.8}


def test_validate_record_extra_must_be_a_mapping_and_wins_over_unknown_keys():
    raw = codec.record_to_dict(make_record())
    assert validate_record({**raw, "site": "a", "extra": {"site": "b"}}).extra == {"site": "b"}
    given = {"site": "b"}
    rec = validate_record({**raw, "extra": given})
    assert rec.extra == given and rec.extra is not given
    for bad in ([["site", "b"]], None, "site"):
        with pytest.raises(ValidationError) as err:
            validate_record({**raw, "extra": bad})
        assert err.value.field == "extra"
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


def test_timestamps_must_be_integers():
    with pytest.raises(ValidationError):
        make_record(at=1000.5)
    with pytest.raises(ValidationError):
        make_record(at=True)


def _semantics(**over) -> TrustSemantics:
    base = dict(
        device="a_j",
        task_type="video_transcoding",
        state=TrustState.TRUSTED,
        comm_trends={"throughput": Trend.NORMAL, "loss_rate": Trend.INCREASING},
        comp_trends={"accuracy": Trend.NORMAL, "proc_speed": Trend.NORMAL},
        window=(1_000, 20_000),
        extracted_at=20_000,
        record_count=20,
    )
    base.update(over)
    return TrustSemantics(**base)


def test_semantics_requires_exact_metric_sets():
    with pytest.raises(ValidationError):
        _semantics(comm_trends={"throughput": Trend.NORMAL})
    with pytest.raises(ValidationError):
        _semantics(comp_trends={"accuracy": Trend.NORMAL, "battery": Trend.NORMAL})


def test_insufficient_data_forces_normal_trends():
    with pytest.raises(ValidationError):
        _semantics(
            state=TrustState.INSUFFICIENT_DATA,
            comm_trends={"throughput": Trend.NORMAL, "loss_rate": Trend.INCREASING},
        )
    ok = _semantics(
        state=TrustState.INSUFFICIENT_DATA,
        comm_trends={m: Trend.NORMAL for m in COMM_METRICS},
        comp_trends={m: Trend.NORMAL for m in COMP_METRICS},
        record_count=2,
    )
    assert ok.state is TrustState.INSUFFICIENT_DATA


def test_semantics_window_ordering():
    with pytest.raises(ValidationError):
        _semantics(window=(20_000, 1_000))
    assert _semantics(window=None).window is None


def test_all_trends_merges_both_groups():
    merged = _semantics().all_trends()
    assert set(merged) == set(COMM_METRICS) | set(COMP_METRICS)
    assert merged["loss_rate"] is Trend.INCREASING


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
    again = codec.record_from_dict(codec.record_to_dict(rec))
    assert again == rec
    assert codec.canonical_json_bytes(codec.record_to_dict(again)) == codec.canonical_json_bytes(
        codec.record_to_dict(rec)
    )


@given(size=_floats, density=_floats, deadline=_floats)
def test_task_dict_round_trip(size, density, deadline):
    task = make_task(size_mb=size, density_cpb=density, deadline_s=deadline)
    assert codec.task_from_dict(codec.task_to_dict(task)) == task


def test_semantics_dict_round_trip():
    ts = _semantics()
    assert codec.semantics_from_dict(codec.semantics_to_dict(ts)) == ts
    none_window = _semantics(window=None)
    assert codec.semantics_from_dict(codec.semantics_to_dict(none_window)) == none_window
