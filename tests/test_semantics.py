"""Trend/state extraction against an independent closed-form oracle.

The oracle recomputes the least-squares slope from the textbook normal
equations (b = (n*sum(xy) - sum(x)*sum(y)) / (n*sum(x^2) - sum(x)^2) over
x = 0..n-1) and classifies the mean-normalized slope with the same
thresholds. It shares no code with the implementation.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from twotsd.domain import Trend, TrustState, Verdict
from twotsd.errors import HeterogeneousInputError, ValidationError
from twotsd.semantics import DeterministicEngine, StateConfig, TrendConfig, _classify, extract_semantics

from _builders import make_record, make_records, window_of

TREND_CFG = TrendConfig(n_min=5, rel_slope_threshold=0.10, abs_floor=1e-6)
STATE_CFG = StateConfig(n_min=5, trust_threshold=0.8)
# Every record of _trend's windows is satisfied, so any nonempty one is trusted.
ANY_NONEMPTY_TRUSTED = StateConfig(n_min=1)


def oracle_slope(values: list[float]) -> float:
    n = len(values)
    xs = range(n)
    sx = sum(xs)
    sy = sum(values)
    sxy = sum(x * y for x, y in zip(xs, values))
    sxx = sum(x * x for x in xs)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def oracle_trend(values: list[float], cfg: TrendConfig = TREND_CFG) -> Trend:
    if len(values) < cfg.n_min:
        return Trend.NORMAL
    slope = oracle_slope(values)
    mean = sum(values) / len(values)
    s = slope * (len(values) - 1) / max(mean, cfg.abs_floor)
    if s > cfg.rel_slope_threshold:
        return Trend.INCREASING
    if s < -cfg.rel_slope_threshold:
        return Trend.DECREASING
    return Trend.NORMAL


def _trend(values, cfg: TrendConfig = TREND_CFG) -> Trend:
    """The throughput trend extracted from an all-satisfied window of ``values``, one per second."""
    window = window_of([make_record(at=1_000 * (i + 1), throughput_mbps=v) for i, v in enumerate(values)])
    return extract_semantics("a_j", "video_transcoding", window, cfg, ANY_NONEMPTY_TRUSTED).throughput


def _state_of(records) -> TrustState:
    return extract_semantics("a_j", "video_transcoding", window_of(records), TREND_CFG, STATE_CFG).state


def test_rising_loss_example():
    """Loss creeping 1% -> 5% over five records: normalized slope 4/3."""
    values = [0.01, 0.02, 0.03, 0.04, 0.05]
    assert oracle_slope(values) == pytest.approx(0.01)
    s = 0.01 * 4 / 0.03
    assert s == pytest.approx(4 / 3)
    assert _trend(values) is Trend.INCREASING
    assert oracle_trend(values) is Trend.INCREASING


def test_sagging_throughput_example():
    """100 -> 80 Mbps across five records: normalized slope -2/9."""
    values = [100.0, 95.0, 90.0, 85.0, 80.0]
    assert oracle_slope(values) == pytest.approx(-5.0)
    assert -5.0 * 4 / 90.0 == pytest.approx(-2 / 9)
    assert _trend(values) is Trend.DECREASING


def test_flat_series_is_normal():
    assert _trend([2.0, 2.0, 2.01, 1.99, 2.0]) is Trend.NORMAL


def test_below_n_min_is_always_normal():
    steep = [0.01, 0.05, 0.2, 0.9]  # would be increasing at n >= 5
    assert _trend(steep) is Trend.NORMAL


def test_metric_floor_suppresses_noise_near_zero():
    # Mean 0.003 with slope 0.001: explosive when normalized by the mean,
    # quiet when normalized by a 0.05 floor.
    values = [0.001, 0.002, 0.003, 0.004, 0.005]
    assert _trend(values) is Trend.INCREASING
    floored = TrendConfig(n_min=5, rel_slope_threshold=0.10, abs_floor=0.05)
    assert _trend(values, floored) is Trend.NORMAL


@pytest.mark.parametrize("over, field", [
    ({"abs_floor": 0.0}, "abs_floor"),
    ({"abs_floor": math.nan}, "abs_floor"),
    ({"metric_floors": {"loss_rate": 0.0}}, "metric_floors.loss_rate"),
    ({"metric_floors": {"loss_rate": -1.0}}, "metric_floors.loss_rate"),
    ({"metric_floors": {"los_rate": 0.5}}, "metric_floors.los_rate"),
])
def test_trend_floors_must_be_positive(over, field):
    # A floor divides the slope: at 0 an all-zero loss window divides by zero.
    with pytest.raises(ValidationError) as info:
        TrendConfig(**over)
    assert info.value.field == field


@settings(max_examples=200)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=0, max_size=40)
)
def test_extracted_trend_matches_oracle(values):
    assert _trend(values) is oracle_trend(values)


def test_thousand_case_oracle_agreement():
    """Randomized bulk agreement at several scales and shapes (frozen seed)."""
    rng = random.Random(170_815)
    for _ in range(1_000):
        n = rng.randint(0, 30)
        scale = 10 ** rng.randint(-3, 4)
        drift = rng.uniform(-0.3, 0.3) * scale
        values = [
            abs(rng.uniform(0.5, 1.5) * scale + drift * i)
            for i in range(n)
        ]
        assert _trend(values) is oracle_trend(values)


def reference_normalized_slope(values: list[float], floor: float) -> float:
    """The normalized slope computed with the statistics module."""
    n = len(values)
    slope = statistics.linear_regression(range(n), values).slope
    return slope * (n - 1) / max(statistics.fmean(values), floor)


def test_normalized_slope_is_bit_identical_to_statistics_reference():
    """A threshold equal to the reference slope reads NORMAL, one ulp below it
    reads a trend, so any difference in the last bit fails one of the two.
    The classifier is called directly: about a sixth of these series go
    below zero, which no record's metric can."""
    rng = random.Random(20_251_018)
    checked = 0
    for _ in range(2_000):
        n = rng.randint(2, 119)
        scale = 10 ** rng.uniform(-6, 6)
        drift = rng.uniform(-0.5, 0.5) * scale / n
        values = [rng.uniform(0.2, 2.0) * scale + drift * i for i in range(n)]
        floor = rng.choice([1e-6, scale])
        s = reference_normalized_slope(values, floor)
        if s == 0.0:
            continue
        direction = Trend.INCREASING if s > 0 else Trend.DECREASING
        at = TrendConfig(n_min=2, rel_slope_threshold=abs(s), abs_floor=floor)
        below = replace(at, rel_slope_threshold=math.nextafter(abs(s), 0.0))
        assert _classify(values, floor, at) is Trend.NORMAL
        assert _classify(values, floor, below) is direction
        checked += 1
    assert checked > 1_900


def test_state_threshold_boundary():
    # 16/20 satisfied sits exactly at the 0.8 threshold: trusted.
    sat16 = make_records(16) + make_records(4, start_at=17_000, verdict=Verdict.UNSATISFIED)
    sat16.sort(key=lambda r: r.at)
    assert _state_of(sat16) is TrustState.TRUSTED
    sat15 = make_records(15) + make_records(5, start_at=16_000, verdict=Verdict.UNSATISFIED)
    sat15.sort(key=lambda r: r.at)
    assert _state_of(sat15) is TrustState.UNTRUSTED


def test_state_below_n_min_is_insufficient():
    assert _state_of(make_records(4)) is TrustState.INSUFFICIENT_DATA
    assert _state_of([]) is TrustState.INSUFFICIENT_DATA
    assert _state_of(make_records(5)) is TrustState.TRUSTED


def test_extract_semantics_composes_state_and_trends():
    n = 20
    records = [
        make_record(at=1_000 * (i + 1), loss_rate=0.01 + 0.005 * i)
        for i in range(n)
    ]
    ts = extract_semantics("a_j", "video_transcoding", window_of(records), TREND_CFG, STATE_CFG)
    assert ts.state is TrustState.TRUSTED
    assert ts.loss_rate is Trend.INCREASING
    assert (ts.throughput, ts.accuracy, ts.proc_speed) == (Trend.NORMAL,) * 3
    assert ts.window == (1_000, 20_000)
    assert ts.extracted_at == 20_000
    assert ts.record_count == n


def test_extract_semantics_cold_start_has_no_trend_claims():
    records = [make_record(at=1_000 * (i + 1), loss_rate=0.01 + 0.2 * i) for i in range(3)]
    ts = extract_semantics("a_j", "video_transcoding", window_of(records), TREND_CFG, STATE_CFG)
    assert ts.state is TrustState.INSUFFICIENT_DATA
    assert all(t is Trend.NORMAL for t in ts.all_trends().values())
    empty = extract_semantics("a_j", "video_transcoding", window_of([]), TREND_CFG, STATE_CFG)
    assert empty.window is None
    assert empty.record_count == 0


def test_extract_semantics_rejects_foreign_records():
    with pytest.raises(HeterogeneousInputError):
        extract_semantics("a_j", "face_recognition", window_of(make_records(5)), TREND_CFG, STATE_CFG)


def test_extract_semantics_rejects_a_window_of_another_collaborator():
    window = window_of(make_records(5, collaborator="a_z"), collaborator="a_z")
    with pytest.raises(HeterogeneousInputError):
        extract_semantics("a_j", "video_transcoding", window, TREND_CFG, STATE_CFG)


def test_extraction_reads_the_store_order_whatever_the_append_order():
    # Order is the store's invariant: records appended newest first still
    # read oldest first, so a rising loss stays INCREASING.
    records = [make_record(at=1_000 * (i + 1), loss_rate=0.01 + 0.005 * i) for i in range(8)]
    in_order = extract_semantics("a_j", "video_transcoding", window_of(records), TREND_CFG, STATE_CFG)
    reversed_ = extract_semantics(
        "a_j", "video_transcoding", window_of(records[::-1]), TREND_CFG, STATE_CFG
    )
    assert reversed_ == in_order
    assert reversed_.loss_rate is Trend.INCREASING
    assert reversed_.window == (1_000, 8_000)


def test_extraction_is_pure():
    records = window_of(make_records(8))
    engine = DeterministicEngine(TREND_CFG, STATE_CFG)
    first = engine.extract("a_j", "video_transcoding", records)
    second = engine.extract("a_j", "video_transcoding", records)
    assert first == second
