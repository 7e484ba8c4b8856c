"""Deterministic trust-semantics engine.

Trend detection fits a least-squares line over (record index, value) pairs and
classifies the slope after normalizing it by the series mean, so the verdict is
scale-free: a throughput sliding 100 -> 80 Mbps and a loss rate creeping
0.01 -> 0.05 both register, despite living four orders of magnitude apart.
The overall trust state is the satisfied-fraction of the record window against
a threshold. Index-based slopes (rather than raw timestamps) avoid
timestamp-gap pathologies on near-regular record streams.

The engine interface is pluggable: :class:`DeterministicEngine` is the
reference; a remote large-model adapter can implement the same ``extract``
capability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import fsum
from operator import attrgetter
from typing import Protocol, Sequence

from .domain import (
    TREND_METRICS,
    DeviceId,
    RecordWindow,
    TaskType,
    Trend,
    TrustSemantics,
    TrustState,
)
from .errors import HeterogeneousInputError, ValidationError


@dataclass(frozen=True)
class TrendConfig:
    """Thresholds for trend classification.

    ``rel_slope_threshold`` applies to the normalized slope
    s = slope * (n - 1) / max(mean, floor), i.e. roughly "total relative change
    across the window". ``abs_floor`` guards the normalization when a series
    mean is ~0; ``metric_floors`` may override it per metric.
    """

    n_min: int = 5
    rel_slope_threshold: float = 0.10
    abs_floor: float = 1e-6
    metric_floors: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_min < 2:
            raise ValidationError("n_min must be >= 2", field="n_min")
        # Each `not x > 0` refuses NaN as well.
        if not self.rel_slope_threshold > 0:
            raise ValidationError("rel_slope_threshold must be > 0", field="rel_slope_threshold")
        for metric in self.metric_floors:
            if metric not in TREND_METRICS:
                raise ValidationError(
                    f"metric_floors key {metric!r} is not a trend metric {TREND_METRICS}",
                    field=f"metric_floors.{metric}",
                )
        # Each floor divides a slope in _classify.
        floors = {"abs_floor": self.abs_floor}
        floors.update((f"metric_floors.{m}", f) for m, f in self.metric_floors.items())
        for name, floor in floors.items():
            if not floor > 0:
                raise ValidationError(f"{name} must be > 0", field=name)

    def floor_for(self, metric: str) -> float:
        return self.metric_floors.get(metric, self.abs_floor)


@dataclass(frozen=True)
class StateConfig:
    """Thresholds for the overall trust state."""

    n_min: int = 5
    trust_threshold: float = 0.8  # on the satisfied-fraction

    def __post_init__(self):
        if self.n_min < 1:
            raise ValidationError("n_min must be >= 1", field="n_min")
        if not 0.0 < self.trust_threshold <= 1.0:
            raise ValidationError("trust_threshold must be in (0,1]", field="trust_threshold")


class SemanticsEngine(Protocol):
    """The single capability every engine provides.

    The teacher hands ``extract`` a :class:`RecordWindow`: the newest records
    of (device, task_type) in (timestamp, arrival) order, as read-only
    columns that ``extract_semantics`` reads directly; reading its items
    builds ``PerformanceRecord``s. Deterministic engines must be pure
    functions of inputs + config.
    """

    def extract(
        self,
        device: DeviceId,
        task_type: TaskType,
        records: RecordWindow,
    ) -> TrustSemantics: ...


@lru_cache(maxsize=64)  # window sizes come from config: a handful per run
def _centred(n: int) -> tuple[float, ...]:
    """The indexes 0..n-1 less their mean (n-1)/2."""
    centre = (n - 1) / 2
    return tuple([i - centre for i in range(n)])


def _classify(values: Sequence[float], floor: float, cfg: TrendConfig) -> Trend:
    """Trend of a series already in index order.

    The slope is the least-squares fit over x = 0..n-1 in closed form:
    sum((i - (n-1)/2) * (v - mean)) over n(n^2-1)/12, the sum of the squared
    centred indexes. Each step is the float operation that
    ``statistics.linear_regression`` and ``statistics.fmean`` perform on the
    same input, so slope and mean come out bit for bit equal to theirs.
    """
    n = len(values)
    if n < cfg.n_min:
        return Trend.NORMAL
    mean = fsum(values) / n
    products = [c * (v - mean) for c, v in zip(_centred(n), values)]
    slope = fsum(products) / (n * (n * n - 1) / 12)
    normalized = slope * (n - 1) / max(mean, floor)
    if normalized > cfg.rel_slope_threshold:
        return Trend.INCREASING
    if normalized < -cfg.rel_slope_threshold:
        return Trend.DECREASING
    return Trend.NORMAL


def _state(n: int, satisfied: int, cfg: StateConfig) -> TrustState:
    """State of a window of ``n`` records, ``satisfied`` of them satisfied."""
    if n < cfg.n_min:
        return TrustState.INSUFFICIENT_DATA
    return TrustState.TRUSTED if satisfied / n >= cfg.trust_threshold else TrustState.UNTRUSTED


# The window column each trend metric is read from.
_METRIC_COLUMNS = {
    "throughput": attrgetter("throughput_mbps"),
    "loss_rate": attrgetter("loss_rate"),
    "accuracy": attrgetter("accuracy"),
    "proc_speed": attrgetter("proc_speed_mbps"),
}


def extract_semantics(
    device: DeviceId,
    task_type: TaskType,
    records: RecordWindow,
    trend_cfg: TrendConfig | None = None,
    state_cfg: StateConfig | None = None,
) -> TrustSemantics:
    """Compose state aggregation and per-metric trend detection into TrustSemantics.

    ``records`` is a :class:`RecordWindow` of (device, task_type), as
    ``HistoryStore.query`` returns one; its columns are read directly, and
    their (timestamp, arrival) order is the store's invariant. ``extracted_at``
    is derived from the last record so the extraction stays a pure function
    of its inputs.
    """
    trend_cfg = trend_cfg or TrendConfig()
    state_cfg = state_cfg or StateConfig()
    if records.collaborator != device or records.task_type != task_type:
        raise HeterogeneousInputError(
            f"window of ({records.collaborator}, {records.task_type}) passed to "
            f"extraction for ({device}, {task_type})"
        )
    at = records.at
    n = len(at)
    state = _state(n, sum(records.satisfied), state_cfg)

    def trend(metric: str) -> Trend:
        if state is TrustState.INSUFFICIENT_DATA:
            return Trend.NORMAL  # cold start: no trend claims
        return _classify(_METRIC_COLUMNS[metric](records), trend_cfg.floor_for(metric), trend_cfg)

    return TrustSemantics(
        device=device,
        task_type=task_type,
        state=state,
        throughput=trend("throughput"),
        loss_rate=trend("loss_rate"),
        accuracy=trend("accuracy"),
        proc_speed=trend("proc_speed"),
        window=(at[0], at[-1]) if n else None,
        extracted_at=at[-1] if n else 0,
        record_count=n,
    )


class DeterministicEngine:
    """Reference engine: pure, config-driven extraction."""

    def __init__(self, trend_cfg: TrendConfig | None = None, state_cfg: StateConfig | None = None):
        self.trend_cfg = trend_cfg or TrendConfig()
        self.state_cfg = state_cfg or StateConfig()

    def extract(
        self,
        device: DeviceId,
        task_type: TaskType,
        records: RecordWindow,
    ) -> TrustSemantics:
        return extract_semantics(device, task_type, records, self.trend_cfg, self.state_cfg)
