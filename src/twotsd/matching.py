"""Chain-of-trust task-collaborator matching.

Feasibility is evaluated as a fixed pipeline of stages where each stage feeds
an accumulated elapsed-time estimate (``carry``, seconds) into the next:

    1. freshness      resource report recent enough to trust       carry = 0
    2. storage        storage_mb >= size_mb
    3. communication  carry  = t_tx = size_bits / (bandwidth_mbps * 1e6)
    4. computation    carry += t_cp = size_bits * density_cpb / cpu_cps
    5. deadline       pass iff carry <= deadline_s

Communication and computation always pass; they are the two terms of
``carry``. A failed stage short-circuits the chain; failure is a verdict, not
an error. The transfer model is one-way (owner -> collaborator upload
dominates).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Real
from typing import NamedTuple

from .domain import BITS_PER_MB, ResourceProfile, Task, TimestampMs
from .errors import ValidationError


class Stage(Enum):
    """The stages that can fail."""

    FRESHNESS = "freshness"
    STORAGE = "storage"
    DEADLINE = "deadline"


@dataclass(frozen=True)
class MatchConfig:
    staleness_s: float = 300.0

    def __post_init__(self):
        if isinstance(self.staleness_s, bool) or not isinstance(self.staleness_s, Real):
            raise ValidationError(
                f"staleness_s must be a number, got {self.staleness_s!r}", field="staleness_s"
            )
        if not self.staleness_s > 0:  # refuses NaN too
            raise ValidationError("staleness_s must be > 0", field="staleness_s")


# A named tuple rather than a frozen dataclass: a served request runs the chain
# once per trusted device, and a tuple is built several times faster.
class MatchVerdict(NamedTuple):
    """Outcome of one task-collaborator evaluation.

    ``failed_stage`` is the stage that stopped the chain, None if every stage
    passed. ``carry`` is the elapsed-time estimate when the chain stopped: 0.0
    after a freshness or storage failure.
    """

    failed_stage: Stage | None
    carry: float

    @property
    def matched(self) -> bool:
        return self.failed_stage is None


_STALE = MatchVerdict(Stage.FRESHNESS, 0.0)
_NO_ROOM = MatchVerdict(Stage.STORAGE, 0.0)


def evaluate_chain(
    task: Task,
    profile: ResourceProfile,
    now: TimestampMs,
    cfg: MatchConfig,
) -> MatchVerdict:
    """Run the staged feasibility chain for one candidate."""
    if not (now - profile.updated_at) / 1000.0 <= cfg.staleness_s:
        return _STALE
    if not profile.storage_mb >= task.size_mb:
        return _NO_ROOM
    size_bits = task.size_mb * BITS_PER_MB  # Task.size_bits, without the property call
    carry = size_bits / (profile.bandwidth_mbps * 1e6)
    carry += size_bits * task.density_cpb / profile.cpu_cps
    # tuple.__new__ builds what MatchVerdict(...) would, without its Python-level __new__.
    return tuple.__new__(MatchVerdict, (None if carry <= task.deadline_s else Stage.DEADLINE, carry))
