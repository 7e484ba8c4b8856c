"""Chain-of-trust task-collaborator matching.

Feasibility is evaluated as a fixed pipeline of stages where each stage feeds
an accumulated elapsed-time estimate (``carry``, seconds) into the next:

    1. freshness      resource report recent enough to trust       carry = 0
    2. storage        storage_mb >= size_mb
    3. communication  carry += t_tx = size_bits / (bandwidth_mbps * 1e6)
    4. computation    carry += t_cp = size_bits * density_cpb / cpu_cps
    5. deadline       pass iff carry <= deadline_s

A failed stage short-circuits the chain; failure is a verdict, not an error.
The transfer model is one-way (owner -> collaborator upload dominates); an
optional result-return term can be toggled on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .domain import ResourceProfile, Task, TimestampMs
from .errors import ValidationError


class Stage(Enum):
    FRESHNESS = "freshness"
    STORAGE = "storage"
    COMMUNICATION = "communication"
    COMPUTATION = "computation"
    DEADLINE = "deadline"


@dataclass(frozen=True)
class MatchConfig:
    """Knobs for the matching chain.

    ``result_size_factor`` sizes the return transfer relative to the task when
    ``include_result_return`` is on (default off: results assumed small).
    """

    staleness_s: float = 300.0
    include_result_return: bool = False
    result_size_factor: float = 0.1

    def __post_init__(self):
        if self.staleness_s <= 0:
            raise ValidationError("staleness_s must be > 0", field="staleness_s")
        if self.result_size_factor < 0:
            raise ValidationError("result_size_factor must be >= 0", field="result_size_factor")


@dataclass(frozen=True)
class StageResult:
    stage: Stage
    passed: bool
    carry: float  # accumulated elapsed-time estimate, seconds
    note: str


@dataclass(frozen=True)
class MatchVerdict:
    """Outcome of one task-collaborator evaluation.

    ``stages`` lists executed stages only: everything after a failed stage is
    absent. ``matched`` is true iff all five stages ran and passed.
    """

    device: str
    task_id: str
    stages: tuple[StageResult, ...]
    matched: bool

    def failed_stage(self) -> Stage | None:
        for s in self.stages:
            if not s.passed:
                return s.stage
        return None


def transfer_time_s(task: Task, profile: ResourceProfile, cfg: MatchConfig) -> float:
    """Upload time, plus the optional result-return term."""
    t_tx = task.size_bits / (profile.bandwidth_mbps * 1e6)
    if cfg.include_result_return:
        t_tx += task.size_bits * cfg.result_size_factor / (profile.bandwidth_mbps * 1e6)
    return t_tx


def compute_time_s(task: Task, profile: ResourceProfile) -> float:
    return task.size_bits * task.density_cpb / profile.cpu_cps


def evaluate_chain(
    task: Task,
    profile: ResourceProfile,
    now: TimestampMs,
    cfg: MatchConfig | None = None,
) -> MatchVerdict:
    """Run the staged feasibility chain for one candidate."""
    cfg = cfg or MatchConfig()
    stages: list[StageResult] = []
    carry = 0.0

    age_s = (now - profile.updated_at) / 1000.0
    fresh = age_s <= cfg.staleness_s
    stages.append(
        StageResult(Stage.FRESHNESS, fresh, carry, f"report age {age_s:.1f}s vs bound {cfg.staleness_s:.0f}s")
    )
    if not fresh:
        return MatchVerdict(profile.device, task.task_id, tuple(stages), False)

    fits = profile.storage_mb >= task.size_mb
    stages.append(
        StageResult(Stage.STORAGE, fits, carry, f"storage {profile.storage_mb:.0f}MB vs size {task.size_mb:.0f}MB")
    )
    if not fits:
        return MatchVerdict(profile.device, task.task_id, tuple(stages), False)

    t_tx = transfer_time_s(task, profile, cfg)
    carry += t_tx
    stages.append(StageResult(Stage.COMMUNICATION, True, carry, f"transfer {t_tx:.3f}s"))

    t_cp = compute_time_s(task, profile)
    carry += t_cp
    stages.append(StageResult(Stage.COMPUTATION, True, carry, f"compute {t_cp:.3f}s"))

    in_time = carry <= task.deadline_s
    stages.append(
        StageResult(Stage.DEADLINE, in_time, carry, f"elapsed {carry:.3f}s vs deadline {task.deadline_s:.0f}s")
    )
    return MatchVerdict(profile.device, task.task_id, tuple(stages), in_time)


def missing_profile_verdict(device: str, task_id: str) -> MatchVerdict:
    """Verdict for a device the resource store knows nothing about.

    No report means nothing fresh to trust, so the chain fails at freshness.
    """
    stage = StageResult(Stage.FRESHNESS, False, 0.0, "no resource profile on record")
    return MatchVerdict(device, task_id, (stage,), False)
