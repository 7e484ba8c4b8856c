"""Device-side student agent: the final, lightweight collaborator choice.

The teacher already filtered for trust and feasibility, so the student only
applies its own preference over the received bundle. The default policy is
trend-averse: avoid candidates whose metrics are moving the wrong way (the
canonical case is a still-trusted candidate with rising packet loss),
tie-break by device id for reproducibility. Adversity is a preference, not a veto: when
every candidate looks adverse the least-adverse one is taken, unless
``strict_trends`` restores the veto.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from enum import Enum
from random import Random

from .domain import COMM_METRICS, COMP_METRICS, DeviceId, Trend
from .errors import ValidationError
from .teacher import Candidate, CandidateBundle


class PolicyKind(Enum):
    TREND_AVERSE = "trend_averse"
    FIRST_MATCH = "first_match"
    RANDOM_SEEDED = "random_seeded"


def default_adverse_map() -> dict[str, Trend]:
    return {
        "loss_rate": Trend.INCREASING,
        "throughput": Trend.DECREASING,
        "accuracy": Trend.DECREASING,
        "proc_speed": Trend.DECREASING,
    }


@dataclass(frozen=True)
class DecisionPolicy:
    kind: PolicyKind = PolicyKind.TREND_AVERSE
    adverse_map: dict[str, Trend] = field(default_factory=default_adverse_map)
    seed: int | None = None
    strict_trends: bool = False

    def __post_init__(self):
        expected = set(COMM_METRICS) | set(COMP_METRICS)
        if set(self.adverse_map) != expected:
            raise ValidationError(
                f"adverse_map must cover exactly {sorted(expected)}", field="adverse_map"
            )
        if self.kind is PolicyKind.RANDOM_SEEDED and self.seed is None:
            raise ValidationError("random_seeded policy needs a seed", field="seed")


def adverse_trend_count(candidate: Candidate, adverse_map: dict[str, Trend]) -> int:
    comm, comp = candidate.semantics.comm_trends, candidate.semantics.comp_trends
    return sum(1 for metric, bad in adverse_map.items() if comm.get(metric, comp.get(metric)) is bad)


def decide(bundle: CandidateBundle, policy: DecisionPolicy | None = None) -> DeviceId | None:
    """Pick the final collaborator from a bundle, or None when there is nothing to pick.

    Pure in (bundle, policy). A bundle's candidates are always ordered by
    device id (``CandidateBundle`` rejects any other order), so every policy
    reads them as given.
    """
    policy = policy or DecisionPolicy()
    candidates = bundle.candidates
    if not candidates:
        return None

    if policy.kind is PolicyKind.FIRST_MATCH:
        return candidates[0].device

    if policy.kind is PolicyKind.RANDOM_SEEDED:
        # Mix the task id into the seed so one policy instance still varies
        # across tasks while staying a pure function of (bundle, policy).
        mixed = (policy.seed or 0) ^ zlib.crc32(bundle.task_id.encode("utf-8"))
        idx = Random(mixed).randrange(len(candidates))
        return candidates[idx].device

    # trend_averse: the first clean candidate, else the first least adverse one
    least, pick = None, None
    for c in candidates:
        n = adverse_trend_count(c, policy.adverse_map)
        if n == 0:
            return c.device
        if least is None or n < least:
            least, pick = n, c.device
    return None if policy.strict_trends else pick
