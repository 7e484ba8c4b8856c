"""Device-side student agent: the final, lightweight collaborator choice.

The teacher already filtered for trust and feasibility, so the student only
applies its one preference over the received bundle: avoid candidates whose
trend fields are moving the wrong way (``ADVERSE``; the canonical case is a
still-trusted candidate with rising packet loss), tie-break by device id for
reproducibility. Adversity is a preference, not a veto: when every candidate
looks adverse the least-adverse one is taken, unless ``strict_trends``
restores the veto.
"""

from __future__ import annotations

from dataclasses import dataclass

from .domain import DeviceId, Trend
from .teacher import Candidate, CandidateBundle

# The direction in which each metric's trend counts against a candidate.
ADVERSE: dict[str, Trend] = {
    "loss_rate": Trend.INCREASING,
    "throughput": Trend.DECREASING,
    "accuracy": Trend.DECREASING,
    "proc_speed": Trend.DECREASING,
}


@dataclass(frozen=True)
class DecisionPolicy:
    strict_trends: bool = False


def adverse_trend_count(candidate: Candidate) -> int:
    semantics = candidate.semantics
    return sum(1 for metric, bad in ADVERSE.items() if getattr(semantics, metric) is bad)


def decide(bundle: CandidateBundle, policy: DecisionPolicy | None = None) -> DeviceId | None:
    """Pick the final collaborator from a bundle, or None when there is nothing to pick.

    Pure in (bundle, policy). A bundle's candidates are always ordered by
    device id (``CandidateBundle`` rejects any other order): the first clean
    candidate wins, else the first least adverse one.
    """
    least, pick = None, None
    for c in bundle.candidates:
        n = adverse_trend_count(c)
        if n == 0:
            return c.device
        if least is None or n < least:
            least, pick = n, c.device
    return None if policy is not None and policy.strict_trends else pick
