"""Device-side student agent: the final, lightweight collaborator choice.

The teacher already filtered for trust and feasibility, so the student only
applies its one preference over the received bundle: avoid candidates whose
trend fields are moving the wrong way (``ADVERSE``; the canonical case is a
still-trusted candidate with rising packet loss), tie-break by device id for
reproducibility. Adversity is a preference, not a veto: when every candidate
looks adverse the least-adverse one is taken, unless ``strict_trends``
restores the veto.

The decision reads the bundle's trend-code columns, a strided slice of its
record block each, so a decoded bundle decides without building a value per
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import _RECORD, _TREND_CODE
from .domain import TREND_METRICS, DeviceId, Trend
from .teacher import CandidateBundle

# The direction in which each metric's trend counts against a candidate.
ADVERSE: dict[str, Trend] = {
    "loss_rate": Trend.INCREASING,
    "throughput": Trend.DECREASING,
    "accuracy": Trend.DECREASING,
    "proc_speed": Trend.DECREASING,
}

# Per trend-code column of a semantics record, in ``TREND_METRICS`` order: a
# ``bytes.translate`` table taking each code to 1 where it is adverse, else 0.
_ADVERSE_CODES = [bytes(code == _TREND_CODE[ADVERSE[metric]._value_] for code in range(256))
                  for metric in TREND_METRICS]
_RECORD_SIZE = _RECORD.size


@dataclass(frozen=True)
class DecisionPolicy:
    strict_trends: bool = False


def decide(bundle: CandidateBundle, policy: DecisionPolicy | None = None) -> DeviceId | None:
    """Pick the final collaborator from a bundle, or None when there is nothing to pick.

    Pure in (bundle, policy). A bundle's candidates are always ordered by
    device id (``CandidateBundle`` rejects any other order): the first clean
    candidate wins, else the first least adverse one. The counts come from
    the bundle's four trend-code columns, each mapped to one byte per
    candidate, 1 where adverse (``_ADVERSE_CODES``), and added as big-endian
    integers: a count is at most 4, so no byte carries into the next.
    """
    n = len(bundle.device_ids)
    block = bundle.block
    adverse = sum(int.from_bytes(block[offset::_RECORD_SIZE].translate(table), "big")
                  for offset, table in enumerate(_ADVERSE_CODES))
    counts = adverse.to_bytes(n, "big")
    i = counts.find(0)
    if i < 0:
        if not n or (policy is not None and policy.strict_trends):
            return None
        i = counts.index(min(counts))
    return bundle.device_ids[i]
