"""Student decision policies over candidate bundles."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twotsd.domain import COMM_METRICS, COMP_METRICS, Trend, TrustSemantics, TrustState
from twotsd.errors import ValidationError
from twotsd.student import (
    DecisionPolicy,
    PolicyKind,
    adverse_trend_count,
    decide,
    default_adverse_map,
)
from twotsd.teacher import Candidate, CandidateBundle


def _candidate(device: str, **trend_over) -> Candidate:
    trends = {
        "throughput": Trend.NORMAL,
        "loss_rate": Trend.NORMAL,
        "accuracy": Trend.NORMAL,
        "proc_speed": Trend.NORMAL,
    }
    trends.update(trend_over)
    sem = TrustSemantics(
        device=device,
        task_type="video_transcoding",
        state=TrustState.TRUSTED,
        comm_trends={k: trends[k] for k in ("throughput", "loss_rate")},
        comp_trends={k: trends[k] for k in ("accuracy", "proc_speed")},
        window=(1_000, 9_000),
        extracted_at=9_000,
        record_count=9,
    )
    return Candidate(sem, True)


def _bundle(*candidates: Candidate, task_id: str = "c2") -> CandidateBundle:
    return CandidateBundle(task_id, tuple(sorted(candidates, key=lambda c: c.device)), 0)


def test_trend_averse_avoids_rising_loss():
    bundle = _bundle(_candidate("a_j", loss_rate=Trend.INCREASING), _candidate("a_k"))
    assert decide(bundle) == "a_k"


def test_trend_averse_ignores_benign_direction():
    # Falling loss is a good sign, not an adverse one.
    bundle = _bundle(_candidate("a_j", loss_rate=Trend.DECREASING), _candidate("a_k"))
    assert decide(bundle) == "a_j"


def test_all_adverse_falls_back_to_least_adverse():
    bundle = _bundle(
        _candidate("a_j", loss_rate=Trend.INCREASING, throughput=Trend.DECREASING),
        _candidate("a_k", accuracy=Trend.DECREASING),
    )
    assert decide(bundle) == "a_k"


def test_adverse_tie_breaks_by_device_id():
    bundle = _bundle(
        _candidate("a_k", loss_rate=Trend.INCREASING),
        _candidate("a_j", accuracy=Trend.DECREASING),
    )
    assert decide(bundle) == "a_j"


def test_strict_trends_vetoes_when_nothing_clean():
    policy = DecisionPolicy(strict_trends=True)
    bundle = _bundle(_candidate("a_j", loss_rate=Trend.INCREASING))
    assert decide(bundle, policy) is None
    assert decide(_bundle(_candidate("a_j")), policy) == "a_j"


def test_empty_bundle_yields_none():
    assert decide(CandidateBundle("c2", (), 0)) is None


def test_first_match_takes_lowest_device_id():
    bundle = _bundle(_candidate("a_k"), _candidate("a_j", loss_rate=Trend.INCREASING))
    assert decide(bundle, DecisionPolicy(kind=PolicyKind.FIRST_MATCH)) == "a_j"


def test_random_seeded_is_deterministic_and_task_sensitive():
    policy = DecisionPolicy(kind=PolicyKind.RANDOM_SEEDED, seed=7)
    devices = [f"a_{chr(ord('a') + i)}" for i in range(8)]
    bundle = _bundle(*[_candidate(d) for d in devices])
    first = decide(bundle, policy)
    assert first == decide(bundle, policy)  # pure in (bundle, policy)
    picks = {
        decide(_bundle(*[_candidate(d) for d in devices], task_id=f"c{i}"), policy)
        for i in range(30)
    }
    assert len(picks) > 1  # task id varies the draw
    assert picks <= set(devices)


@given(seed=st.integers(0, 2**32 - 1), task_id=st.text(min_size=1, max_size=12))
def test_random_seeded_always_in_bundle(seed, task_id):
    policy = DecisionPolicy(kind=PolicyKind.RANDOM_SEEDED, seed=seed)
    bundle = _bundle(_candidate("a_j"), _candidate("a_k"), _candidate("a_l"), task_id=task_id)
    assert decide(bundle, policy) in {"a_j", "a_k", "a_l"}


def test_adverse_trend_count_matches_map():
    c = _candidate("a_j", loss_rate=Trend.INCREASING, proc_speed=Trend.DECREASING)
    assert adverse_trend_count(c, default_adverse_map()) == 2
    assert adverse_trend_count(_candidate("a_k"), default_adverse_map()) == 0


def _reference_trend_averse(bundle: CandidateBundle, policy: DecisionPolicy):
    """The pick from every candidate's count over the merged trend view."""
    counts = []
    for c in bundle.candidates:
        trends = c.semantics.all_trends()
        counts.append((sum(1 for m, bad in policy.adverse_map.items() if trends.get(m) is bad), c.device))
    clean = [device for n, device in counts if n == 0]
    if clean:
        return clean[0]
    if policy.strict_trends or not counts:
        return None
    return min(counts)[1]


_TRENDS = st.sampled_from(list(Trend))


@st.composite
def _trend_bundles(draw):
    devices = sorted(draw(st.lists(st.text(min_size=1, max_size=4), max_size=12, unique=True)))
    all_adverse = draw(st.booleans())
    adverse_map = {m: draw(_TRENDS) for m in COMM_METRICS + COMP_METRICS}
    policy = DecisionPolicy(adverse_map=adverse_map, strict_trends=draw(st.booleans()))
    candidates = []
    for device in devices:
        trends = {m: draw(_TRENDS) for m in COMM_METRICS + COMP_METRICS}
        if all_adverse:  # at least one adverse trend on every candidate
            metric = draw(st.sampled_from(sorted(trends)))
            trends[metric] = adverse_map[metric]
        candidates.append(_candidate(device, **trends))
    return CandidateBundle("c2", tuple(candidates), 0), policy


@given(_trend_bundles())
def test_trend_averse_picks_what_counting_every_candidate_picks(case):
    bundle, policy = case
    assert decide(bundle, policy) == _reference_trend_averse(bundle, policy)


def test_policy_validation():
    with pytest.raises(ValidationError):
        DecisionPolicy(adverse_map={"loss_rate": Trend.INCREASING})
    with pytest.raises(ValidationError):
        DecisionPolicy(kind=PolicyKind.RANDOM_SEEDED)  # seed required
