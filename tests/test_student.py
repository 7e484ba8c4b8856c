"""The student's decision over candidate bundles."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from twotsd.domain import TREND_METRICS, Trend
from twotsd.student import ADVERSE, DecisionPolicy, adverse_trend_count, decide
from twotsd.teacher import Candidate, CandidateBundle

from _builders import make_semantics


def _candidate(device: str, **trends) -> Candidate:
    sem = make_semantics(device=device, window=(1_000, 9_000), extracted_at=9_000, record_count=9,
                         **trends)
    return Candidate(sem, True)


def _bundle(*candidates: Candidate) -> CandidateBundle:
    return CandidateBundle("c2", tuple(sorted(candidates, key=lambda c: c.device)), 0)


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


def test_adverse_trend_count_matches_map():
    assert set(ADVERSE) == set(TREND_METRICS)
    c = _candidate("a_j", loss_rate=Trend.INCREASING, proc_speed=Trend.DECREASING)
    assert adverse_trend_count(c) == 2
    assert adverse_trend_count(_candidate("a_k")) == 0


def _reference_trend_averse(bundle: CandidateBundle, policy: DecisionPolicy):
    """The pick from every candidate's count over the merged trend view."""
    counts = []
    for c in bundle.candidates:
        trends = c.semantics.all_trends()
        counts.append((sum(1 for m, bad in ADVERSE.items() if trends.get(m) is bad), c.device))
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
    policy = DecisionPolicy(strict_trends=draw(st.booleans()))
    candidates = []
    for device in devices:
        trends = {m: draw(_TRENDS) for m in TREND_METRICS}
        if all_adverse:  # at least one adverse trend on every candidate
            metric = draw(st.sampled_from(sorted(trends)))
            trends[metric] = ADVERSE[metric]
        candidates.append(_candidate(device, **trends))
    return CandidateBundle("c2", tuple(candidates), 0), policy


@given(_trend_bundles())
def test_trend_averse_picks_what_counting_every_candidate_picks(case):
    bundle, policy = case
    assert decide(bundle, policy) == _reference_trend_averse(bundle, policy)
    assert decide(bundle) == decide(bundle, DecisionPolicy())  # the one-argument call

