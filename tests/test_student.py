"""The student's decision over candidate bundles."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twotsd.domain import TREND_METRICS, Trend
from twotsd.protocol import Message, MessageKind, decode, encode
from twotsd.student import ADVERSE, DecisionPolicy, decide
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


def test_every_adverse_trend_of_a_candidate_counts():
    assert set(ADVERSE) == set(TREND_METRICS)
    two = _candidate("a_j", loss_rate=Trend.INCREASING, proc_speed=Trend.DECREASING)
    one = _candidate("a_k", accuracy=Trend.DECREASING)
    assert decide(_bundle(two, one)) == "a_k"
    assert decide(_bundle(two, _candidate("a_l"))) == "a_l"


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


@st.composite
def _coded_bundles(draw):
    """0 to 1 000 candidates with random trend codes, a base-3 digit per metric; some all adverse."""
    n = draw(st.integers(0, 1_000) | st.sampled_from([0, 1, 1_000]))
    digits = draw(st.lists(st.integers(0, 3 ** len(TREND_METRICS) - 1), min_size=n, max_size=n))
    all_adverse = draw(st.booleans())
    candidates = []
    for i, number in enumerate(digits):
        trends = {metric: list(Trend)[number // 3 ** k % 3] for k, metric in enumerate(TREND_METRICS)}
        if all_adverse:
            metric = TREND_METRICS[number % len(TREND_METRICS)]
            trends[metric] = ADVERSE[metric]
        candidates.append(_candidate(f"d{i:04d}", **trends))
    return CandidateBundle("c2", tuple(candidates), 0), DecisionPolicy(strict_trends=draw(st.booleans()))


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(_coded_bundles())
def test_trend_averse_picks_what_counting_every_candidate_picks(case):
    """The pick from the code columns is the reference's over the values, made or decoded from a frame."""
    bundle, policy = case
    decoded = decode(encode(Message(MessageKind.CANDIDATE_BUNDLE, "server", bundle, "m1", 0))).payload
    assert decoded == bundle
    want = _reference_trend_averse(bundle, policy)
    assert decide(bundle, policy) == want
    assert decide(decoded, policy) == want == _reference_trend_averse(decoded, policy)
    assert decide(bundle) == decide(bundle, DecisionPolicy())  # the one-argument call
