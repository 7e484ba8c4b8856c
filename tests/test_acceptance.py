"""Acceptance suite: eight end-to-end criteria, one test and one verdict line each.

Every threshold the criteria depend on (0.10 relative slope, 0.8 trust
threshold, n_min 5, window sizes) is pinned explicitly here rather than
inherited from library defaults, so a default change cannot silently change
what these tests accept.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotsd.cli import main
from twotsd.domain import (
    ResourceProfile,
    Task,
    Trend,
    TrustSemantics,
    TrustState,
    Verdict,
)
from twotsd.errors import ProtocolError
from twotsd.matching import MatchConfig, Stage, evaluate_chain
from twotsd.memory import HistoryQuery, HistoryStore, SemanticsTree
from twotsd.protocol import (
    Ack,
    ErrorInfo,
    Message,
    MessageKind,
    decode,
    encode,
)
from twotsd.semantics import StateConfig, TrendConfig, extract_semantics
from twotsd.simulation import (
    METHOD_2TSD,
    METHOD_BASELINE,
    ScenarioConfig,
    accuracy_over_seeds,
    eval_time_sweep,
    run_scenario,
)
from twotsd.student import decide
from twotsd.teacher import Candidate, CandidateBundle, TeacherAgent

from _builders import make_profile, make_record, make_records, make_semantics, make_task, window_of

TREND_CFG = TrendConfig(n_min=5, rel_slope_threshold=0.10, abs_floor=1e-6)
STATE_CFG = StateConfig(n_min=5, trust_threshold=0.8)

BASE_CFG = ScenarioConfig(
    seed=0,
    device_count=10,
    task_count=200,
    warmup_records=20,
    unreliable_fraction=0.3,
    drifter_fraction=0.2,
    teacher_window_k=20,
    baseline_window_k=5,
    trend=TrendConfig(n_min=5, rel_slope_threshold=0.10, abs_floor=1e-6,
                      metric_floors={"loss_rate": 0.05}),
    state=STATE_CFG,
)


def _verdict_line(number: int, name: str, detail: str) -> None:
    print(f"criterion {number} ({name}): PASS [{detail}]")


def test_criterion_1_serving_cost_flat_in_fleet_size():
    started = time.perf_counter()
    sweep = eval_time_sweep(BASE_CFG, [10, 20, 40])
    elapsed = time.perf_counter() - started

    ours = {n: sweep[n].summaries[METHOD_2TSD].mean_eval_time_s for n in sweep}
    theirs = {n: sweep[n].summaries[METHOD_BASELINE].mean_eval_time_s for n in sweep}
    spread = (max(ours.values()) - min(ours.values())) / min(ours.values())
    ratio = theirs[40] / theirs[10]

    assert spread < 0.05, f"serving cost varied {spread:.2%} across fleet sizes"
    assert ratio >= 3.0, f"polling cost grew only {ratio:.2f}x from 10 to 40 devices"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    _verdict_line(1, "constant-time serving",
                  f"spread={spread:.4%} ratio={ratio:.2f} elapsed={elapsed:.1f}s")


def test_criterion_2_no_device_side_collection_when_serving():
    result = run_scenario(BASE_CFG)
    ours = result.rows_for(METHOD_2TSD)
    theirs = result.rows_for(METHOD_BASELINE)
    assert len(ours) >= 200 and len(theirs) >= 200
    assert all(row.collections == 0 for row in ours)
    expected = BASE_CFG.device_count - 1
    assert all(row.collections == expected for row in theirs)
    assert all(row.collections == row.candidates_polled for row in theirs)
    _verdict_line(2, "zero collection at request time",
                  f"tasks={len(ours)} baseline_per_task={expected}")


def test_criterion_3_accuracy_beats_per_request_polling():
    seeds = range(12)
    runs = accuracy_over_seeds(BASE_CFG, seeds)
    ours, theirs = [], []
    for seed in seeds:
        summaries = runs[seed].summaries
        assert summaries[METHOD_2TSD].tasks >= 200
        assert summaries[METHOD_2TSD].accuracy is not None
        assert summaries[METHOD_BASELINE].accuracy is not None
        ours.append(summaries[METHOD_2TSD].accuracy)
        theirs.append(summaries[METHOD_BASELINE].accuracy)
    mean_ours = sum(ours) / len(ours)
    mean_theirs = sum(theirs) / len(theirs)

    assert mean_ours >= 0.90, f"selection accuracy {mean_ours:.4f} below 0.90"
    assert mean_ours >= mean_theirs + 0.05, (
        f"gap {mean_ours - mean_theirs:.4f} below 0.05 "
        f"(ours {mean_ours:.4f}, polling {mean_theirs:.4f})"
    )
    _verdict_line(3, "selection accuracy",
                  f"ours={mean_ours:.4f} polling={mean_theirs:.4f} over {len(ours)} seeds")


def _leaf(device: str, task_type: str, count: int) -> TrustSemantics:
    return make_semantics(device=device, task_type=task_type, window=(1_000, 1_000 * count),
                          extracted_at=1_000 * count, record_count=count)


def test_criterion_4_tree_invariants_across_random_upserts():
    rng = random.Random(40_226)
    tree = SemanticsTree()
    task_types = [f"tt{i}" for i in range(6)]
    devices = [f"d{i:03d}" for i in range(40)]
    latest: dict[tuple[str, str], TrustSemantics] = {}
    for _ in range(10_000):
        sem = _leaf(rng.choice(devices), rng.choice(task_types), rng.randrange(5, 50))
        latest[(sem.task_type, sem.device)] = sem
        tree.upsert(sem)

    pairs = len(latest)
    types = len({tt for tt, _ in latest})
    assert tree.leaf_count() == pairs  # single leaf per (task type, device)
    assert tree.node_count() == 1 + types + 2 * pairs
    assert tree.task_types() == sorted({tt for tt, _ in latest})
    for tt in tree.task_types():
        entries = tree.get_by_task_type(tt)
        assert [e.device for e in entries] == sorted(e.device for e in entries)
        for entry in entries:
            assert entry == latest[(tt, entry.device)]

    before = tree.to_dict()
    for sem in latest.values():  # replaying the latest payloads changes nothing
        tree.upsert(sem)
    assert tree.to_dict() == before
    _verdict_line(4, "tree-store invariants",
                  f"upserts=10000 pairs={pairs} nodes={tree.node_count()}")


def _oracle_trend(values: list[float]) -> Trend:
    if len(values) < TREND_CFG.n_min:
        return Trend.NORMAL
    n = len(values)
    xs = range(n)
    sx, sy = sum(xs), sum(values)
    sxy = sum(x * y for x, y in zip(xs, values))
    sxx = sum(x * x for x in xs)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    s = slope * (n - 1) / max(sy / n, TREND_CFG.abs_floor)
    if s > TREND_CFG.rel_slope_threshold:
        return Trend.INCREASING
    if s < -TREND_CFG.rel_slope_threshold:
        return Trend.DECREASING
    return Trend.NORMAL


def test_criterion_5_oracle_equivalences():
    rng = random.Random(55_155)

    # Trend classification vs the closed-form least-squares oracle, read off
    # an all-satisfied window (trusted from n_min records, as trends need).
    for _ in range(1_000):
        n = rng.randrange(2, 40)
        scale = 10.0 ** rng.randrange(-3, 6)
        base = rng.uniform(0.5, 2.0) * scale
        step = rng.uniform(-0.2, 0.2) * scale
        noise = rng.uniform(0.0, 0.3) * scale
        values = [
            max(base + step * i + rng.uniform(-noise, noise), scale * 1e-3)
            for i in range(n)
        ]
        window = window_of([make_record(at=1_000 * (i + 1), throughput_mbps=v) for i, v in enumerate(values)])
        ts = extract_semantics("a_j", "video_transcoding", window, TREND_CFG, STATE_CFG)
        assert ts.throughput is _oracle_trend(values)

    # Deadline carry vs the analytic transfer + compute time formula.
    match_cfg = MatchConfig(staleness_s=1e9)
    for i in range(1_000):
        task = Task(
            task_id=f"t{i}", owner="a_i", task_type="video_transcoding",
            size_mb=rng.uniform(1.0, 100.0), density_cpb=rng.uniform(100.0, 3000.0),
            deadline_s=rng.uniform(1.0, 120.0),
        )
        profile = ResourceProfile(
            device="a_k", cpu_cps=rng.uniform(1e9, 6e10),
            storage_mb=rng.uniform(50.0, 2000.0),
            bandwidth_mbps=rng.uniform(1.0, 200.0), updated_at=0,
        )
        verdict = evaluate_chain(task, profile, now=1_000, cfg=match_cfg)
        if profile.storage_mb < task.size_mb:
            assert verdict.failed_stage is Stage.STORAGE
            continue
        t_tx = task.size_mb * 8e6 / (profile.bandwidth_mbps * 1e6)
        t_cp = task.size_mb * 8e6 * task.density_cpb / profile.cpu_cps
        assert verdict.failed_stage in (None, Stage.DEADLINE)
        assert verdict.carry == pytest.approx(t_tx + t_cp, abs=1e-9)
        assert verdict.matched == (verdict.carry <= task.deadline_s)

    # Window queries vs brute-force filtering over the same log. Each record
    # is distinct, so records that tie on `at` must come back in arrival order.
    store = HistoryStore()
    mirror = []
    for i in range(500):
        rec = make_record(
            collaborator=rng.choice(["a_j", "a_k", "a_l"]),
            task_type=rng.choice(["face_recognition", "video_transcoding"]),
            at=rng.randrange(0, 3_000),
            throughput_mbps=float(i),
        )
        store.append(rec)
        mirror.append((i, rec))
    for _ in range(1_000):
        query = HistoryQuery(
            collaborator=rng.choice(["a_j", "a_k", "a_l"]),
            task_type=rng.choice(["face_recognition", "video_transcoding"]),
            **(
                {"last_k": rng.randrange(1, 40)}
                if rng.random() < 0.5
                else {"interval": tuple(sorted((rng.randrange(0, 3_000), rng.randrange(0, 3_000))))}
            ),
        )
        hits = sorted(
            (
                (rec.at, arrival, rec)
                for arrival, rec in mirror
                if rec.collaborator == query.collaborator
                and rec.task_type == query.task_type
            ),
        )
        if query.interval is not None:
            lo, hi = query.interval
            expected = [rec for at, _, rec in hits if lo <= at <= hi]
        else:
            expected = [rec for _, _, rec in hits][-query.last_k:]
        assert list(store.query(query)) == expected

    _verdict_line(5, "oracle equivalences", "trend=1000 chain=1000 query=1000 cases")


def test_criterion_6_rising_loss_candidate_bundled_but_not_picked():
    teacher = TeacherAgent(
        engine=None, match_cfg=MatchConfig(staleness_s=300.0),
    )
    now = 30_000
    for device in ["a_j", "a_k", "a_l"]:
        teacher.handle_resource_report(make_profile(device=device, updated_at=now))

    # a_k: steady history, every collaboration satisfied.
    for rec in make_records(8, collaborator="a_k"):
        teacher.handle_performance_record(rec)
    # a_j: satisfied throughout, but packet loss climbing fast.
    for i, rec in enumerate(make_records(8, collaborator="a_j")):
        teacher.handle_performance_record(
            make_record(collaborator="a_j", at=rec.at, loss_rate=0.01 + 0.02 * i)
        )
    # a_l: mostly failed collaborations.
    for i, rec in enumerate(make_records(8, collaborator="a_l")):
        teacher.handle_performance_record(
            make_record(
                collaborator="a_l", at=rec.at,
                verdict=Verdict.UNSATISFIED if i % 2 == 0 else Verdict.SATISFIED,
            )
        )

    task = make_task(task_id="c2", owner="a_i")
    bundle = teacher.handle_task_request(task, now)
    assert set(bundle.devices()) == {"a_j", "a_k"}
    assert bundle.devices() == ["a_j", "a_k"]
    rising = next(c for c in bundle.candidates if c.device == "a_j")
    assert rising.semantics.loss_rate is Trend.INCREASING
    assert rising.semantics.state is TrustState.TRUSTED
    assert decide(bundle) == "a_k"
    _verdict_line(6, "walkthrough",
                  "bundle=[a_j, a_k], a_j trusted but rising loss, picked a_k")


_TOKEN = st.text(min_size=1, max_size=10)


@st.composite
def _messages(draw):
    kind = draw(st.sampled_from(list(MessageKind)))
    ts = st.integers(0, 2**40)
    pos = st.floats(1e-3, 1e6)
    frac = st.floats(0, 1)
    if kind is MessageKind.RESOURCE_REPORT:
        payload = make_profile(
            cpu_cps=draw(pos), storage_mb=draw(pos),
            bandwidth_mbps=draw(pos), updated_at=draw(ts),
        )
    elif kind is MessageKind.PERFORMANCE_RECORD:
        payload = make_record(
            at=draw(ts), throughput_mbps=draw(pos), loss_rate=draw(frac),
            proc_speed_mbps=draw(pos), accuracy=draw(frac),
            verdict=draw(st.sampled_from(list(Verdict))),
        )
    elif kind is MessageKind.TASK_REQUEST:
        payload = make_task(task_id=draw(_TOKEN), size_mb=draw(pos),
                            density_cpb=draw(pos), deadline_s=draw(pos))
    elif kind is MessageKind.CANDIDATE_BUNDLE:
        candidates = tuple(
            Candidate(_leaf(device, "video_transcoding", draw(st.integers(5, 40))), True)
            for device in draw(st.lists(st.sampled_from(["a_j", "a_k", "a_l"]),
                                        unique=True, max_size=3).map(sorted))
        )
        payload = CandidateBundle(draw(_TOKEN), candidates, draw(ts))
    elif kind is MessageKind.ACK:
        payload = Ack(detail=draw(st.none() | st.text(max_size=20)))
    else:
        payload = ErrorInfo(code=draw(_TOKEN), detail=draw(st.text(max_size=30)))
    return Message(kind, draw(_TOKEN), payload, draw(_TOKEN), draw(ts))


@settings(max_examples=200)
@given(_messages())
def _roundtrip_property(msg):
    assert decode(encode(msg)) == msg


@settings(max_examples=300)
@given(st.binary(max_size=300))
def _fuzz_property(data):
    try:
        decode(data)
    except ProtocolError:
        pass  # typed rejection is the only acceptable failure


def test_criterion_7_protocol_round_trip_and_fuzz():
    _roundtrip_property()
    _fuzz_property()
    _verdict_line(7, "protocol round-trip",
                  "decode(encode(m)) == m for all kinds; garbage never crashes")


def test_criterion_8_byte_identical_reruns(tmp_path):
    args = [
        "--seed", "5",
        "--override", "device_count=8",
        "--override", "task_count=80",
        "--snapshot",
    ]
    for sub in ("a", "b"):
        assert main(["simulate", "--out", str(tmp_path / sub), *args]) == 0
    files = ["tasks.csv", "summary.csv", "manifest.json", "snapshot.json"]
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    _verdict_line(8, "deterministic outputs", f"{', '.join(files)} byte-identical")
