"""Simulation: replayable randomness, fleet synthesis, paired-world invariants."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twotsd.domain import PerformanceRecord, ResourceProfile, Verdict
from twotsd.errors import ConfigError
from twotsd.matching import MatchConfig
from twotsd.simulation import (
    BANDWIDTH_MBPS_RANGE,
    CPU_CPS_RANGE,
    METHOD_2TSD,
    METHOD_BASELINE,
    STORAGE_MB_RANGE,
    TASK_CLASSES,
    DeviceTruth,
    DirectPollingBaseline,
    LatencyModel,
    MethodSummary,
    Role,
    ScenarioConfig,
    ServedWorld,
    accuracy_of,
    run_scenario,
    stable_u01,
    stable_uniform,
    synth_record,
    synthesize_tasks,
    synthesize_truths,
    synthesize_warmup,
    write_summary_csv,
    write_tasks_csv,
)

from _builders import make_task

SMALL = ScenarioConfig(seed=3, device_count=6, task_count=30, warmup_records=20)


def test_stable_u01_is_pure_and_label_sensitive():
    assert stable_u01(7, "sat", "d001", "x", 3) == stable_u01(7, "sat", "d001", "x", 3)
    assert stable_u01(7, "sat", "d001", "x", 3) != stable_u01(7, "sat", "d001", "x", 4)
    assert stable_u01(1, 2) != stable_u01(2, 1)  # order of labels matters


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
def test_stable_u01_range(parts):
    assert 0.0 <= stable_u01(*parts) < 1.0


@given(st.integers(0, 10**6))
def test_stable_uniform_stays_in_bounds(label):
    value = stable_uniform(5.0, 9.0, "scale", label)
    assert 5.0 <= value < 9.0


def test_fleet_role_counts_follow_fractions():
    truths = synthesize_truths(ScenarioConfig(device_count=10))
    roles = [t.role for t in truths]
    assert roles.count(Role.DRIFTER) == 2  # 0.2 * 10
    assert roles.count(Role.UNRELIABLE) == 1  # 0.3 * 10 minus the drifters
    assert roles.count(Role.RELIABLE) == 7
    assert [t.device for t in truths] == [f"d{i:03d}" for i in range(10)]


def test_fleet_profiles_within_hardware_ranges():
    for t in synthesize_truths(ScenarioConfig(seed=11, device_count=40)):
        assert CPU_CPS_RANGE[0] <= t.profile.cpu_cps <= CPU_CPS_RANGE[1]
        assert STORAGE_MB_RANGE[0] <= t.profile.storage_mb <= STORAGE_MB_RANGE[1]
        assert BANDWIDTH_MBPS_RANGE[0] <= t.profile.bandwidth_mbps <= BANDWIDTH_MBPS_RANGE[1]
        assert t.profile.updated_at == 0


def test_fleet_synthesis_is_seed_deterministic():
    cfg = ScenarioConfig(seed=5, device_count=12)
    assert synthesize_truths(cfg) == synthesize_truths(cfg)
    assert synthesize_truths(cfg) != synthesize_truths(replace(cfg, seed=6))


def _truth(device="d000", role=Role.RELIABLE, reliability=1.0, **profile_over) -> DeviceTruth:
    fields = dict(device=device, cpu_cps=3e10, storage_mb=1000.0,
                  bandwidth_mbps=100.0, updated_at=0)
    fields.update(profile_over)
    return DeviceTruth(device, role, ResourceProfile(**fields), reliability)


def test_synth_record_metrics_ignore_owner_and_time():
    cfg = ScenarioConfig()
    truth = _truth()
    a = synth_record(cfg, truth, "o1", "face_recognition", 1_000, index=4)
    b = synth_record(cfg, truth, "o2", "face_recognition", 9_999, index=4)
    assert (a.throughput_mbps, a.loss_rate, a.proc_speed_mbps, a.accuracy, a.verdict) == (
        b.throughput_mbps, b.loss_rate, b.proc_speed_mbps, b.accuracy, b.verdict
    )
    assert (a.owner, a.at) == ("o1", 1_000)


def test_drifter_loss_climbs_with_record_index():
    cfg = ScenarioConfig()
    drifter = _truth(role=Role.DRIFTER, reliability=1.0)
    early = synth_record(cfg, drifter, "o", "video_transcoding", 0, index=0)
    late = synth_record(cfg, drifter, "o", "video_transcoding", 0, index=200)
    # 200 records of drift at 0.0015 each dwarfs the +/-0.002 noise band.
    assert late.loss_rate - early.loss_rate == pytest.approx(0.3, abs=0.005)
    steady = _truth(role=Role.RELIABLE, reliability=1.0)
    a = synth_record(cfg, steady, "o", "video_transcoding", 0, index=0)
    b = synth_record(cfg, steady, "o", "video_transcoding", 0, index=200)
    assert abs(b.loss_rate - a.loss_rate) < 0.005


def test_unsatisfied_records_carry_degraded_metrics():
    cfg = ScenarioConfig()
    never = _truth(reliability=0.0)
    always = _truth(reliability=1.0)
    bad = synth_record(cfg, never, "o", "video_transcoding", 0, index=1)
    good = synth_record(cfg, always, "o", "video_transcoding", 0, index=1)
    assert bad.verdict is Verdict.UNSATISFIED and good.verdict is Verdict.SATISFIED
    assert bad.loss_rate > good.loss_rate
    assert bad.throughput_mbps < good.throughput_mbps
    assert bad.accuracy < good.accuracy


def test_warmup_covers_every_pair_at_every_tick():
    cfg = replace(SMALL, warmup_records=7)
    records = synthesize_warmup(cfg, synthesize_truths(cfg))
    assert len(records) == 7 * cfg.device_count * len(cfg.task_types)
    per_pair = {}
    for r in records:
        per_pair.setdefault((r.collaborator, r.task_type), []).append(r.at)
    for ats in per_pair.values():
        assert ats == sorted(ats) and len(ats) == 7
    assert all(r.owner != r.collaborator for r in records)


def test_ingest_and_selection_build_no_record_in_either_world(monkeypatch):
    """Extraction reads history columns: no ingest or baseline poll builds a record."""
    truths = synthesize_truths(SMALL)
    warmup = synthesize_warmup(SMALL, truths)
    task = synthesize_tasks(SMALL)[0]
    worlds = (ServedWorld(SMALL, truths), DirectPollingBaseline(SMALL, truths))
    built = []
    init = PerformanceRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PerformanceRecord, "__init__", counting_init)
    for world in worlds:
        for record in warmup:
            world.ingest(record)
        world.select(task, warmup[-1].at)
    monkeypatch.undo()
    assert built == []
    assert [len(world.history) for world in worlds] == [len(warmup)] * 2


def test_tasks_respect_class_shapes():
    cfg = ScenarioConfig(seed=9, task_count=120)
    tasks = synthesize_tasks(cfg)
    assert len(tasks) == 120
    assert len({t.task_id for t in tasks}) == 120
    devices = {f"d{i:03d}" for i in range(cfg.device_count)}
    for t in tasks:
        cls = TASK_CLASSES[t.task_type]
        assert t.owner in devices
        assert cls.size_mb_low <= t.size_mb <= cls.size_mb_high
        assert (t.density_cpb, t.deadline_s) == (cls.density_cpb, cls.deadline_s)


NOW = 50_000
LOOSE = MatchConfig(staleness_s=1e9)


def _fleet():
    return {
        "d000": _truth("d000", reliability=0.95),
        "d001": _truth("d001", role=Role.UNRELIABLE, reliability=0.5),
        "d002": _truth("d002", reliability=0.9, bandwidth_mbps=0.01),  # cannot meet deadlines
    }


def test_accuracy_scores_valid_and_invalid_picks():
    fleet = _fleet()
    task = make_task(owner="d003")
    assert accuracy_of("d000", task, fleet, 0.8, LOOSE, NOW) is True
    assert accuracy_of("d001", task, fleet, 0.8, LOOSE, NOW) is False  # untrustworthy
    assert accuracy_of("d002", task, fleet, 0.8, LOOSE, NOW) is False  # infeasible


def test_accuracy_of_declining_depends_on_alternatives():
    fleet = _fleet()
    task = make_task(owner="d003")
    assert accuracy_of(None, task, fleet, 0.8, LOOSE, NOW) is False  # d000 was there
    del fleet["d000"]
    assert accuracy_of(None, task, fleet, 0.8, LOOSE, NOW) is None  # nothing valid


def test_accuracy_of_never_counts_the_owner_as_an_alternative():
    fleet = {"d000": _truth("d000", reliability=0.95)}
    task = make_task(owner="d000")
    assert accuracy_of(None, task, fleet, 0.8, LOOSE, NOW) is None


def test_run_rows_follow_analytic_cost_model():
    result = run_scenario(SMALL)
    n = SMALL.device_count
    assert len(result.rows) == 2 * SMALL.task_count
    for row in result.rows_for(METHOD_2TSD):
        assert row.collections == 0
        assert row.candidates_polled == 0
        assert row.eval_time_s == pytest.approx(2 * 0.05 + 0.2 + 1e-5 * n)
    for row in result.rows_for(METHOD_BASELINE):
        assert row.collections == n - 1
        assert row.candidates_polled == n - 1
        assert row.eval_time_s == pytest.approx((n - 1) * (2 * 0.05 + 5 * 0.002) + 0.2)


def test_summaries_recomputable_from_rows():
    result = run_scenario(SMALL)
    for method in (METHOD_2TSD, METHOD_BASELINE):
        rows = result.rows_for(method)
        expected = MethodSummary.from_rows(method, rows)
        assert result.summaries[method] == expected
        scored = [r for r in rows if r.correct is not None]
        assert expected.decided == len(scored)
        assert expected.correct == sum(1 for r in scored if r.correct)


def test_runs_are_reproducible_from_config():
    a = run_scenario(SMALL)
    b = run_scenario(SMALL)
    assert a.rows == b.rows
    assert a.truths == b.truths
    assert a.summaries == b.summaries
    c = run_scenario(replace(SMALL, seed=4))
    assert c.rows != a.rows


def test_disabling_ambient_rounds_shrinks_history():
    quiet = run_scenario(replace(SMALL, ambient_every_n_tasks=0))
    chatty = run_scenario(SMALL)
    warmup = SMALL.warmup_records * SMALL.device_count * len(SMALL.task_types)
    picks = sum(1 for r in quiet.rows_for(METHOD_2TSD) if r.selected is not None)
    assert len(quiet.teacher_memory.history) == warmup + picks
    assert len(chatty.teacher_memory.history) > len(quiet.teacher_memory.history)


@pytest.mark.parametrize("cost", [-1.0, -1e-9, math.inf, math.nan])
def test_latency_model_rejects_negative_or_non_finite_costs(cost):
    with pytest.raises(ConfigError) as info:
        LatencyModel(c_eng_s=cost)
    assert info.value.field == "c_eng_s"
    assert LatencyModel(c_eng_s=0.0).c_eng_s == 0.0


def test_scenario_config_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(device_count=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(task_count=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(unreliable_fraction=0.1, drifter_fraction=0.2)
    with pytest.raises(ConfigError):
        ScenarioConfig(task_types=("unknown_type",))
    with pytest.raises(ConfigError):
        ScenarioConfig(reliable_rate=1.5)


def test_csv_writers_are_deterministic(tmp_path):
    result = run_scenario(replace(SMALL, task_count=10))
    for name, write, payload in [
        ("tasks.csv", write_tasks_csv, result.rows),
        ("summary.csv", write_summary_csv, result.summaries),
    ]:
        first, second = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        write(first, payload)
        write(second, payload)
        assert first.read_bytes() == second.read_bytes()
    header = (tmp_path / "a_tasks.csv").read_text().splitlines()[0]
    assert header == "task_id,task_type,owner,method,selected,correct,eval_time_s,collections,candidates_polled,bundle_size"
