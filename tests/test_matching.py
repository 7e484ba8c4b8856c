"""Chain-of-trust matching against direct formula evaluation.

Oracle: t_tx = size_mb*8e6 / (bandwidth_mbps*1e6), t_cp = size_mb*8e6 *
density_cpb / cpu_cps, matched iff storage fits, report fresh, and
t_tx + t_cp <= deadline.
"""

from __future__ import annotations

import random

import pytest

from twotsd.matching import MatchConfig, Stage, evaluate_chain

from _builders import make_profile, make_task

CFG = MatchConfig(staleness_s=300.0)


def test_worked_example_matches():
    """50 MB / 1000 c/b / 50 s task on a 10 Gcps, 100 Mbps device: 4 s + 40 s."""
    task = make_task(size_mb=50.0, density_cpb=1000.0, deadline_s=50.0)
    profile = make_profile(cpu_cps=1e10, storage_mb=200.0, bandwidth_mbps=100.0)
    verdict = evaluate_chain(task, profile, now=1_000, cfg=CFG)
    assert verdict.matched
    t_tx = 50.0 * 8e6 / (100.0 * 1e6)
    t_cp = 50.0 * 8e6 * 1000.0 / 1e10
    assert t_tx == pytest.approx(4.0)
    assert t_cp == pytest.approx(40.0)
    assert verdict.failed_stage is None
    assert verdict.carry == pytest.approx(44.0)


def test_worked_example_single_core_cpu_misses_deadline():
    # The same task on a 2.91e9 c/s device: compute alone takes ~137 s.
    task = make_task(size_mb=50.0, density_cpb=1000.0, deadline_s=50.0)
    profile = make_profile(cpu_cps=2.91e9)
    verdict = evaluate_chain(task, profile, now=1_000, cfg=CFG)
    assert not verdict.matched
    assert verdict.failed_stage is Stage.DEADLINE
    assert verdict.carry == pytest.approx(4.0 + 50.0 * 8e6 * 1000.0 / 2.91e9)


def test_stale_report_short_circuits():
    profile = make_profile(updated_at=0)
    verdict = evaluate_chain(make_task(), profile, now=301_000, cfg=CFG)
    assert not verdict.matched
    assert verdict.failed_stage is Stage.FRESHNESS
    assert verdict.carry == 0.0  # nothing after the failure ran
    # exactly at the bound is still fresh
    assert evaluate_chain(make_task(), profile, now=300_000, cfg=CFG).matched


def test_storage_short_circuits_before_timing():
    profile = make_profile(storage_mb=49.0)
    verdict = evaluate_chain(make_task(size_mb=50.0), profile, now=1_000, cfg=CFG)
    assert verdict.failed_stage is Stage.STORAGE
    assert verdict.carry == 0.0  # no timing ran


def test_thousand_case_formula_oracle():
    """Random (task, profile) pairs: the chain agrees with direct formulas and
    the deadline carry equals t_tx + t_cp to within 1e-9 s."""
    rng = random.Random(20_260_815)
    for _ in range(1_000):
        task = make_task(
            size_mb=rng.uniform(0.1, 500.0),
            density_cpb=rng.uniform(1.0, 5_000.0),
            deadline_s=rng.uniform(0.5, 120.0),
        )
        profile = make_profile(
            cpu_cps=rng.uniform(1e9, 1e11),
            storage_mb=rng.uniform(0.0, 600.0),
            bandwidth_mbps=rng.uniform(1.0, 500.0),
            updated_at=rng.randrange(0, 10_000_000),
        )
        now = rng.randrange(0, 10_000_000)
        verdict = evaluate_chain(task, profile, now, CFG)

        fresh = (now - profile.updated_at) / 1000.0 <= CFG.staleness_s
        fits = profile.storage_mb >= task.size_mb
        t_tx = task.size_mb * 8e6 / (profile.bandwidth_mbps * 1e6)
        t_cp = task.size_mb * 8e6 * task.density_cpb / profile.cpu_cps
        expected = fresh and fits and (t_tx + t_cp <= task.deadline_s)
        assert verdict.matched == expected
        if fresh and fits:
            assert verdict.carry == pytest.approx(t_tx + t_cp, abs=1e-9)
