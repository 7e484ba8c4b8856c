"""Chain-of-trust matching against direct formula evaluation.

Oracle: t_tx = size_mb*8e6 / (bandwidth_mbps*1e6), t_cp = size_mb*8e6 *
density_cpb / cpu_cps, matched iff storage fits, report fresh, and
t_tx + t_cp <= deadline. The batch predicate ``feasible`` is checked
against ``evaluate_chain`` as its reference, on every bound exactly.
"""

from __future__ import annotations

import math
import random

import pytest

from twotsd.errors import ValidationError
from twotsd.matching import MatchConfig, MatchVerdict, Stage, evaluate_chain, feasible

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


@pytest.mark.parametrize(
    "value, message",
    [(True, "must be a number"), (False, "must be a number"), ("5", "must be a number"),
     (None, "must be a number"), ([300], "must be a number"), (0, "must be > 0"),
     (-1.0, "must be > 0"), (math.nan, "must be > 0")],
    ids=["true", "false", "string", "none", "list", "zero", "negative", "nan"],
)
def test_match_config_refuses_a_bound_that_is_not_a_positive_number(value, message):
    with pytest.raises(ValidationError, match=f"staleness_s {message}") as info:
        MatchConfig(staleness_s=value)
    assert info.value.field == "staleness_s"


@pytest.mark.parametrize("value", [1, 0.5, 300.0, math.inf])
def test_match_config_accepts_any_positive_bound(value):
    assert MatchConfig(staleness_s=value).staleness_s == value


def test_thousand_case_formula_oracle():
    """Random (task, profile) pairs: the chain agrees with direct formulas and
    the deadline carry equals t_tx + t_cp to within 1e-9 s. The batch
    predicate, one call per task over every pair's profile (and None),
    answers each as the chain's verdict does."""
    rng = random.Random(20_260_815)
    pairs = []
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
        assert type(verdict) is MatchVerdict

        fresh = (now - profile.updated_at) / 1000.0 <= CFG.staleness_s
        fits = profile.storage_mb >= task.size_mb
        t_tx = task.size_mb * 8e6 / (profile.bandwidth_mbps * 1e6)
        t_cp = task.size_mb * 8e6 * task.density_cpb / profile.cpu_cps
        expected = fresh and fits and (t_tx + t_cp <= task.deadline_s)
        assert verdict.matched == expected
        if fresh and fits:
            assert verdict.carry == pytest.approx(t_tx + t_cp, abs=1e-9)
        pairs.append((task, profile, now))

    profiles = [profile for _, profile, _ in pairs] + [None]
    for task, _, now in pairs[::100]:
        expected = [profile is not None and evaluate_chain(task, profile, now, CFG).matched for profile in profiles]
        assert feasible(task, profiles, now, CFG) == expected
    # The pairs themselves, the batch one profile at a time: each with its own task and now.
    assert [feasible(task, [profile], now, CFG)[0] for task, profile, now in pairs] == [
        evaluate_chain(task, profile, now, CFG).matched for task, profile, now in pairs]


def test_batch_predicate_agrees_with_the_chain_on_every_bound():
    """Each stage's bound exactly, and the float just below the carry, answered as ``evaluate_chain`` does.

    The deadline edge runs on 200 random profiles with the deadline set to
    each one's carry and to the float below it, so a compute term rounded
    another way than the chain's (``size_bits * (density / cpu)``) answers
    one of the two differently.
    """
    rng = random.Random(20_261_022)
    task = make_task(size_mb=50.0)
    fresh_edge = make_profile(updated_at=1_000)
    at_storage = make_profile(storage_mb=50.0, updated_at=301_000)
    below_storage = make_profile(storage_mb=math.nextafter(50.0, 0.0), updated_at=301_000)
    edges = [fresh_edge, at_storage, below_storage, None]
    got = feasible(task, edges, 301_000, CFG)
    assert got == [True, True, False, False]
    assert got[:3] == [evaluate_chain(task, profile, 301_000, CFG).matched for profile in edges[:3]]
    assert feasible(task, [fresh_edge], 301_001, CFG) == [False]
    assert feasible(task, [], 0, CFG) == []

    profiles = [
        make_profile(cpu_cps=rng.uniform(1e9, 1e11), bandwidth_mbps=rng.uniform(1.0, 500.0), storage_mb=600.0)
        for _ in range(200)
    ]
    for i, profile in enumerate(profiles):
        size_mb, density = rng.uniform(0.1, 500.0), rng.uniform(1.0, 5_000.0)
        carry = evaluate_chain(make_task(size_mb=size_mb, density_cpb=density, deadline_s=1e9),
                               profile, 1_000, CFG).carry
        for deadline in (carry, math.nextafter(carry, 0.0)):
            edge_task = make_task(size_mb=size_mb, density_cpb=density, deadline_s=deadline)
            expected = [evaluate_chain(edge_task, p, 1_000, CFG).matched for p in profiles]
            assert expected[i] is (deadline == carry)
            assert feasible(edge_task, profiles, 1_000, CFG) == expected
