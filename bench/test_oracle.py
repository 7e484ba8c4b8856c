"""The oracle accepts the program's real outputs and rejects corrupted ones.

Run from the root of a checkout:  python3 -m pytest -q bench/test_oracle.py
"""

from __future__ import annotations

import copy
import csv
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from serving import bundle_summary  # noqa: E402
from twotsd import cli, student  # noqa: E402
from twotsd.matching import MatchConfig  # noqa: E402
from twotsd.semantics import DeterministicEngine, TrendConfig  # noqa: E402
from twotsd.teacher import TeacherAgent  # noqa: E402

STAMP = 1_700_000_000_000
SMALL = replace(workloads.WORKLOADS["request-wide"], name="small", devices=16, depth=30)
SIM_ARGS = ["--config", "configs/default.yaml", "--seed", "3",
            "--override", "device_count=6", "--override", "task_count=30"]


@pytest.fixture(scope="module")
def served():
    """A teacher warmed with a small fleet, its bundles, and the oracle's view."""
    _, profiles, histories = workloads.snapshot_inputs(SMALL, 5, STAMP)
    teacher = TeacherAgent(
        engine=DeterministicEngine(TrendConfig(metric_floors={"loss_rate": 0.05})),
        match_cfg=MatchConfig(staleness_s=workloads.STALENESS_S),
    )
    judge = oracle.BundleOracle(workloads.STALENESS_S)
    for p in profiles:
        teacher.handle_resource_report(workloads.to_profile(p))
        judge.profile(p)
    for records in histories.values():
        for r in records:
            teacher.handle_performance_record(workloads.to_record(r))
            judge.record(r)
    stream = workloads.OpStream(SMALL, 5, workloads.assign_roles(SMALL, 5), STAMP)
    now = STAMP + 1_000
    cases = []
    for k in range(40):
        task = stream.task(random.Random(k), f"t{k}")
        bundle = teacher.handle_task_request(workloads.to_task(task), now)
        reply = bundle_summary(bundle)
        reply.update(pick=student.decide(bundle), sent_ms=now, recv_ms=now)
        cases.append((task, reply))
    return judge, cases


def _rich_case(served):
    judge, cases = served
    task, reply = max(cases, key=lambda c: len(c[1]["candidates"]))
    assert len(reply["candidates"]) >= 3
    return judge, task, copy.deepcopy(reply)


def test_bundles_from_the_program_pass(served):
    judge, cases = served
    for task, reply in cases:
        assert judge.check_request(task, reply) == []
    assert any(r["candidates"] for _, r in cases)


def test_dropped_candidate_is_caught(served):
    judge, task, reply = _rich_case(served)
    reply["candidates"].pop(1)
    assert any("missing candidates" in e for e in judge.check_request(task, reply))


def test_extra_candidate_is_caught(served):
    judge, task, reply = _rich_case(served)
    present = {c[0] for c in reply["candidates"]}
    outsider = next(d for d in SMALL.device_ids() if d not in present and d != task[1])
    extra = (outsider,) + reply["candidates"][0][1:]
    reply["candidates"] = sorted(reply["candidates"] + [extra])
    assert any("unexpected candidates" in e for e in judge.check_request(task, reply))


def test_owner_in_bundle_is_caught(served):
    judge, task, reply = _rich_case(served)
    owner = (task[1],) + reply["candidates"][0][1:]
    reply["candidates"] = sorted(reply["candidates"] + [owner])
    assert any("unexpected candidates" in e for e in judge.check_request(task, reply))


def test_flipped_trend_label_is_caught(served):
    judge, task, reply = _rich_case(served)
    device, tt, state, trends, *rest = reply["candidates"][0]
    flipped = dict(trends)
    flipped["loss_rate"] = "increasing" if trends["loss_rate"] != "increasing" else "decreasing"
    reply["candidates"][0] = (device, tt, state, flipped, *rest)
    assert any("loss_rate" in e for e in judge.check_request(task, reply))


def test_wrong_window_is_caught(served):
    judge, task, reply = _rich_case(served)
    device, tt, state, trends, count, window, extracted_at, matched = reply["candidates"][0]
    reply["candidates"][0] = (device, tt, state, trends, count - 1, window, extracted_at, matched)
    assert any("window" in e for e in judge.check_request(task, reply))


def test_wrong_pick_is_caught(served):
    judge, task, reply = _rich_case(served)
    others = [c[0] for c in reply["candidates"] if c[0] != reply["pick"]]
    reply["pick"] = others[0]
    assert any("student picked" in e for e in judge.check_request(task, reply))


def test_stamp_outside_round_trip_is_caught(served):
    judge, task, reply = _rich_case(served)
    reply["generated_at"] = reply["recv_ms"] + 10 * 60 * 1000
    assert any("outside the round trip" in e for e in judge.check_request(task, reply))


def test_trend_labels_accept_either_side_of_a_knife_edge():
    values = [1.0 + 0.1 * i / 19 for i in range(20)]
    mean = sum(values) / 20
    s = 0.1 / mean  # normalized slope of this exact line
    assert oracle.trend_labels(values, s, 1e-6) == {"increasing", "normal"}
    assert oracle.trend_labels(values, 0.5, 1e-6) == {"normal"}


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    args = [a if a != "configs/default.yaml" else str(ROOT / a) for a in SIM_ARGS]
    assert cli.main(["simulate", *args, "--out", str(out)]) == 0
    return out, oracle.resolve_scenario(str(ROOT), SIM_ARGS)


def _edit(src: Path, dst: Path, name: str, change) -> None:
    """Copy a simulate output directory, applying ``change`` to the rows of one CSV."""
    dst.mkdir()
    for f in src.iterdir():
        (dst / f.name).write_bytes(f.read_bytes())
    with open(dst / name, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    rows = change(rows)
    with open(dst / name, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header)
        writer.writeheader()
        writer.writerows(rows)


def test_simulation_outputs_pass(simulated):
    out, scenario = simulated
    assert oracle.check_simulation(out, scenario) == []


@pytest.mark.parametrize("name,change,expect", [
    ("tasks.csv", lambda rows: rows[:-1], "rows, want one per task"),
    ("tasks.csv", lambda rows: [dict(r, collections="5") if r["method"] == "2tsd" else r
                                for r in rows], "collections"),
    ("tasks.csv", lambda rows: [dict(r, candidates_polled="2") if r["method"] == "baseline"
                                else r for r in rows], "polled"),
    ("tasks.csv", lambda rows: [dict(r, eval_time_s="0.25") if r["method"] == "2tsd" else r
                                for r in rows], "eval_time_s"),
    ("tasks.csv", lambda rows: [dict(r, selected=r["owner"]) if r["selected"] else r
                                for r in rows], "selected its own owner"),
    ("summary.csv", lambda rows: [dict(r, correct=str(int(r["correct"]) - 1)) for r in rows],
     "tasks.csv gives"),
    ("summary.csv", lambda rows: [dict(r, mean_eval_time_s="1.0") for r in rows],
     "mean_eval_time_s"),
])
def test_corrupted_simulation_outputs_are_caught(simulated, tmp_path, name, change, expect):
    out, scenario = simulated
    bad = tmp_path / "bad"
    _edit(out, bad, name, change)
    errors = oracle.check_simulation(bad, scenario)
    assert any(expect in e for e in errors), errors
