"""CLI: config loading, overrides, output files, exit codes."""

from __future__ import annotations

import hashlib
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twotsd
from twotsd.cli import apply_override, load_scenario, main, parse_int_list, to_jsonable
from twotsd.domain import Trend
from twotsd.errors import ConfigError
from twotsd.simulation import ScenarioConfig
from twotsd.student import PolicyKind


def test_parse_int_list_forms():
    assert parse_int_list("10,20,40") == [10, 20, 40]
    assert parse_int_list("0-3") == [0, 1, 2, 3]
    assert parse_int_list("5, 7-9 ,12") == [5, 7, 8, 9, 12]
    for bad in ["", "a,b", "4-2", ","]:
        with pytest.raises(ConfigError):
            parse_int_list(bad)


def test_apply_override_builds_nested_paths():
    doc: dict = {}
    apply_override(doc, "seed=3")
    apply_override(doc, "latency.l_msg_s=0.1")
    apply_override(doc, "task_types=[video_transcoding]")
    assert doc == {
        "seed": 3,
        "latency": {"l_msg_s": 0.1},
        "task_types": ["video_transcoding"],
    }
    with pytest.raises(ConfigError):
        apply_override(doc, "no_equals_sign")
    with pytest.raises(ConfigError):
        apply_override(doc, "seed.inner=1")  # crosses the scalar at 'seed'


def test_load_scenario_file_overrides_and_seed(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "seed: 1\n"
        "device_count: 8\n"
        "task_count: 40\n"
        "latency:\n  l_msg_s: 0.07\n"
        "policy:\n  kind: first_match\n"
    )
    cfg = load_scenario(str(path), ["device_count=12"], seed=9)
    assert cfg.seed == 9  # --seed beats both file and override
    assert cfg.device_count == 12  # override beats file
    assert cfg.task_count == 40
    assert cfg.latency.l_msg_s == 0.07
    assert cfg.policy.kind is PolicyKind.FIRST_MATCH


def test_load_scenario_defaults_without_file():
    assert load_scenario(None, [], None) == ScenarioConfig()


def test_load_scenario_rejects_unknown_keys(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("devices: 8\n")  # misspelling of device_count
    with pytest.raises(ConfigError):
        load_scenario(str(path), [], None)
    with pytest.raises(ConfigError):
        load_scenario(None, ["latency.bogus_knob=1"], None)
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ConfigError):
        load_scenario(str(path), [], None)


def test_policy_section_parses_enums():
    cfg = load_scenario(
        None,
        ["policy.kind=trend_averse", "policy.adverse_map.loss_rate=increasing",
         "policy.adverse_map.throughput=decreasing", "policy.adverse_map.accuracy=decreasing",
         "policy.adverse_map.proc_speed=decreasing"],
        None,
    )
    assert cfg.policy.adverse_map["loss_rate"] is Trend.INCREASING


def test_to_jsonable_flattens_config():
    doc = to_jsonable(ScenarioConfig())
    assert doc["device_count"] == 10
    assert doc["policy"]["kind"] == "trend_averse"
    assert doc["trend"]["metric_floors"] == {"loss_rate": 0.05}
    json.dumps(doc)  # fully JSON-serializable


_FAST = [
    "--override", "device_count=6",
    "--override", "task_count=12",
    "--override", "warmup_records=10",
]


def test_simulate_writes_outputs_and_reruns_identically(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["simulate", "--out", str(out), "--seed", "5", *_FAST, "--snapshot"])
        assert code == 0
    stdout = capsys.readouterr().out
    assert "2tsd:" in stdout and "baseline:" in stdout
    for name in ["tasks.csv", "summary.csv", "manifest.json", "snapshot.json"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["format"] == "twotsd-run"
    assert manifest["seed"] == 5
    assert manifest["command"] == "simulate"
    lines = (out_a / "tasks.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 12  # header + two methods per task


def test_simulate_exit_code_2_on_bad_config(tmp_path):
    assert main(["simulate", "--out", str(tmp_path / "x"),
                 "--override", "device_count=1"]) == 2
    assert main(["simulate", "--out", str(tmp_path / "x"),
                 "--override", "not_a_key=1"]) == 2
    assert main(["simulate", "--out", str(tmp_path / "x"),
                 "--config", str(tmp_path / "missing.yaml")]) == 2
    assert not (tmp_path / "x").exists() or not any((tmp_path / "x").iterdir())


def test_simulate_remote_engine_requires_endpoint(tmp_path, monkeypatch):
    monkeypatch.delenv("TWOTSD_REMOTE_ENDPOINT", raising=False)
    code = main(["simulate", "--out", str(tmp_path / "x"), "--engine", "remote", *_FAST])
    assert code == 2


# sha256 of the CSVs of `twotsd compare --devices 4,6 --seeds 0-1` with the
# overrides in _FAST.
_COMPARE_FAST_SHA256 = {
    "evaluation_time.csv": "fc31c103937e1ff307099e549126b353861a53035398beadc0e8f27aad3a7e15",
    "data_collections.csv": "c94086f0e6124a095c623b44d85b571ff6b7abb034d9216d2bdaa303b1094614",
    "accuracy.csv": "6b800a0355612950e89b1cd53ecc2c4b2f9aa7cfb4222bac811ca4b4c799f039",
}


def test_compare_writes_sweep_csvs(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main([
        "compare", "--out", str(out), "--devices", "4,6", "--seeds", "0-1", *_FAST,
    ])
    assert code == 0
    evaluation = (out / "evaluation_time.csv").read_text().splitlines()
    assert evaluation[0] == "device_count,method,mean_eval_time_s"
    assert len(evaluation) == 1 + 2 * 2  # two sizes x two methods
    collections = (out / "data_collections.csv").read_text().splitlines()
    assert collections[0] == "device_count,method,tasks,total_collections"
    accuracy = (out / "accuracy.csv").read_text().splitlines()
    assert accuracy[0] == "seed,method,decided,accuracy"
    assert len(accuracy) == 1 + 2 * 2  # two seeds x two methods
    assert (out / "manifest.json").exists()
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in _COMPARE_FAST_SHA256
    }
    assert digests == _COMPARE_FAST_SHA256
    assert "mean accuracy over 2 seeds" in capsys.readouterr().out


def test_inspect_renders_snapshot(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *_FAST, "--snapshot"]) == 0
    capsys.readouterr()
    assert main(["inspect", "--snapshot", str(out / "snapshot.json")]) == 0
    text = capsys.readouterr().out
    assert "semantics_leaves=" in text
    assert "state=trusted" in text or "state=untrusted" in text
    assert "loss_rate=" in text


def test_inspect_missing_snapshot_is_usage_error(tmp_path, capsys):
    assert main(["inspect", "--snapshot", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_inspect_malformed_snapshot_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *_FAST, "--snapshot"]) == 0
    doc = json.loads((out / "snapshot.json").read_text())
    no_history = {k: v for k, v in doc.items() if k != "history"}
    records = doc["history"]["records"]
    repeated_id = [records[0], [records[0][0], records[1][1]], *records[2:]]
    duplicate_id = {**doc, "history": {**doc["history"], "records": repeated_id}}
    broken = tmp_path / "broken.json"
    capsys.readouterr()
    for bad in (no_history, duplicate_id):
        broken.write_text(json.dumps(bad))
        assert main(["inspect", "--snapshot", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed snapshot") and err.count("\n") == 1, err


# sha256 of the outputs of `twotsd simulate --config configs/<name> --snapshot`:
# default.yaml at seed 0 (10 devices), and large_fleet.yaml at its own seed
# (40 devices, 400 tasks, the strict_trends policy). A change to trend
# extraction, bundle assembly, selection or the output formats shows up here.
_PINNED_SIMULATE_SHA256 = {
    "default.yaml": (["--seed", "0"], {
        "tasks.csv": "55a6403891c411d693a7451145d6c92699d8ae3cf18c4364d8e553c044173f89",
        "summary.csv": "60b9dc63023e05f33fdd8b7a93a4dc2342887ffa4cadb45154c329d4f8d59da4",
        "snapshot.json": "02b910ba04717d3a615a5298014fcd234624d14ac4b1451a189ff7b91de5ad1f",
    }),
    "large_fleet.yaml": ([], {
        "tasks.csv": "d2de792a1b46046798bd53f6c1325a80349563e8c77500d46ce4ad9640e8a835",
        "summary.csv": "5c939b339180353db68ea6b49ff08c11b2e7f8e205e5eae4356541800b6bdae8",
        "snapshot.json": "b276227d5990b69e146ca3316228068396b2535b68b2193ba0e95d2e03f39ecf",
    }),
}


@pytest.mark.parametrize("config_name", sorted(_PINNED_SIMULATE_SHA256))
def test_simulate_default_config_outputs_are_pinned(tmp_path, capsys, config_name):
    extra, expected = _PINNED_SIMULATE_SHA256[config_name]
    config = Path(__file__).resolve().parent.parent / "configs" / config_name
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), *extra, "--out", str(out),
                 "--snapshot"]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in expected
    }
    assert digests == expected


def test_serve_announces_through_a_pipe_and_stops_cleanly_on_sigint():
    """Without -u the listening line still arrives, and SIGINT exits 0 quietly."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(twotsd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "twotsd.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        deadline = time.monotonic() + 30.0
        line = b""
        while not line.endswith(b"\n") and time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [], 0.1)
            if ready:
                chunk = os.read(proc.stdout.fileno(), 256)
                if not chunk:
                    break
                line += chunk
        assert line.startswith(b"listening on "), line
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=30.0)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0
    assert b"Traceback" not in stderr, stderr.decode(errors="replace")
