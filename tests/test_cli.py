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
from dataclasses import replace
from pathlib import Path

import pytest

import twotsd
from twotsd.cli import apply_override, load_scenario, main, parse_int_list
from twotsd.codec import canonical_json_bytes, to_jsonable
from twotsd.errors import ConfigError
from twotsd.simulation import ScenarioConfig

from _builders import frame_snapshot, split_snapshot


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
        "policy:\n  strict_trends: true\n"
    )
    cfg = load_scenario(str(path), ["device_count=12"], seed=9)
    assert cfg.seed == 9  # --seed beats both file and override
    assert cfg.device_count == 12  # override beats file
    assert cfg.task_count == 40
    assert cfg.latency.l_msg_s == 0.07
    assert cfg.policy.strict_trends is True


def test_load_scenario_defaults_without_file():
    assert load_scenario(None, [], None) == ScenarioConfig()


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_shipped_configs_load_and_default_yaml_is_the_defaults():
    # default.yaml says its values mirror the library defaults.
    assert load_scenario(str(_CONFIGS / "default.yaml"), [], None) == ScenarioConfig()
    assert load_scenario(str(_CONFIGS / "large_fleet.yaml"), [], None) != ScenarioConfig()


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


def test_sections_start_from_the_scenario_defaults(tmp_path):
    # A key a section leaves out keeps the scenario's value, not its class's.
    cfg = load_scenario(None, ["trend.n_min=6"], None)
    assert cfg.trend == replace(ScenarioConfig().trend, n_min=6)
    path = tmp_path / "scenario.yaml"
    path.write_text("match: {}\n")
    assert load_scenario(str(path), [], None).match.staleness_s == 1e9


def test_a_mapping_override_merges_over_the_scenario_mapping():
    # A key inside a mapping-valued field is set alone; the scenario's other keys stay.
    floors = load_scenario(None, ["trend.metric_floors.accuracy=0.1"], None).trend.metric_floors
    assert floors == {"loss_rate": 0.05, "accuracy": 0.1}
    floors = load_scenario(None, ["trend.metric_floors.loss_rate=0.2"], None).trend.metric_floors
    assert floors == {"loss_rate": 0.2}


def test_config_values_keep_their_parsed_type():
    # An int stands for a float unconverted, so the manifest echoes the config.
    cfg = load_scenario(None, ["match.staleness_s=300"], None)
    assert type(cfg.match.staleness_s) is int


def test_to_jsonable_flattens_config():
    doc = to_jsonable(ScenarioConfig())
    assert doc["device_count"] == 10
    assert doc["policy"] == {"strict_trends": False}
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
    for name in ["tasks.csv", "summary.csv", "manifest.json", "snapshot.bin"]:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["format"] == "twotsd-run"
    assert manifest["seed"] == 5
    assert manifest["command"] == "simulate"
    lines = (out_a / "tasks.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 12  # header + two methods per task


def test_simulate_exit_code_2_on_bad_config(tmp_path, capsys):
    assert main(["simulate", "--out", str(tmp_path / "x"),
                 "--override", "device_count=1"]) == 2
    assert main(["simulate", "--out", str(tmp_path / "x"),
                 "--override", "not_a_key=1"]) == 2
    assert main(["simulate", "--out", str(tmp_path / "x"),
                 "--config", str(tmp_path / "missing.yaml")]) == 2
    capsys.readouterr()
    for override in (
        "policy.adverse_map=5",  # removed policy keys
        "policy.kind=first_match",
        "policy.seed=4",
        "task_types=5",  # not a list
        "latency.l_msg_s=abc",
        "teacher_window_k=1.5",
        "warmup_records=2.5",
        "trend.metric_floors=5",
        "trend.metric_floors={loss_rate: abc}",
        "trend.metric_floors.los_rate=0.5",  # not a trend metric
        "seed=abc",
        "policy.strict_trends=maybe",
        "state.n_min=2.5",  # a float is not an int
        "seed=true",  # nor is a bool
        "reliable_rate=true",
        "task_types=[1]",
        "latency.c_eng_s=-1",  # range checks name the dotted key too
        "trend.abs_floor=0",
        "trend.rel_slope_threshold=.nan",
        "match.staleness_s=.nan",  # would make every profile stale
        "base_loss=-5",
        "base_loss=.nan",
        "drifter_base_loss=2",
        "drift_loss_per_record=-1",
        "drift_loss_per_record=.nan",
    ):
        assert main(["simulate", "--out", str(tmp_path / "x"), "--override", override]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert override.partition("=")[0] in err, err  # names the dotted key
    # A key under a removed one names the removed key.
    assert main(["simulate", "--out", str(tmp_path / "x"),
                 "--override", "policy.adverse_map.loss_rate=increasing"]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad policy section: unknown config key 'policy.adverse_map'\n", err
    removed = tmp_path / "removed.yaml"  # a match key that no longer exists
    removed.write_text("match:\n  staleness_s: 300.0\n  include_result_return: false\n")
    capsys.readouterr()
    assert main(["simulate", "--out", str(tmp_path / "x"), "--config", str(removed)]) == 2
    assert "bad match section" in capsys.readouterr().err
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
    assert main(["inspect", "--snapshot", str(out / "snapshot.bin")]) == 0
    text = capsys.readouterr().out
    assert text.startswith("version=8 resources=6 history=")
    assert "semantics_leaves=" in text.splitlines()[0]
    assert "state=trusted" in text or "state=untrusted" in text
    # One whole leaf line: the trends print in row order, whichever way they point.
    lines = text.splitlines()
    assert lines[1] == "task_type=face_recognition devices=6"
    assert lines[4] == ("  d002 state=untrusted n=14 window=1000..19900 "
                        "throughput=decreasing loss_rate=increasing accuracy=normal proc_speed=decreasing")


def test_inspect_missing_snapshot_is_usage_error(tmp_path, capsys):
    assert main(["inspect", "--snapshot", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


FIXTURES = Path(__file__).parent / "fixtures"


def _malformed_v8(header, body):
    """No history, a repeated profile or leaf, a state code past TrustState's, and the last leaf block
    cut short, each as file bytes."""
    no_history = {k: v for k, v in header.items() if k != "history"}
    profiles = header["resources"]["profiles"]
    repeated_profile = [profiles[0], {**profiles[1], "device": profiles[0]["device"]}]
    duplicate_profile = {**header, "resources": {"profiles": repeated_profile + profiles[2:]}}
    (task_type, devices), *others = header["tree"]["task_types"]
    repeated_leaf = [[task_type, [devices[0], devices[0], *devices[2:]]], *others]
    duplicate_leaf = {**header, "tree": {"task_types": repeated_leaf}}
    leaves = 38 * sum(len(devices) for _, devices in header["tree"]["task_types"])  # the blocks end the file
    bad_state = bytearray(body)
    bad_state[len(body) - leaves] = 3  # the first leaf's state code
    return [frame_snapshot(canonical_json_bytes(no_history), body),
            frame_snapshot(canonical_json_bytes(duplicate_profile), body),
            frame_snapshot(canonical_json_bytes(duplicate_leaf), body),
            frame_snapshot(canonical_json_bytes(header), bytes(bad_state)),
            frame_snapshot(canonical_json_bytes(header), body[:-1])]


def test_inspect_malformed_snapshot_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *_FAST, "--snapshot"]) == 0
    header, body = split_snapshot((out / "snapshot.bin").read_bytes())
    assert header["version"] == 8
    broken = tmp_path / "broken.bin"
    capsys.readouterr()
    for bad in _malformed_v8(header, body):
        broken.write_bytes(bad)
        assert main(["inspect", "--snapshot", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed snapshot") and err.count("\n") == 1, err


def test_inspect_refuses_a_snapshot_holding_a_huge_number(tmp_path, capsys):
    """A profile number no float or int64 can hold, or an int too long to parse, exits 2 with one line."""
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *_FAST, "--snapshot"]) == 0
    header, body = split_snapshot((out / "snapshot.bin").read_bytes())
    profile = header["resources"]["profiles"][0]
    huge = 10**400
    broken = tmp_path / "broken.bin"
    capsys.readouterr()
    for key, expected in (("cpu_cps", "malformed"), ("updated_at", "malformed"),
                          ("storage_mb", "unreadable")):
        was, profile[key] = profile[key], huge
        text = json.dumps(header).encode()
        profile[key] = was
        if expected == "unreadable":
            text = text.replace(str(huge).encode(), b"9" * 5_000)
        broken.write_bytes(frame_snapshot(text, body))
        assert main(["inspect", "--snapshot", str(broken)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("\n") == 1, err
        assert err.startswith(f"error: {expected} snapshot"), err


@pytest.mark.parametrize("version", [1, 2, 6, 7])
def test_inspect_and_serve_refuse_an_older_snapshot(capsys, version):
    """Both exit 2 with one error line that names the version and how to rebuild the file.

    v1, v2 and v6 are JSON documents; v7 is the binary file whose leaves were JSON rows.
    """
    (path,) = FIXTURES.glob(f"snapshot_v{version}.*")
    for command in (["inspect"], ["serve", "--port", "0"]):
        assert main([*command, "--snapshot", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"error: unsupported snapshot version {version};"), err
        assert "twotsd simulate --snapshot" in err


def test_serve_refuses_a_port_out_of_range(capsys):
    """Exit 2 with one error line, before the snapshot is read or a socket bound."""
    for port in ("70000", "-1"):
        assert main(["serve", "--port", port]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --port must be in 0..65535, got {port}\n", err


def test_serve_refuses_a_remote_timeout_out_of_range(capsys):
    """A NaN, infinite or non-positive --remote-timeout exits 2 before a socket is bound."""
    for timeout in ("nan", "inf", "1e300", "0"):
        argv = ["serve", "--port", "0", "--engine", "remote",
                "--remote-endpoint", "http://127.0.0.1:9", "--remote-timeout", timeout]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "", out
        assert err.startswith("error: timeout_s must be in (0, ") and err.count("\n") == 1, err


def test_serve_refuses_a_v1_leaf_off_its_device_node(tmp_path, capsys):
    """A v1 file whose leaf payload leaves its device node stops serve before it binds."""
    doc = json.loads((FIXTURES / "snapshot_v1.json").read_text())
    leaf = next(n for n in doc["tree"]["nodes"] if n["kind"] == "semantics")
    leaf["payload"]["device"] = "zz_not_in_fleet"
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["serve", "--port", "0", "--snapshot", str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unsupported snapshot version 1;"), err


# sha256 of the outputs of `twotsd simulate --config configs/<name> --snapshot`:
# default.yaml at seed 0 (10 devices), and large_fleet.yaml at its own seed
# (40 devices, 400 tasks, the strict_trends policy). A change to trend
# extraction, bundle assembly, selection or the output formats shows up here.
# Each entry: config file, extra arguments, and the digests of what simulate writes.
# The deep warm-up is the benchmark's ingest-deep simulate run: 300 records per
# pair before the first task, where the served world's batch ingest acts most.
_PINNED_SIMULATE_SHA256 = {
    "default.yaml": ("default.yaml", ["--seed", "0"], {
        "tasks.csv": "55a6403891c411d693a7451145d6c92699d8ae3cf18c4364d8e553c044173f89",
        "summary.csv": "60b9dc63023e05f33fdd8b7a93a4dc2342887ffa4cadb45154c329d4f8d59da4",
        "snapshot.bin": "84a735c338f2cb835cbe0d847c6bd1c3ed97e394d25d1714e73abe9143bf6aba",
    }),
    "large_fleet.yaml": ("large_fleet.yaml", [], {
        "tasks.csv": "d2de792a1b46046798bd53f6c1325a80349563e8c77500d46ce4ad9640e8a835",
        "summary.csv": "5c939b339180353db68ea6b49ff08c11b2e7f8e205e5eae4356541800b6bdae8",
        "snapshot.bin": "2e597a322ec1fa94b54aa4fc28bc36691f69750fea75b8d71b44807b8c65e22f",
    }),
    "default.yaml-deep-warmup": ("default.yaml", [
        "--seed", "0", "--override", "warmup_records=300", "--override", "task_count=100",
    ], {
        "tasks.csv": "504cd6e244d1eac16e59c58a28e2b8fad39fcbcea02b02088f611617f85bcae9",
        "summary.csv": "2fe5ed34fac07ec9e703d3074bc9b238ac66be6ca2ba631cd9c3df64fb7c051c",
        "snapshot.bin": "08a9a640f10f7d25319becdb77281de1b3648c5d677b9378fa4b0899b20f8f35",
    }),
}


@pytest.mark.parametrize("pin", sorted(_PINNED_SIMULATE_SHA256))
def test_simulate_default_config_outputs_are_pinned(tmp_path, capsys, pin):
    config_name, extra, expected = _PINNED_SIMULATE_SHA256[pin]
    config = Path(__file__).resolve().parent.parent / "configs" / config_name
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(config), *extra, "--out", str(out),
                 "--snapshot"]) == 0
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in expected
    }
    assert digests == expected


@pytest.mark.parametrize("disposition", [signal.SIG_DFL, signal.SIG_IGN], ids=["default", "ignored"])
def test_serve_announces_through_a_pipe_and_stops_cleanly_on_sigint(disposition):
    """Without -u the listening line still arrives, and SIGINT exits 0 quietly.

    Also when started with SIGINT ignored, as a shell starts a background job.
    """
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(Path(twotsd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "twotsd.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, disposition),
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


def test_inspect_into_a_closed_pipe_exits_141_quietly(tmp_path):
    """A reader that stops early (`twotsd inspect | head -1`) ends inspect as SIGPIPE would."""
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), *_FAST, "--snapshot"]) == 0
    env = dict(os.environ)
    src = str(Path(twotsd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # before the child starts, so its first write fails
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "twotsd.cli", "inspect", "--snapshot", str(out / "snapshot.bin")],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
