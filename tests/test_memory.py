"""Stores: history queries vs brute force, tree shape, snapshot round-trips."""

from __future__ import annotations

import base64
import gc
import itertools
import json
import math
import os
import random
import stat
import struct
import tempfile
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotsd import codec
from twotsd.domain import RecordWindow, TrustSemantics, Verdict
from twotsd.errors import StaleUpdateError, ValidationError
from twotsd.memory import (
    HISTORY_COLUMNS,
    SNAPSHOT_VERSION,
    HistoryQuery,
    HistoryStore,
    MemoryModule,
    ResourceStore,
    SemanticsTree,
)
from twotsd.semantics import StateConfig, TrendConfig, extract_semantics

from _builders import make_profile, make_record, make_semantics


def test_resource_store_keeps_newest_and_rejects_stale():
    store = ResourceStore()
    store.upsert(make_profile(device="a_k", updated_at=5_000))
    store.upsert(make_profile(device="a_k", updated_at=9_000, storage_mb=50.0))
    assert store.get("a_k").storage_mb == 50.0
    with pytest.raises(StaleUpdateError):
        store.upsert(make_profile(device="a_k", updated_at=8_000))
    # same-timestamp replay is accepted (idempotent re-report)
    store.upsert(make_profile(device="a_k", updated_at=9_000, storage_mb=60.0))
    assert store.get("a_k").storage_mb == 60.0


def test_history_query_validates_exactly_one_selector():
    with pytest.raises(ValidationError):
        HistoryQuery("a_j", "video_transcoding")
    with pytest.raises(ValidationError):
        HistoryQuery("a_j", "video_transcoding", last_k=3, interval=(0, 10))
    HistoryQuery("a_j", "video_transcoding", last_k=3)
    HistoryQuery("a_j", "video_transcoding", interval=(0, 10))


@pytest.mark.parametrize("window, field", [
    ({"last_k": True}, "last_k"),
    ({"last_k": 2.0}, "last_k"),
    ({"last_k": "3"}, "last_k"),
    ({"last_k": 0}, "last_k"),
    ({"interval": (1.5, "x")}, "interval"),
    ({"interval": (0, 10.0)}, "interval"),
    ({"interval": (False, 10)}, "interval"),
    ({"interval": (0, 2**63)}, "interval"),
    ({"interval": (-(2**63) - 1, 0)}, "interval"),
    ({"interval": (0,)}, "interval"),
    ({"interval": [0, 10]}, "interval"),
    ({"interval": (10, 0)}, "interval"),
], ids=repr)
def test_history_query_refuses_a_window_of_the_wrong_type_naming_its_field(window, field):
    """A bool or float last_k, or a bound that is not a 64-bit int timestamp, is a ValidationError."""
    with pytest.raises(ValidationError) as err:
        HistoryQuery("a_j", "video_transcoding", **window)
    assert err.value.field == field


def _random_records(rng: random.Random, n: int):
    devices = ["a_j", "a_k", "a_l"]
    types = ["face_recognition", "video_transcoding"]
    out = []
    for _ in range(n):
        collaborator = rng.choice(devices)
        out.append(
            make_record(
                owner="o_" + collaborator,
                collaborator=collaborator,
                task_type=rng.choice(types),
                at=rng.randrange(0, 5_000),
            )
        )
    return out


def brute_force_query(records, q: HistoryQuery):
    """The records of ``q``'s pair in (timestamp, arrival) order, then windowed."""
    hits = [
        (r.at, i, r)
        for i, r in enumerate(records)
        if r.collaborator == q.collaborator and r.task_type == q.task_type
    ]
    hits.sort(key=lambda hit: hit[:2])
    if q.interval is not None:
        lo, hi = q.interval
        hits = [hit for hit in hits if lo <= hit[0] <= hi]
    elif q.last_k:
        hits = hits[-q.last_k:]
    return [r for _, _, r in hits]


def test_query_equals_brute_force_on_random_logs():
    """1000 random queries against a naive reference implementation."""
    rng = random.Random(8_154)
    store = HistoryStore()
    mirror = []
    for rec in _random_records(rng, 400):
        store.append(rec)
        mirror.append(rec)
    for _ in range(1_000):
        q = HistoryQuery(
            collaborator=rng.choice(["a_j", "a_k", "a_l", "a_missing"]),
            task_type=rng.choice(["face_recognition", "video_transcoding"]),
            **(
                {"last_k": rng.randrange(1, 30)}
                if rng.random() < 0.5
                else {"interval": tuple(sorted((rng.randrange(0, 5_000), rng.randrange(0, 5_000))))}
            ),
        )
        assert list(store.query(q)) == brute_force_query(mirror, q)


def test_concurrent_append_query_prune_stress():
    """Six threads for about a second: nothing raises, results stay ordered, nothing is lost."""
    store = HistoryStore()
    ids = itertools.count(1)
    appended: list[int] = []
    errors: list[BaseException] = []
    deadline = time.monotonic() + 1.0

    def run(fn):
        def loop():
            rng = random.Random(threading.get_ident())
            try:
                while time.monotonic() < deadline:
                    fn(rng)
            except Exception as exc:
                errors.append(exc)
        return loop

    def append(rng):
        rid = next(ids)
        at = rid // 8 + rng.randrange(0, 50)  # drifting clock with some lateness
        store.append(make_record(at=at, throughput_mbps=float(rid)))  # tagged by its id
        appended.append(rid)

    def query(rng):
        if rng.random() < 0.5:
            q = HistoryQuery("a_j", "video_transcoding", last_k=rng.randrange(1, 40))
        else:
            lo = rng.randrange(0, 5_000)
            q = HistoryQuery("a_j", "video_transcoding", interval=(lo, lo + 500))
        ats = [r.at for r in store.query(q)]
        assert ats == sorted(ats)

    threads = [threading.Thread(target=run(fn)) for fn in [append] * 3 + [query] * 3]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so interleavings vary
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    remaining = store.query(HistoryQuery("a_j", "video_transcoding", last_k=len(store) + 1))
    assert len(remaining) == len(store) == len(appended) > 0
    assert sorted(int(r.throughput_mbps) for r in remaining) == sorted(appended)
    ats = [r.at for r in remaining]
    assert ats == sorted(ats)


def _semantics(device: str, task_type: str, n: int = 7) -> TrustSemantics:
    return make_semantics(device=device, task_type=task_type, window=(1_000, 1_000 * n),
                          extracted_at=1_000 * n, record_count=n)


def test_tree_shape_after_upserts():
    tree = SemanticsTree()
    tree.upsert(_semantics("a_j", "video_transcoding"))
    tree.upsert(_semantics("a_k", "video_transcoding"))
    tree.upsert(_semantics("a_j", "face_recognition"))

    # 1 root + 2 task types + 3 device nodes + 3 leaves
    assert tree.node_count() == 9
    assert tree.leaf_count() == 3
    assert tree.task_types() == ["face_recognition", "video_transcoding"]
    assert tree.devices_for("video_transcoding") == ["a_j", "a_k"]

    # The snapshot holds only the leaves, as wire rows sorted by (task type, device).
    leaves = tree.to_dict()["leaves"]
    assert [(row[1], row[0]) for row in leaves] == [
        ("face_recognition", "a_j"), ("video_transcoding", "a_j"), ("video_transcoding", "a_k"),
    ]


def test_tree_upsert_replaces_leaf_in_place():
    tree = SemanticsTree()
    tree.upsert(_semantics("a_j", "video_transcoding", n=5))
    before = tree.node_count()
    tree.upsert(_semantics("a_j", "video_transcoding", n=9))
    assert tree.node_count() == before  # no structural growth
    (only,) = tree.get_by_task_type("video_transcoding")
    assert only.record_count == 9


def test_tree_children_sorted_regardless_of_insert_order():
    tree = SemanticsTree()
    for device in ["a_z", "a_a", "a_m"]:
        tree.upsert(_semantics(device, "video_transcoding"))
    assert tree.devices_for("video_transcoding") == ["a_a", "a_m", "a_z"]
    assert [ts.device for ts in tree.get_by_task_type("video_transcoding")] == [
        "a_a", "a_m", "a_z",
    ]


def test_tree_round_trip_preserves_ids_and_payloads():
    tree = SemanticsTree()
    rng = random.Random(4)
    for _ in range(50):
        tree.upsert(_semantics(f"d{rng.randrange(6)}", rng.choice(["tt_a", "tt_b"]), n=rng.randrange(5, 30)))
    again = SemanticsTree.from_dict(tree.to_dict())
    assert again.to_dict() == tree.to_dict()
    assert again.node_count() == tree.node_count()


def test_memory_snapshot_round_trip(tmp_path):
    memory = MemoryModule()
    memory.resources.upsert(make_profile(device="a_k"))
    for i in range(8):
        memory.history.append(make_record(at=1_000 * (i + 1)))
    memory.semantics.upsert(_semantics("a_j", "video_transcoding"))
    path = tmp_path / "snapshot.json"
    memory.save(path)
    again = MemoryModule.load(path)
    assert again == memory
    # byte-identical re-save
    again.save(tmp_path / "snapshot2.json")
    assert (tmp_path / "snapshot.json").read_bytes() == (tmp_path / "snapshot2.json").read_bytes()


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_failed_save_leaves_the_previous_snapshot_intact(tmp_path, monkeypatch, step):
    path = tmp_path / "snapshot.json"
    memory = MemoryModule()
    memory.history.append(make_record())
    memory.save(path)
    before = path.read_bytes()

    def fail(*args):
        raise OSError(f"{step} failed")

    memory.history.append(make_record(at=2_000))
    monkeypatch.setattr(os, step, fail)
    with pytest.raises(OSError, match=f"{step} failed"):
        memory.save(path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]
    memory.save(path)
    assert MemoryModule.load(path) == memory
    assert [p.name for p in tmp_path.iterdir()] == ["snapshot.json"]


@pytest.mark.skipif(not hasattr(os, "O_DIRECTORY"), reason="directories cannot be opened here")
def test_save_fsyncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """The rename is durable once save returns: the target's directory is fsynced after it."""
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", stat.S_ISDIR(st.st_mode), st.st_ino))
        real_fsync(fd)

    def replace(src, dst):
        events.append(("replace",))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    memory = MemoryModule()
    memory.history.append(make_record())
    memory.save(tmp_path / "snapshot.json")
    directory = os.stat(tmp_path).st_ino
    assert [e[0] for e in events] == ["fsync", "replace", "fsync"]
    assert events[0][1] is False and events[2] == ("fsync", True, directory)


def test_snapshot_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValidationError):
        MemoryModule.load(path)
    path.write_text("not json at all")
    with pytest.raises(ValidationError):
        MemoryModule.load(path)
    doc = MemoryModule().to_snapshot_dict()
    for version in (3, 4, 5, "6", 6.0, True, None):
        path.write_bytes(codec.canonical_json_bytes({**doc, "version": version}))
        with pytest.raises(ValidationError, match=f"unsupported snapshot version {version!r};"):
            MemoryModule.load(path)


@pytest.mark.parametrize("section", ["resources", "history", "tree"])
def test_snapshot_load_turns_missing_sections_into_validation_errors(tmp_path, section):
    memory = MemoryModule()
    memory.history.append(make_record())
    doc = memory.to_snapshot_dict()
    path = tmp_path / "snapshot.json"
    for broken in ({k: v for k, v in doc.items() if k != section}, {**doc, section: []}):
        path.write_bytes(codec.canonical_json_bytes(broken))
        with pytest.raises(ValidationError, match="malformed snapshot"):
            MemoryModule.load(path)


def _list_profile_twice(doc):
    first, second = doc["resources"]["profiles"]
    second["device"] = first["device"]


def _list_leaf_twice(doc):
    first, second = doc["tree"]["leaves"]
    second[:2] = first[:2]


@pytest.mark.parametrize("fault", [_list_profile_twice, _list_leaf_twice], ids=["profile", "leaf"])
def test_snapshot_load_rejects_an_entry_listed_twice(tmp_path, fault):
    """A repeated device profile or (task type, device) leaf would silently shrink the store."""
    memory = MemoryModule()
    memory.resources.upsert(make_profile(device="a_j"))
    memory.resources.upsert(make_profile(device="a_k"))
    memory.semantics.upsert(_semantics("a_j", "video_transcoding"))
    memory.semantics.upsert(_semantics("a_k", "face_recognition"))
    doc = memory.to_snapshot_dict()
    fault(doc)
    path = tmp_path / "snapshot.json"
    path.write_bytes(codec.canonical_json_bytes(doc))
    with pytest.raises(ValidationError, match="malformed snapshot.*listed twice"):
        MemoryModule.load(path)


# The snapshot reader on hand-written v6 files. A pair entry is written here
# with plain lists for its record columns, which _pack_entry packs as the
# format stores them; a record column that is not a list (a tuple is written
# as a JSON list) passes through unpacked, and so does anything past the
# pair's last column. The test ids
# keep the names they had under the JSON-number formats: "-1" and "-2" name
# the record that is corrupted, the first or the one after a valid one, and a
# case once written as a JSON value is now that value packed, or (bool-at,
# float-at) that value in place of the packed column.

_CODES = dict(zip(HISTORY_COLUMNS[3:], "qddddB"))


def _packed(code: str, values) -> str:
    """Values packed little-endian and base64-encoded, independently of the module's writer."""
    return base64.b64encode(struct.pack(f"<{len(values)}{code}", *values)).decode("ascii")


def _pack_entry(entry):
    return [_packed(_CODES[name], column) if name in _CODES and type(column) is list else column
            for name, column in zip(HISTORY_COLUMNS + (None,) * len(entry), entry)]


def _write_doc(path: Path, version, pairs) -> None:
    doc = {"format": "twotsd-snapshot", "version": version, "resources": {"profiles": []},
           "history": {"pairs": pairs}, "tree": {"leaves": []}}
    path.write_text(json.dumps(doc))


def _write_pairs(path: Path, pairs) -> None:
    _write_doc(path, SNAPSHOT_VERSION, [_pack_entry(entry) for entry in pairs])


def _history():
    """Two one-record pairs, unpacked."""
    return [["a_j", "video_transcoding", ["a_i"], [1_000], [100.0], [0.01], [2.0], [0.98], [1]],
            ["a_k", "video_transcoding", ["a_i"], [2_000], [100.0], [0.01], [2.0], [0.98], [1]]]


def _set(name, value):
    def fault(entry):
        entry[HISTORY_COLUMNS.index(name)] = value
    return fault


def _drop_column(entry):
    del entry[HISTORY_COLUMNS.index("accuracy")]


def _add_column(entry):
    entry.append("surplus")


def _self_collaboration(entry):
    entry[HISTORY_COLUMNS.index("owners")] = [entry[0]]


_CORRUPTIONS = {
    "missing-column": (_drop_column, "pairs"),
    "extra-column": (_add_column, "pairs"),
    "bool-at": (_set("at", True), "at"),
    "float-at": (_set("at", 1_000.0), "at"),
    "negative-throughput": (_set("throughput_mbps", [-1.0]), "throughput_mbps"),
    "nan-throughput": (_set("throughput_mbps", [math.nan]), "throughput_mbps"),
    "loss-rate-150%": (_set("loss_rate", [1.5]), "loss_rate"),
    "unknown-verdict": (_set("satisfied", [2]), "satisfied"),
    "self-collaboration": (_self_collaboration, "collaborator"),
}


@pytest.mark.parametrize("row", [1, 2])
@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_both_readers_reject_each_corrupt_record(tmp_path, row, corruption):
    path = tmp_path / "snapshot.json"
    history = _history()
    _write_pairs(path, history)
    assert len(MemoryModule.load(path).history) == 2  # the uncorrupted file loads
    corrupt, field = _CORRUPTIONS[corruption]
    corrupt(history[row - 1])
    _write_pairs(path, history)
    with pytest.raises(ValidationError, match="malformed snapshot") as err:
        MemoryModule.load(path)
    assert err.value.field == field
    if corruption.endswith("-column"):
        assert "not a list of 9 columns" in err.value.message


def _three_records_pair():
    """A valid pair entry of three records, unpacked."""
    return ["a_j", "video_transcoding", ["a_i", "a_k", "a_i"], [1_000, 1_000, 2_000],
            [1.0, 2.0, 3.0], [0.0, 0.5, 1.0], [2.0, 2.0, 2.0], [0.9, 0.9, 0.9], [1, 0, 1]]


def _column(name, value):
    def fault(pairs):
        pairs[0][HISTORY_COLUMNS.index(name)] = value
    return fault


_MALFORMED_PAIRS = {
    "ragged-owners": (_column("owners", ["a_i", "a_k"]), "at"),
    "ragged-at": (_column("at", [1_000, 1_000]), "at"),
    "ragged-accuracy": (_column("accuracy", [0.9, 0.9, 0.9, 0.9]), "accuracy"),
    "ragged-satisfied": (_column("satisfied", [1]), "satisfied"),
    "empty-at": (_column("at", ""), "at"),
    "no-records": (_column("owners", []), "owners"),
    "at-not-a-string": (_column("at", (1_000, 1_000, 2_000)), "at"),  # a JSON list, unpacked
    "loss-rate-bad-base64": (_column("loss_rate", "AAAA*AAA"), "loss_rate"),
    "loss-rate-not-ascii": (_column("loss_rate", "AAAAé==="), "loss_rate"),
    "proc-speed-part-of-an-item": (
        _column("proc_speed_mbps", base64.b64encode(bytes(23)).decode()), "proc_speed_mbps"),
    "satisfied-not-a-bool": (_column("satisfied", [1, 2, 1]), "satisfied"),
    "satisfied-a-label": (_column("satisfied", "satisfied"), "satisfied"),
    "pair-listed-twice": (lambda pairs: pairs.append(_three_records_pair()), "pairs"),
    "owner-is-collaborator": (_column("owners", ["a_i", "a_j", "a_i"]), "collaborator"),
    "owner-empty": (_column("owners", ["a_i", "", "a_i"]), "owner"),
    "owner-not-a-string": (_column("owners", ["a_i", "a_k", 7]), "owner"),
    "at-decreasing": (_column("at", [1_000, 3_000, 2_000]), "at"),
    "collaborator-empty": (_column("collaborator", ""), "collaborator"),
    "throughput-huge": (_column("throughput_mbps", [1.0, math.inf, 3.0]), "throughput_mbps"),
    "loss-rate-huge": (_column("loss_rate", [0.0, 1e300, 1.0]), "loss_rate"),
    "accuracy-nan": (_column("accuracy", [0.9, math.nan, 0.9]), "accuracy"),
    "proc-speed-negative": (_column("proc_speed_mbps", [2.0, -0.0001, 2.0]), "proc_speed_mbps"),
}


@pytest.mark.parametrize("fault", sorted(_MALFORMED_PAIRS))
def test_v4_loader_refuses_each_malformed_history_naming_the_field(tmp_path, fault):
    path = tmp_path / "snapshot.json"
    pairs = [_three_records_pair()]
    _write_pairs(path, pairs)
    assert len(MemoryModule.load(path).history) == 3  # the unbroken file loads
    corrupt, field = _MALFORMED_PAIRS[fault]
    corrupt(pairs)
    _write_pairs(path, pairs)
    with pytest.raises(ValidationError, match="malformed snapshot") as err:
        MemoryModule.load(path)
    assert err.value.field == field
    if fault == "owner-is-collaborator":
        assert "owner and collaborator must differ" in err.value.message
        assert err.value.code == "self_collaboration"  # the record's code survives the rewrap


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("version", [1, 2])
def test_load_refuses_an_older_snapshot_with_the_rebuild_hint(version):
    """A v1 or v2 file is refused by its version; it is rebuilt, not migrated."""
    path = FIXTURES / f"snapshot_v{version}.json"
    assert json.loads(path.read_text())["version"] == version
    with pytest.raises(ValidationError, match=f"unsupported snapshot version {version};") as err:
        MemoryModule.load(path)
    assert "rebuild the file with `twotsd simulate --snapshot`" in err.value.message


def test_load_refuses_a_v3_snapshot_with_the_rebuild_hint(tmp_path):
    """A v3 file, its history one row per record, is refused by its version too."""
    path = tmp_path / "snapshot.json"
    row = ["a_i", "a_j", "video_transcoding", 1000, 100.0, 0.01, 2.0, 0.98, "satisfied", {}]
    path.write_text(json.dumps({"format": "twotsd-snapshot", "version": 3,
                                "resources": {"profiles": []}, "history": {"rows": [row]},
                                "tree": {"leaves": []}}))
    with pytest.raises(ValidationError, match="unsupported snapshot version 3;") as err:
        MemoryModule.load(path)
    assert "rebuild the file with `twotsd simulate --snapshot`" in err.value.message


_V5_PAIR = ["a_j", "video_transcoding", ["a_i", "a_k"], [1_000, 2_000], [1.0, 2.0], [0.0, 0.5],
            [2.0, 2.0], [0.9, 0.9], [True, False]]


def test_load_refuses_a_v4_snapshot_with_the_rebuild_hint(tmp_path):
    """A v4 file, each pair with a tenth column of sparse extras, is refused by its version too."""
    path = tmp_path / "snapshot.json"
    _write_doc(path, 4, [[*_V5_PAIR, [[1, {"site": "lab"}]]]])
    with pytest.raises(ValidationError, match="unsupported snapshot version 4;") as err:
        MemoryModule.load(path)
    assert "rebuild the file with `twotsd simulate --snapshot`" in err.value.message


def test_load_refuses_a_v5_snapshot_with_the_rebuild_hint(tmp_path):
    """A v5 file, its record columns JSON lists, is refused by its version too."""
    path = tmp_path / "snapshot.json"
    _write_doc(path, 5, [_V5_PAIR])
    with pytest.raises(ValidationError, match="unsupported snapshot version 5;") as err:
        MemoryModule.load(path)
    assert "rebuild the file with `twotsd simulate --snapshot`" in err.value.message


def test_load_refuses_an_int_too_long_or_a_document_too_deep_to_parse(tmp_path):
    path = tmp_path / "snapshot.json"
    _write_pairs(path, [_three_records_pair()])
    text = path.read_text()
    at = json.dumps(_packed("q", [1_000, 1_000, 2_000]))
    assert at in text
    path.write_text(text.replace(at, "9" * 5_000, 1))
    with pytest.raises(ValidationError, match="unreadable snapshot"):
        MemoryModule.load(path)
    path.write_text(text.replace(at, "[" * 100_000 + "]" * 100_000, 1))
    with pytest.raises(ValidationError, match="unreadable snapshot"):
        MemoryModule.load(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_callers_gc_setting_as_it_was(tmp_path, enabled):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    _write_pairs(good, [_three_records_pair()])
    broken = _three_records_pair()
    broken[HISTORY_COLUMNS.index("at")] = [1_000]
    _write_pairs(bad, [broken])
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(MemoryModule.load(good).history) == 3
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationError):
            MemoryModule.load(bad)
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationError):
            MemoryModule.load(tmp_path / "missing.json")
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_load_interns_ids(tmp_path):
    path = tmp_path / "snapshot.json"
    _write_pairs(path, [_three_records_pair()])
    first, second, third = MemoryModule.load(path).history.query(
        HistoryQuery("a_j", "video_transcoding", last_k=3))
    assert first.owner is third.owner and first.collaborator is second.collaborator


def test_load_peak_stays_near_the_memory_it_keeps(tmp_path):
    """History is held as columns, and each pair's parsed entry goes as its columns are decoded.

    The bounds are per record, on a file of 20 000: packed columns plus an
    interned owner reference are about 50 bytes, where one PerformanceRecord
    object was about 240; the peak adds the file's bytes and parsed text.
    """
    n = 20_000
    memory = MemoryModule()
    for i in range(n):
        memory.history.append(make_record(
            owner=f"o{i % 7}", collaborator=f"c{i % 10}", task_type=("t_a", "t_b")[i % 20 // 10],
            at=1_000 * i, throughput_mbps=i / 3, loss_rate=i / 20_000, accuracy=0.5 + i / 40_000))
    path = tmp_path / "snapshot.json"
    memory.save(path)
    del memory
    gc.collect()
    tracemalloc.start()
    try:
        loaded = MemoryModule.load(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(loaded.history) == n
    assert held < 64 * n, held / n
    assert peak < 200 * n, peak / n


def _tiny_memory() -> MemoryModule:
    memory = MemoryModule()
    memory.resources.upsert(make_profile(device="a_k", updated_at=5))
    memory.history.append(make_record(collaborator="a_k", at=2_000))
    memory.history.append(make_record(at=3_000, verdict=Verdict.UNSATISFIED))
    memory.history.append(make_record(at=1_000, loss_rate=0.5))  # late: goes first in its pair
    memory.semantics.upsert(_semantics("a_j", "video_transcoding", n=2))
    return memory


def test_packed_columns_are_little_endian():
    first, _ = _tiny_memory().history.to_dict()["pairs"]
    assert first[HISTORY_COLUMNS.index("at")] == base64.b64encode(
        struct.pack("<qq", 1_000, 3_000)).decode()
    assert first[HISTORY_COLUMNS.index("loss_rate")] == base64.b64encode(
        struct.pack("<dd", 0.5, 0.01)).decode()


def test_a_tiny_v6_snapshot_has_the_golden_bytes(tmp_path):
    """Pairs in sorted pair order, each pair's columns in (at, arrival) order; leaves as rows."""
    memory = _tiny_memory()
    path = tmp_path / "snapshot.json"
    memory.save(path)
    assert path.read_bytes() == _GOLDEN_V6
    assert MemoryModule.load(path) == memory


_GOLDEN_V6 = b"".join((
    b'{"format":"twotsd-snapshot","history":{"pairs":[',
    b'["a_j","video_transcoding",["a_i","a_i"],"6AMAAAAAAAC4CwAAAAAAAA==",',
    b'"AAAAAAAAWUAAAAAAAABZQA==","AAAAAAAA4D97FK5H4XqEPw==","AAAAAAAAAEAAAAAAAAAAQA==",',
    b'"XI/C9Shc7z9cj8L1KFzvPw==","AQA="],',
    b'["a_k","video_transcoding",["a_i"],"0AcAAAAAAAA=","AAAAAAAAWUA=","exSuR+F6hD8=",',
    b'"AAAAAAAAAEA=","XI/C9Shc7z8=","AQ=="]]},',
    b'"resources":{"profiles":[{"bandwidth_mbps":100.0,"cpu_cps":10000000000.0,',
    b'"device":"a_k","storage_mb":200.0,"updated_at":5}]},',
    b'"tree":{"leaves":[["a_j","video_transcoding","trusted","normal","normal","normal",',
    b'"normal",1000,2000,2000,2]]},"version":6}\n',
))


_COLLABORATORS = ["a_i", "a_j", "é_k", "设备"]
_TASK_TYPES = ["face_recognition", "vidéo"]
_fractions = st.floats(min_value=0.0, max_value=1.0)
_records = st.builds(
    make_record,
    owner=st.sampled_from(["o_x", "ö_y"]),
    collaborator=st.sampled_from(_COLLABORATORS),
    task_type=st.sampled_from(_TASK_TYPES),
    at=st.integers(min_value=-10**12, max_value=10**12) | st.integers(0, 20),
    throughput_mbps=st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10**6),
    loss_rate=_fractions,
    proc_speed_mbps=st.floats(min_value=0.0, allow_infinity=False),
    accuracy=_fractions,
    verdict=st.sampled_from(list(Verdict)),
)


@settings(max_examples=60, deadline=None)
@given(records=st.lists(_records, max_size=40))
def test_v4_round_trip_and_per_pair_queries_match_a_brute_force_model(records):
    """Tied and out-of-order timestamps: store, columns and reload all follow (at, arrival)."""
    memory = MemoryModule()
    for record in records:
        memory.history.append(record)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.json"
        memory.save(path)
        loaded = MemoryModule.load(path)
    assert loaded == memory
    assert len(loaded.history) == len(records)
    pairs = []
    for collaborator in _COLLABORATORS:
        for task_type in _TASK_TYPES:
            everything = brute_force_query(records, HistoryQuery(collaborator, task_type, last_k=10**6))
            assert loaded.history.count_for(collaborator, task_type) == len(everything)
            if everything:
                pairs.append([
                    collaborator, task_type,
                    *([getattr(r, name) for r in everything]
                      for name in ("owner", "at", "throughput_mbps", "loss_rate",
                                   "proc_speed_mbps", "accuracy")),
                    [r.verdict is Verdict.SATISFIED for r in everything],
                ])
            for q in (
                HistoryQuery(collaborator, task_type, last_k=1_000),
                HistoryQuery(collaborator, task_type, last_k=3),
                HistoryQuery(collaborator, task_type, interval=(0, 10)),
                HistoryQuery(collaborator, task_type, interval=(7, 7)),
            ):
                expected = brute_force_query(records, q)
                assert list(memory.history.query(q)) == expected
                assert list(loaded.history.query(q)) == expected
    assert loaded.history.to_dict()["pairs"] == [_pack_entry(p) for p in sorted(pairs, key=lambda p: p[:2])]


_WINDOW_PAIRS = [("a_j", "face_recognition"), ("a_j", "video_transcoding"), ("a_k", "video_transcoding")]
_window_queries = st.one_of(
    st.builds(lambda pair, k: HistoryQuery(*pair, last_k=k), st.sampled_from(_WINDOW_PAIRS),
              st.integers(1, 12)),
    st.builds(lambda pair, a, b: HistoryQuery(*pair, interval=(min(a, b), max(a, b))),
              st.sampled_from(_WINDOW_PAIRS), st.integers(-1, 21), st.integers(-1, 21)),
)
_slice_bounds = st.none() | st.integers(-14, 14)


@settings(max_examples=80, deadline=None)
@given(
    appends=st.lists(
        st.tuples(st.sampled_from(_WINDOW_PAIRS), st.integers(0, 20), _fractions, st.booleans()),
        max_size=40,
    ),
    queries=st.lists(
        st.tuples(_window_queries, _slice_bounds, _slice_bounds, st.sampled_from([None, 1, 2, 3])),
        min_size=1, max_size=6,
    ),
)
def test_a_window_reads_as_the_brute_force_records(appends, queries):
    """Tied and out-of-order timestamps: a window reads as the brute-force records, also to extraction."""
    # Each record tagged by a distinct throughput, so the windows compare arrival order too.
    records = [
        make_record(collaborator=pair[0], task_type=pair[1], at=at, throughput_mbps=float(i),
                    loss_rate=loss, verdict=Verdict.SATISFIED if satisfied else Verdict.UNSATISFIED)
        for i, (pair, at, loss, satisfied) in enumerate(appends)
    ]
    memory = MemoryModule()
    for record in records:
        memory.history.append(record)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.json"
        memory.save(path)
        loaded = MemoryModule.load(path)
    trend_cfg, state_cfg = TrendConfig(n_min=2), StateConfig(n_min=2)
    for q, start, stop, step in queries:
        window = memory.history.query(q)
        expected = brute_force_query(records, q)
        assert type(window) is RecordWindow
        assert list(window) == expected
        assert len(window) == len(expected)
        for i in range(1, len(expected) + 1):
            assert window[-i] == expected[-i]
        with pytest.raises(IndexError):
            window[-len(expected) - 1]
        part = window[start:stop:step]
        assert type(part) is RecordWindow and list(part) == expected[start:stop:step]
        by_window = extract_semantics(q.collaborator, q.task_type, window, trend_cfg, state_cfg)
        by_records = extract_semantics(q.collaborator, q.task_type, list(window), trend_cfg, state_cfg)
        for name in TrustSemantics.__dataclass_fields__:
            assert getattr(by_window, name) == getattr(by_records, name), name
        assert loaded.history.query(q) == window
    with pytest.raises(ValueError, match="step must be positive"):
        window[::-1]
