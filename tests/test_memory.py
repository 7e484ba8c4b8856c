"""Stores: history queries vs brute force, tree shape, snapshot round-trips."""

from __future__ import annotations

import gc
import io
import itertools
import json
import math
import os
import random
import re
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
from twotsd.domain import RECORD_COLUMNS, RecordWindow, Trend, TrustSemantics, TrustState, Verdict
from twotsd.errors import StaleUpdateError, ValidationError
from twotsd.memory import (
    PAIR_FIELDS,
    SNAPSHOT_VERSION,
    HistoryQuery,
    HistoryStore,
    MemoryModule,
    ResourceStore,
    SemanticsTree,
    _ColumnReader,
)
from twotsd.protocol import Message, MessageKind, encode
from twotsd.teacher import Candidate, CandidateBundle

from _builders import frame_snapshot, make_profile, make_record, make_semantics, split_snapshot


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

    # The snapshot holds each task type's device ids, then one state code and record per leaf.
    doc = tree.to_dict()
    assert doc["task_types"] == [["face_recognition", ["a_j"]], ["video_transcoding", ["a_j", "a_k"]]]
    assert [len(column) for column in doc["columns"]] == [1, 37, 2, 74]


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
    again = _reloaded(tree)
    assert again.to_dict() == tree.to_dict()
    assert again.node_count() == tree.node_count()


def _reloaded(tree: SemanticsTree) -> SemanticsTree:
    """``tree`` through its snapshot form: the header entries, then the leaf blocks as file bytes."""
    doc = tree.to_dict()
    blocks = io.BytesIO(b"".join(doc.pop("columns")))
    return SemanticsTree.from_dict(doc, _ColumnReader(blocks), {})


_TREE_TASK_TYPES = ["tt_a", "tt_b", "tt_c"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_TREE_TASK_TYPES), st.text("abz", min_size=1, max_size=3),
                          st.integers(1, 40)), max_size=40))
def test_tree_matches_a_dict_model_after_every_upsert(steps):
    """New devices and replaced leaves, in any order: the tree reads as a dict sorted by device."""
    tree = SemanticsTree()
    model: dict[tuple[str, str], TrustSemantics] = {}
    for task_type, device, n in steps:
        leaf = _semantics(device, task_type, n)
        tree.upsert(leaf)
        model[(task_type, device)] = leaf
        for tt in _TREE_TASK_TYPES:
            keys = sorted(k for k in model if k[0] == tt)
            got = tree.get_by_task_type(tt)
            assert len(got) == len(keys) and all(a is model[k] for a, k in zip(got, keys))
            assert tree.devices_for(tt) == [device for _, device in keys]
        assert tree.task_types() == sorted({tt for tt, _ in model})
        assert tree.leaf_count() == len(model)
        assert tree.node_count() == 1 + len(tree.task_types()) + 2 * len(model)
        again = _reloaded(tree)
        assert again.to_dict() == tree.to_dict()
        assert [again.get_by_task_type(tt) for tt in _TREE_TASK_TYPES] == [
            [model[k] for k in sorted(model) if k[0] == tt] for tt in _TREE_TASK_TYPES]


def test_memory_snapshot_round_trip(tmp_path):
    memory = MemoryModule()
    memory.resources.upsert(make_profile(device="a_k"))
    for i in range(8):
        memory.history.append(make_record(at=1_000 * (i + 1)))
    memory.semantics.upsert(_semantics("a_j", "video_transcoding"))
    path = tmp_path / "snapshot.bin"
    memory.save(path)
    again = MemoryModule.load(path)
    assert again == memory
    # byte-identical re-save
    again.save(tmp_path / "snapshot2.bin")
    assert (tmp_path / "snapshot.bin").read_bytes() == (tmp_path / "snapshot2.bin").read_bytes()


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_failed_save_leaves_the_previous_snapshot_intact(tmp_path, monkeypatch, step):
    path = tmp_path / "snapshot.bin"
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
    assert [p.name for p in tmp_path.iterdir()] == ["snapshot.bin"]
    memory.save(path)
    assert MemoryModule.load(path) == memory
    assert [p.name for p in tmp_path.iterdir()] == ["snapshot.bin"]


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
    memory.save(tmp_path / "snapshot.bin")
    directory = os.stat(tmp_path).st_ino
    assert [e[0] for e in events] == ["fsync", "replace", "fsync"]
    assert events[0][1] is False and events[2] == ("fsync", True, directory)


def _saved(memory: MemoryModule, path: Path) -> tuple[dict, bytes]:
    memory.save(path)
    return split_snapshot(path.read_bytes())


def test_snapshot_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValidationError, match="not a twotsd snapshot file"):
        MemoryModule.load(path)
    path.write_text("not json at all")
    with pytest.raises(ValidationError, match="not a twotsd snapshot file") as err:
        MemoryModule.load(path)
    assert err.value.field == "magic"
    header, body = _saved(MemoryModule(), path)
    for version in (3, 4, 5, 6, 7, 9, "8", 8.0, True, None):
        path.write_bytes(frame_snapshot(codec.canonical_json_bytes({**header, "version": version}), body))
        with pytest.raises(ValidationError, match=f"unsupported snapshot version {version!r};"):
            MemoryModule.load(path)
    # A JSON document is an older snapshot, whatever version it names.
    for version in (7, 8):
        path.write_bytes(codec.canonical_json_bytes({**header, "version": version}))
        with pytest.raises(ValidationError, match=f"unsupported snapshot version {version};"):
            MemoryModule.load(path)


@pytest.mark.parametrize("section", ["resources", "history", "tree"])
def test_snapshot_load_turns_missing_sections_into_validation_errors(tmp_path, section):
    memory = MemoryModule()
    memory.history.append(make_record())
    path = tmp_path / "snapshot.bin"
    header, body = _saved(memory, path)
    for broken in ({k: v for k, v in header.items() if k != section}, {**header, section: []}):
        path.write_bytes(frame_snapshot(codec.canonical_json_bytes(broken), body))
        with pytest.raises(ValidationError, match="malformed snapshot"):
            MemoryModule.load(path)


def _list_profile_twice(header):
    first, second = header["resources"]["profiles"]
    second["device"] = first["device"]


def _list_leaf_twice(header):
    first, second = header["tree"]["task_types"]
    second[0] = first[0]  # one device under each: the second entry repeats the first's task type


@pytest.mark.parametrize("fault", [_list_profile_twice, _list_leaf_twice], ids=["profile", "leaf"])
def test_snapshot_load_rejects_an_entry_listed_twice(tmp_path, fault):
    """A repeated device profile or task type would silently shrink the store."""
    memory = MemoryModule()
    memory.resources.upsert(make_profile(device="a_j"))
    memory.resources.upsert(make_profile(device="a_k"))
    memory.semantics.upsert(_semantics("a_j", "video_transcoding"))
    memory.semantics.upsert(_semantics("a_k", "face_recognition"))
    path = tmp_path / "snapshot.bin"
    header, body = _saved(memory, path)
    fault(header)
    path.write_bytes(frame_snapshot(codec.canonical_json_bytes(header), body))
    with pytest.raises(ValidationError, match="malformed snapshot.*listed twice"):
        MemoryModule.load(path)


def _tree_memory(n: int = 300) -> MemoryModule:
    """``n`` trusted leaves under video_transcoding, then an insufficient_data one under face_recognition."""
    memory = MemoryModule()
    for i in range(n):
        memory.semantics.upsert(_semantics(f"d{i:03d}", "video_transcoding"))
    memory.semantics.upsert(make_semantics(device="d999", task_type="face_recognition",
                                           state=TrustState.INSUFFICIENT_DATA, window=None, record_count=0))
    return memory


def _devices(i, value):
    def fault(header, body):
        header["tree"]["task_types"][1][1][i] = value
        return header, body
    return fault


def _task_type(value):
    def fault(header, body):
        header["tree"]["task_types"][1][0] = value
        return header, body
    return fault


def _entry_of(value):
    def fault(header, body):
        header["tree"]["task_types"][1] = value
        return header, body
    return fault


def _task_type_twice(header, body):
    """The first task type's entry and leaf block again, after the others."""
    entry = header["tree"]["task_types"][0]
    header["tree"]["task_types"].append(entry)
    return header, body + body[:1 + 37]


def _task_types_of(value):
    def fault(header, body):
        header["tree"]["task_types"] = value
        return header, body
    return fault


def _more_devices(extra):
    """The second task type lists ``extra`` more devices than its leaf block holds."""
    def fault(header, body):
        devices = header["tree"]["task_types"][1][1]
        devices += [f"e{i:07d}" for i in range(extra)]
        return header, body
    return fault


# Each fault of the tree's header entries or leaf blocks, with the refusal and
# field that name it. The record faults the wire shares are in test_protocol.
_MALFORMED_TREES = {
    "device-twice": (_devices(-1, "d298"), "devices of video_transcoding must ascend, each listed once", "tree"),
    "device-out-of-order": (_devices(0, "d500"), "devices of video_transcoding must ascend", "tree"),
    "device-empty": (_devices(-1, ""), "device must be a nonempty string", "device"),
    "device-not-a-string": (_devices(-1, 7), "device must be a nonempty string", "device"),
    "device-null": (_devices(-1, None), "device must be a nonempty string", "device"),
    "device-a-bool": (_devices(-1, True), "device must be a nonempty string", "device"),
    "device-unhashable": (_devices(-1, ["d299"]), "device must be a nonempty string", "device"),
    "task-type-empty": (_task_type(""), "task_type must be a nonempty string", "task_type"),
    "task-type-not-a-string": (_task_type(["video_transcoding"]), "task_type must be a nonempty string",
                               "task_type"),
    "task-type-null": (_task_type(None), "task_type must be a nonempty string", "task_type"),
    "task-type-unhashable": (_task_type({"video_transcoding": 1}), "task_type must be a nonempty string",
                             "task_type"),
    "task-type-twice": (_task_type_twice, "task type face_recognition listed twice", "tree"),
    "entry-not-a-pair": (_entry_of(["video_transcoding"]), "tree entry is not a [task_type, devices] pair",
                         "tree"),
    "entry-of-three": (_entry_of(["video_transcoding", ["d000"], []]),
                       "tree entry is not a [task_type, devices] pair", "tree"),
    "entry-an-object": (_entry_of({"video_transcoding": ["d000"]}),
                        "tree entry is not a [task_type, devices] pair", "tree"),
    "task-types-not-a-list": (_task_types_of({}), "tree task types must be a list", "tree"),
    "devices-empty": (_entry_of(["video_transcoding", []]), "devices of a tree entry must be a nonempty list",
                      "tree"),
    "devices-not-a-list": (_entry_of(["video_transcoding", "d000"]),
                           "devices of a tree entry must be a nonempty list", "tree"),
    "block-cut-short": (lambda header, body: (header, body[:-1]), "leaves is cut short", "leaves"),
    "block-missing": (lambda header, body: (header, body[:-300 * 37]), "leaves is cut short", "leaves"),
    "states-missing": (lambda header, body: (header, body[:-301 * 37]), "state is cut short", "state"),
    "block-longer-than-the-file": (_more_devices(1), "leaves is cut short", "leaves"),
    "bytes-after-the-last-block": (lambda header, body: (header, body + b"\0"),
                                   "1 bytes follow the last leaf block", "tree"),
}


@pytest.mark.parametrize("fault", sorted(_MALFORMED_TREES))
def test_snapshot_load_refuses_a_malformed_tree_naming_the_field(tmp_path, fault):
    """A bad header entry or leaf block is refused as the wire refuses its ids, or by field ``tree``."""
    path = tmp_path / "snapshot.bin"
    header, body = _saved(_tree_memory(), path)
    assert [entry[0] for entry in header["tree"]["task_types"]] == ["face_recognition", "video_transcoding"]
    corrupt, message, field = _MALFORMED_TREES[fault]
    path.write_bytes(frame_snapshot(codec.canonical_json_bytes(header), body))
    assert MemoryModule.load(path).semantics.leaf_count() == 301  # the unbroken file loads
    header, body = corrupt(header, body)
    path.write_bytes(frame_snapshot(codec.canonical_json_bytes(header), body))
    with pytest.raises(ValidationError, match=re.escape(f"malformed snapshot: ValidationError {message}")) as err:
        MemoryModule.load(path)
    assert (err.value.field, err.value.code) == (field, "validation")


_LEAF_RECORD = struct.Struct("<5B4q")
_LEAF_FIELDS = ("throughput", "loss_rate", "accuracy", "proc_speed", "window_present",
                "window_from", "window_to", "extracted_at", "record_count")


def _patch_leaf(body: bytearray, n: int, i: int, state: int | None = None, **fields) -> None:
    """Rewrite leaf ``i`` of the last leaf block, of ``n`` leaves, at the end of ``body``."""
    states, records = len(body) - n * (1 + _LEAF_RECORD.size), len(body) - n * _LEAF_RECORD.size
    if state is not None:
        body[states + i] = state
    at = records + i * _LEAF_RECORD.size
    values = dict(zip(_LEAF_FIELDS, _LEAF_RECORD.unpack_from(body, at)))
    values.update(fields)
    _LEAF_RECORD.pack_into(body, at, *values.values())


# A fault the JSON rows held as a value past int64 or a half-null window is,
# in a record, the int64 that those bits read as or an absent window's bounds.
@pytest.mark.parametrize("fields, field, error", [
    pytest.param({"record_count": -(2**63)}, "record_count", f"record_count must be >= 0, got {-(2**63)}",
                 id="count_past_int64"),
    pytest.param({"window_present": 0}, "window", "window must be (0, 0) when flagged absent, got (1000, 7000)",
                 id="half_absent_window"),
    pytest.param({"window_present": 2}, "window", "window must be flagged 0 or 1, got 2", id="window_flag_2"),
    pytest.param({"loss_rate": 3}, "loss_rate", "loss_rate must be a Trend code below 3, got 3",
                 id="unknown_trend"),
    pytest.param({"state": 3}, "state", "state must be a TrustState code below 3, got 3", id="unknown_state"),
    pytest.param({"state": 2, "throughput": 0}, "state",
                 "state must be trusted or untrusted where a trend is not normal, got 2",
                 id="insufficient_data_with_a_trend"),
])
def test_snapshot_load_refuses_the_first_bad_leaf_by_its_field(tmp_path, fields, field, error):
    """Two bad leaves in the saved file's later leaf block: the load names the first, by its field."""
    path = tmp_path / "snapshot.bin"
    header, body = _saved(_tree_memory(), path)
    body = bytearray(body)
    for i in (150, 299):
        _patch_leaf(body, 300, i, **fields)
    path.write_bytes(frame_snapshot(codec.canonical_json_bytes(header), bytes(body)))
    expected = f"{error} for device 'd150'"
    with pytest.raises(ValidationError, match=re.escape(f"malformed snapshot: ValidationError {expected}")) as err:
        MemoryModule.load(path)
    assert (err.value.field, err.value.code) == (field, "validation")


def test_a_leaf_block_past_the_end_is_refused_before_it_is_allocated(tmp_path):
    """A tree entry naming far more devices than the file holds leaves for allocates no block.

    The load's peak is what parsing the header takes, plus the header's
    bytes, well short of the 7.6 MB block its 200 000 ids would need.
    """
    n = 200_000
    path = tmp_path / "snapshot.bin"
    header, body = _saved(_tree_memory(2), path)
    header["tree"]["task_types"][1][1] += [f"e{i:07d}" for i in range(n)]
    text = codec.canonical_json_bytes(header)
    path.write_bytes(frame_snapshot(text, body))
    del header
    gc.collect()
    tracemalloc.start()
    try:
        json.loads(text)
        _, parse_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(ValidationError, match="malformed snapshot: ValidationError state is cut short") as err:
            MemoryModule.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert err.value.field == "state"
    assert peak < parse_peak + len(text) + 38 * n / 2, (peak, parse_peak)


# The snapshot reader on hand-written v8 files with an empty tree. A pair is written here as
# plain lists, one value per record: the pair, then each of RECORD_COLUMNS.
# _layout turns pairs into a header entry per pair and each pair's packed
# column bytes, independently of the module's writer; a fault edits that
# layout, and _write frames it. A case that v6 wrote as a base64 string or a
# ragged column is here the bytes that such a fault leaves in a binary file:
# a column cut short, or bytes that read as a value no record holds.

_CODES = dict(zip(RECORD_COLUMNS, "IqddddB"))  # owners: uint32 indexes into the entry's owner ids


def _packed(code: str, values) -> bytes:
    return struct.pack(f"<{len(values)}{code}", *values)


def _layout(pairs):
    entries, columns = [], []
    for collaborator, task_type, owners, *numbers in pairs:
        distinct = list(dict.fromkeys(owners))
        entries.append([collaborator, task_type, distinct, len(owners)])
        index = [distinct.index(owner) for owner in owners]
        columns.append({name: _packed(_CODES[name], values)
                        for name, values in zip(RECORD_COLUMNS, [index, *numbers])})
    header = {"format": "twotsd-snapshot", "version": SNAPSHOT_VERSION, "resources": {"profiles": []},
              "history": {"pairs": entries}, "tree": {"task_types": []}}
    return {"header": header, "columns": columns}


def _file_bytes(layout) -> bytes:
    body = b"".join(data for columns in layout["columns"] for data in columns.values())
    return frame_snapshot(codec.canonical_json_bytes(layout["header"]), body)


def _write(path: Path, layout) -> None:
    path.write_bytes(_file_bytes(layout))


def _entry(name, value):
    def fault(layout, i):
        layout["header"]["history"]["pairs"][i][PAIR_FIELDS.index(name)] = value
    return fault


def _values(name, values):
    def fault(layout, i):
        layout["columns"][i][name] = _packed(_CODES[name], values)
    return fault


def _bytes(name, data):
    def fault(layout, i):
        layout["columns"][i][name] = data
    return fault


def _cut(name, keep):
    """The file ends ``keep`` bytes into pair ``i``'s column ``name``."""
    def fault(layout, i):
        columns = layout["columns"]
        del columns[i + 1:]
        names = list(columns[i])
        for later in names[names.index(name) + 1:]:
            del columns[i][later]
        columns[i][name] = columns[i][name][:keep]
    return fault


def _drop_field(layout, i):
    del layout["header"]["history"]["pairs"][i][-1]


def _add_field(layout, i):
    layout["header"]["history"]["pairs"][i].append("surplus")


def _self_collaboration(layout, i):
    entry = layout["header"]["history"]["pairs"][i]
    entry[PAIR_FIELDS.index("owners")] = [entry[0]]


def _history():
    """Two one-record pairs."""
    return [["a_j", "video_transcoding", ["a_i"], [1_000], [100.0], [0.01], [2.0], [0.98], [1]],
            ["a_k", "video_transcoding", ["a_i"], [2_000], [100.0], [0.01], [2.0], [0.98], [1]]]


# v6's bool-at and float-at, a JSON value in place of a column, are now a
# JSON value of the wrong type where the header gives the record count.
_CORRUPTIONS = {
    "missing-field": (_drop_field, "pairs"),
    "extra-field": (_add_field, "pairs"),
    "bool-count": (_entry("count", True), "count"),
    "float-count": (_entry("count", 1.0), "count"),
    "negative-throughput": (_values("throughput_mbps", [-1.0]), "throughput_mbps"),
    "nan-throughput": (_values("throughput_mbps", [math.nan]), "throughput_mbps"),
    "loss-rate-150%": (_values("loss_rate", [1.5]), "loss_rate"),
    "unknown-verdict": (_values("satisfied", [2]), "satisfied"),
    "self-collaboration": (_self_collaboration, "collaborator"),
}


@pytest.mark.parametrize("row", [1, 2])
@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_load_refuses_each_corrupt_record(tmp_path, row, corruption):
    path = tmp_path / "snapshot.bin"
    layout = _layout(_history())
    _write(path, layout)
    assert len(MemoryModule.load(path).history) == 2  # the uncorrupted file loads
    corrupt, field = _CORRUPTIONS[corruption]
    corrupt(layout, row - 1)
    _write(path, layout)
    with pytest.raises(ValidationError, match="malformed snapshot") as err:
        MemoryModule.load(path)
    assert err.value.field == field
    if corruption.endswith("-field"):
        assert "not a list of 4 fields" in err.value.message


def _three_records_pair():
    """A valid pair of three records."""
    return ["a_j", "video_transcoding", ["a_i", "a_k", "a_i"], [1_000, 1_000, 2_000],
            [1.0, 2.0, 3.0], [0.0, 0.5, 1.0], [2.0, 2.0, 2.0], [0.9, 0.9, 0.9], [1, 0, 1]]


def _list_pair_twice(layout, i):
    layout["header"]["history"]["pairs"].append(list(layout["header"]["history"]["pairs"][i]))
    layout["columns"].append(dict(layout["columns"][i]))


def _trailing_bytes(layout, i):
    layout["columns"].append({"surplus": b"\0"})


# v6 ids are kept where the fault is the same. v6's ragged and empty columns
# are columns cut short (ragged-owners, ragged-at, empty-at, ragged-accuracy,
# ragged-satisfied, proc-speed-part-of-an-item); its base64 faults are bytes
# no record holds (at-not-a-string: at big-endian; loss-rate-bad-base64: NaN
# bytes; loss-rate-not-ascii: loss rates big-endian; satisfied-a-label: the
# label's bytes); no-records is a count of 0.
_MALFORMED_PAIRS = {
    "owners-cut-short": (_cut("owners", 10), "owners"),
    "at-cut-short": (_cut("at", 16), "at"),
    "at-missing": (_cut("at", 0), "at"),
    "accuracy-cut-short": (_cut("accuracy", 16), "accuracy"),
    "satisfied-cut-short": (_cut("satisfied", 1), "satisfied"),
    "proc-speed-part-of-an-item": (_cut("proc_speed_mbps", 23), "proc_speed_mbps"),
    "no-records": (_entry("count", 0), "count"),
    "count-past-the-file": (_entry("count", 10**30), "owners"),
    "at-big-endian": (_bytes("at", struct.pack(">3q", 1_000, 1_000, 2_000)), "at"),
    "loss-rate-nan-bytes": (_bytes("loss_rate", b"\xff" * 24), "loss_rate"),
    "loss-rate-big-endian": (_bytes("loss_rate", struct.pack(">3d", 0.01, 0.01, 0.01)), "loss_rate"),
    "satisfied-not-a-bool": (_values("satisfied", [1, 2, 1]), "satisfied"),
    "satisfied-a-label": (_bytes("satisfied", b"sat"), "satisfied"),
    "pair-listed-twice": (_list_pair_twice, "pairs"),
    "trailing-bytes": (_trailing_bytes, "tree"),  # bytes after the last column follow the last (empty) leaf block
    "owner-index-outside": (_values("owners", [0, 2, 0]), "owners"),
    "owners-empty": (_entry("owners", []), "owners"),
    "owners-not-a-list": (_entry("owners", "a_i"), "owners"),
    "owners-repeated": (_entry("owners", ["a_i", "a_i"]), "owners"),
    "owner-is-collaborator": (_entry("owners", ["a_i", "a_j"]), "collaborator"),
    "owner-empty": (_entry("owners", ["a_i", ""]), "owner"),
    "owner-not-a-string": (_entry("owners", ["a_i", 7]), "owner"),
    "at-decreasing": (_values("at", [1_000, 3_000, 2_000]), "at"),
    "collaborator-empty": (_entry("collaborator", ""), "collaborator"),
    "throughput-huge": (_values("throughput_mbps", [1.0, math.inf, 3.0]), "throughput_mbps"),
    "loss-rate-huge": (_values("loss_rate", [0.0, 1e300, 1.0]), "loss_rate"),
    "accuracy-nan": (_values("accuracy", [0.9, math.nan, 0.9]), "accuracy"),
    "proc-speed-negative": (_values("proc_speed_mbps", [2.0, -0.0001, 2.0]), "proc_speed_mbps"),
}


@pytest.mark.parametrize("fault", sorted(_MALFORMED_PAIRS))
def test_load_refuses_each_malformed_pair_naming_the_field(tmp_path, fault):
    path = tmp_path / "snapshot.bin"
    layout = _layout([_three_records_pair()])
    _write(path, layout)
    assert len(MemoryModule.load(path).history) == 3  # the unbroken file loads
    corrupt, field = _MALFORMED_PAIRS[fault]
    corrupt(layout, 0)
    _write(path, layout)
    with pytest.raises(ValidationError, match="malformed snapshot") as err:
        MemoryModule.load(path)
    assert err.value.field == field
    if fault == "owner-is-collaborator":
        assert "owner and collaborator must differ" in err.value.message
        assert err.value.code == "self_collaboration"  # the record's code survives the rewrap


def test_load_refuses_a_bad_magic_or_a_header_past_the_end(tmp_path):
    """Neither is read further: a header length past the end is refused before anything that long."""
    path = tmp_path / "snapshot.bin"
    _write(path, _layout([_three_records_pair()]))
    data = path.read_bytes()
    path.write_bytes(b"\x89twotsd\r" + data[8:])
    with pytest.raises(ValidationError, match="not a twotsd snapshot file") as err:
        MemoryModule.load(path)
    assert err.value.field == "magic"
    for broken in (data[:12], data[:8] + b"\xff" * 8 + data[16:],
                   data[:8] + struct.pack("<Q", len(data) + (64 << 20)) + data[16:]):
        path.write_bytes(broken)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="malformed snapshot") as err:
                MemoryModule.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert err.value.field == "header"
        assert peak < 1 << 20, peak


FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("version", [1, 2, 6])
def test_load_refuses_an_older_snapshot_with_the_rebuild_hint(version):
    """A v1, v2 or v6 file is refused by its version; it is rebuilt, not migrated."""
    path = FIXTURES / f"snapshot_v{version}.json"
    assert json.loads(path.read_text())["version"] == version
    with pytest.raises(ValidationError, match=f"unsupported snapshot version {version};") as err:
        MemoryModule.load(path)
    assert "rebuild the file with `twotsd simulate --snapshot`" in err.value.message


def _write_json_doc(path: Path, version, pairs) -> None:
    doc = {"format": "twotsd-snapshot", "version": version, "resources": {"profiles": []},
           "history": {"pairs": pairs}, "tree": {"leaves": []}}
    path.write_text(json.dumps(doc))


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
    _write_json_doc(path, 4, [[*_V5_PAIR, [[1, {"site": "lab"}]]]])
    with pytest.raises(ValidationError, match="unsupported snapshot version 4;") as err:
        MemoryModule.load(path)
    assert "rebuild the file with `twotsd simulate --snapshot`" in err.value.message


def test_load_refuses_a_v5_snapshot_with_the_rebuild_hint(tmp_path):
    """A v5 file, its record columns JSON lists, is refused by its version too."""
    path = tmp_path / "snapshot.json"
    _write_json_doc(path, 5, [_V5_PAIR])
    with pytest.raises(ValidationError, match="unsupported snapshot version 5;") as err:
        MemoryModule.load(path)
    assert "rebuild the file with `twotsd simulate --snapshot`" in err.value.message


def test_load_refuses_an_int_too_long_or_a_document_too_deep_to_parse(tmp_path):
    path = tmp_path / "snapshot.bin"
    _write(path, _layout([_three_records_pair()]))
    header, body = split_snapshot(path.read_bytes())
    text = codec.canonical_json_bytes(header)
    count = b'["a_i","a_k"],3]'
    assert text.count(count) == 1
    for value in (b"9" * 5_000, b"[" * 100_000 + b"]" * 100_000):
        path.write_bytes(frame_snapshot(text.replace(count, b'["a_i","a_k"],' + value + b"]"), body))
        with pytest.raises(ValidationError, match="unreadable snapshot"):
            MemoryModule.load(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_the_callers_gc_setting_as_it_was(tmp_path, enabled):
    good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
    _write(good, _layout([_three_records_pair()]))
    broken = _layout([_three_records_pair()])
    _cut("at", 8)(broken, 0)
    _write(bad, broken)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert len(MemoryModule.load(good).history) == 3
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationError):
            MemoryModule.load(bad)
        assert gc.isenabled() is enabled
        with pytest.raises(ValidationError):
            MemoryModule.load(tmp_path / "missing.bin")
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


def test_load_interns_ids(tmp_path):
    path = tmp_path / "snapshot.bin"
    _write(path, _layout([_three_records_pair()]))
    first, second, third = MemoryModule.load(path).history.query(
        HistoryQuery("a_j", "video_transcoding", last_k=3))
    assert first.owner is third.owner and first.collaborator is second.collaborator


def test_load_shares_one_id_string_per_device_between_history_and_tree(tmp_path):
    """The tree's device ids and task types are the very strings the history's load interned."""
    memory = MemoryModule()
    for i in range(12):
        device, task_type = f"c{i % 4}", ("t_a", "t_b")[i % 2]
        memory.history.append(make_record(collaborator=device, task_type=task_type, at=1_000 * i))
        memory.semantics.upsert(_semantics(device, task_type, n=2))
    path = tmp_path / "snapshot.bin"
    memory.save(path)
    loaded = MemoryModule.load(path)
    pairs = {(c, t): (c, t) for c, t, _, _ in loaded.history.to_dict()["pairs"]}  # the history's own strings
    tree = loaded.semantics
    assert tree.task_types() == ["t_a", "t_b"]
    for task_type in tree.task_types():
        devices = tree.devices_for(task_type)
        assert devices == (["c0", "c2"] if task_type == "t_a" else ["c1", "c3"])
        for device, leaf in zip(devices, tree.get_by_task_type(task_type), strict=True):
            collaborator, history_task_type = pairs[device, task_type]
            assert device is collaborator and leaf.device is device
            assert task_type is history_task_type and leaf.task_type is task_type
    loaded.save(tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_load_peak_stays_near_the_memory_it_keeps(tmp_path):
    """History is held as columns, read from the file into pre-sized arrays with no parsed copy.

    On a file of 20 000 records, packed columns plus an interned owner
    reference are about 50 bytes per record, where one PerformanceRecord
    object was about 240; the load's peak is at most 1.5 times what it keeps.
    """
    n = 20_000
    memory = MemoryModule()
    for i in range(n):
        memory.history.append(make_record(
            owner=f"o{i % 7}", collaborator=f"c{i % 10}", task_type=("t_a", "t_b")[i % 20 // 10],
            at=1_000 * i, throughput_mbps=i / 3, loss_rate=i / 20_000, accuracy=0.5 + i / 40_000))
    path = tmp_path / "snapshot.bin"
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
    assert peak <= 1.5 * held, peak / held


def _tiny_memory() -> MemoryModule:
    memory = MemoryModule()
    memory.resources.upsert(make_profile(device="a_k", updated_at=5))
    memory.history.append(make_record(collaborator="a_k", at=2_000))
    memory.history.append(make_record(at=3_000, verdict=Verdict.UNSATISFIED))
    memory.history.append(make_record(at=1_000, loss_rate=0.5))  # late: goes first in its pair
    memory.semantics.upsert(_semantics("a_j", "video_transcoding", n=2))
    return memory


def test_packed_columns_are_little_endian(tmp_path):
    """The first pair (two records) starts the columns: two owner indexes, then at, ..."""
    _, body = _saved(_tiny_memory(), tmp_path / "snapshot.bin")
    assert body[:8] == struct.pack("<II", 0, 0)
    assert body[8:24] == struct.pack("<qq", 1_000, 3_000)
    assert body[40:56] == struct.pack("<dd", 0.5, 0.01)


def test_a_tiny_v8_snapshot_has_the_golden_bytes(tmp_path):
    """Pairs in sorted pair order, each pair's columns in (at, arrival) order; then each task type's leaf block."""
    memory = _tiny_memory()
    path = tmp_path / "snapshot.bin"
    memory.save(path)
    assert path.read_bytes() == _GOLDEN_V8
    assert MemoryModule.load(path) == memory


def test_load_refuses_a_v7_snapshot_with_the_rebuild_hint(tmp_path):
    """The tiny snapshot as v7 wrote it, its leaves JSON rows in the header, is refused by its version."""
    assert (FIXTURES / "snapshot_v7.bin").read_bytes() == _GOLDEN_V7
    path = tmp_path / "snapshot.bin"
    path.write_bytes(_GOLDEN_V7)
    with pytest.raises(ValidationError, match="unsupported snapshot version 7;") as err:
        MemoryModule.load(path)
    assert "rebuild the file with `twotsd simulate --snapshot`" in err.value.message


_COLUMNS = (
    # a_j, 2 records: owners, at, throughput_mbps, loss_rate, proc_speed_mbps, accuracy, satisfied
    bytes.fromhex("00000000 00000000"),
    bytes.fromhex("e803000000000000 b80b000000000000"),
    bytes.fromhex("0000000000005940 0000000000005940"),
    bytes.fromhex("000000000000e03f 7b14ae47e17a843f"),
    bytes.fromhex("0000000000000040 0000000000000040"),
    bytes.fromhex("5c8fc2f5285cef3f 5c8fc2f5285cef3f"),
    bytes.fromhex("01 00"),
    # a_k, 1 record
    bytes.fromhex("00000000"),
    bytes.fromhex("d007000000000000"),
    bytes.fromhex("0000000000005940"),
    bytes.fromhex("7b14ae47e17a843f"),
    bytes.fromhex("0000000000000040"),
    bytes.fromhex("5c8fc2f5285cef3f"),
    bytes.fromhex("01"),
)
_GOLDEN_V8 = b"".join((
    b"\x89twotsd\n",
    b"=\x01\x00\x00\x00\x00\x00\x00",  # the header's length: 317 bytes
    b'{"format":"twotsd-snapshot","history":{"pairs":[["a_j","video_transcoding",["a_i"],2],',
    b'["a_k","video_transcoding",["a_i"],1]]},',
    b'"resources":{"profiles":[{"bandwidth_mbps":100.0,"cpu_cps":10000000000.0,',
    b'"device":"a_k","storage_mb":200.0,"updated_at":5}]},',
    b'"tree":{"task_types":[["video_transcoding",["a_j"]]]},"version":8}',
    *_COLUMNS,
    # video_transcoding, 1 leaf: its state code (trusted), then its record: four
    # normal trends, a window flagged present, window 1000..2000, extracted_at
    # 2000 and 2 records, as a bundle carries it
    bytes.fromhex("00"),
    bytes.fromhex("02020202 01 e803000000000000 d007000000000000 d007000000000000 0200000000000000"),
))
_GOLDEN_V7 = b"".join((
    b"\x89twotsd\n",
    b"v\x01\x00\x00\x00\x00\x00\x00",  # the header's length: 374 bytes
    b'{"format":"twotsd-snapshot","history":{"pairs":[["a_j","video_transcoding",["a_i"],2],',
    b'["a_k","video_transcoding",["a_i"],1]]},',
    b'"resources":{"profiles":[{"bandwidth_mbps":100.0,"cpu_cps":10000000000.0,',
    b'"device":"a_k","storage_mb":200.0,"updated_at":5}]},',
    b'"tree":{"leaves":[["a_j","video_transcoding","trusted","normal","normal","normal",',
    b'"normal",1000,2000,2000,2]]},"version":7}',
    *_COLUMNS,
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
        path = Path(tmp) / "snapshot.bin"
        memory.save(path)
        loaded = MemoryModule.load(path)
        saved = path.read_bytes()
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
    assert saved == _file_bytes(_layout(sorted(pairs, key=lambda p: p[:2])))


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
    """Tied and out-of-order timestamps: a window reads as the brute-force records."""
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
        path = Path(tmp) / "snapshot.bin"
        memory.save(path)
        loaded = MemoryModule.load(path)
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
        assert loaded.history.query(q) == window
    with pytest.raises(ValueError, match="step must be positive"):
        window[::-1]


_INT64 = st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 1])
_TREND_LISTS = st.lists(st.sampled_from(Trend), min_size=4, max_size=4)


@st.composite
def _leaves(draw):
    """Any valid leaf: every state, absent and int64-edge windows, counts from 0 to 2**63 - 1."""
    state = draw(st.sampled_from(TrustState))
    trends = [Trend.NORMAL] * 4 if state is TrustState.INSUFFICIENT_DATA else draw(_TREND_LISTS)
    window = draw(st.none() | st.tuples(_INT64, _INT64).map(lambda w: tuple(sorted(w))))
    return TrustSemantics(draw(st.text(min_size=1, max_size=4)), draw(st.sampled_from(["tt_a", "vidéo", "设备"])),
                          state, *trends, window, draw(_INT64),
                          draw(st.integers(0, 2**63 - 1) | st.sampled_from([0, 1, 2**63 - 1])))


@settings(max_examples=100, deadline=None)
@given(leaves=st.lists(_leaves(), max_size=30), records=st.lists(_records, max_size=4))
def test_load_of_save_is_the_memory_saved(leaves, records):
    """``load(save(m)) == m``; each trusted leaf's bytes in the file are those a bundle carries for it."""
    memory = MemoryModule()
    memory.resources.upsert(make_profile(device="a_k"))
    for record in records:
        memory.history.append(record)
    for leaf in leaves:
        memory.semantics.upsert(leaf)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.bin"
        memory.save(path)
        loaded = MemoryModule.load(path)
        data = path.read_bytes()
    tree = memory.semantics
    assert loaded.semantics.task_types() == tree.task_types()
    blocks = data[len(data) - 38 * tree.leaf_count():]  # the leaf blocks end the file
    header, _ = split_snapshot(data)
    for task_type, devices in header["tree"]["task_types"]:
        n = len(devices)
        states, block, blocks = blocks[:n], blocks[n:38 * n], blocks[38 * n:]
        saved = tree.get_by_task_type(task_type)
        again = loaded.semantics.get_by_task_type(task_type)
        assert again == saved and devices == [leaf.device for leaf in saved]
        assert states == bytes(list(TrustState).index(leaf.state) for leaf in saved)
        # The loaded leaves carry no cached bytes: the bundle packs its own.
        trusted = [i for i, leaf in enumerate(again) if leaf.state is TrustState.TRUSTED]
        assert not any("_record" in leaf.__dict__ for leaf in again)
        bundle = CandidateBundle("t1", [Candidate(again[i], True) for i in trusted], 0)
        frame = encode(Message(MessageKind.CANDIDATE_BUNDLE, "server", bundle, "m1", 0))
        assert frame[len(frame) - 37 * len(trusted):] == b"".join(block[37 * i:37 * (i + 1)] for i in trusted)
    assert blocks == b""
    assert loaded == memory  # last: comparing packs the loaded leaves' records
