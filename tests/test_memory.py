"""Stores: history queries vs brute force, tree shape, snapshot round-trips."""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import tempfile
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotsd import codec
from twotsd.domain import Trend, TrustSemantics, TrustState, Verdict
from twotsd.errors import DuplicateRecordError, StaleUpdateError, ValidationError
from twotsd.memory import (
    HISTORY_COLUMNS,
    HistoryQuery,
    HistoryStore,
    MemoryModule,
    ResourceStore,
    SemanticsTree,
)

from _builders import make_profile, make_record


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


def test_history_rejects_duplicate_explicit_ids():
    store = HistoryStore()
    store.append(make_record(), record_id=7)
    with pytest.raises(DuplicateRecordError):
        store.append(make_record(at=2_000), record_id=7)


def test_history_prune_drops_old_records():
    store = HistoryStore()
    for i in range(10):
        store.append(make_record(at=1_000 * (i + 1)))
    assert store.prune_older_than(5_000) == 4
    assert len(store) == 6
    remaining = store.query(HistoryQuery("a_j", "video_transcoding", last_k=100))
    assert min(r.at for r in remaining) == 5_000


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


def brute_force_query(records_with_ids, q: HistoryQuery):
    hits = [
        (rid, r)
        for rid, r in records_with_ids
        if r.collaborator == q.collaborator and r.task_type == q.task_type
    ]
    hits.sort(key=lambda pair: (pair[1].at, pair[0]))
    if q.interval is not None:
        lo, hi = q.interval
        hits = [(i, r) for i, r in hits if lo <= r.at <= hi]
    elif q.last_k:
        hits = hits[-q.last_k:]
    return [r for _, r in hits]


def test_query_equals_brute_force_on_random_logs():
    """1000 random queries against a naive reference implementation."""
    rng = random.Random(8_154)
    store = HistoryStore()
    mirror = []
    for rec in _random_records(rng, 400):
        rid = store.append(rec)
        mirror.append((rid, rec))
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
        assert store.query(q) == brute_force_query(mirror, q)


def test_out_of_order_ids_and_prune_equal_brute_force():
    """Explicit ids in shuffled order, timestamp ties, then pruning."""
    rng = random.Random(2_509)
    records = _random_records(rng, 300)
    ids = rng.sample(range(1, 10_000), len(records))
    store = HistoryStore()
    for rid, rec in zip(ids, records):
        store.append(rec, record_id=rid)
    assert store.prune_older_than(1_500) == sum(1 for r in records if r.at < 1_500)
    mirror = [(rid, r) for rid, r in zip(ids, records) if r.at >= 1_500]
    for collaborator in ["a_j", "a_k", "a_l"]:
        for task_type in ["face_recognition", "video_transcoding"]:
            for q in (
                HistoryQuery(collaborator, task_type, last_k=1_000),
                HistoryQuery(collaborator, task_type, last_k=7),
                HistoryQuery(collaborator, task_type, interval=(2_000, 3_000)),
            ):
                assert store.query(q) == brute_force_query(mirror, q)


def test_concurrent_append_query_prune_stress():
    """Eight threads for about a second: nothing raises, results stay ordered."""
    store = HistoryStore()
    ids = itertools.count(1)
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
        store.append(make_record(at=at, extra={"rid": rid}), record_id=rid)

    def query(rng):
        if rng.random() < 0.5:
            q = HistoryQuery("a_j", "video_transcoding", last_k=rng.randrange(1, 40))
        else:
            lo = rng.randrange(0, 5_000)
            q = HistoryQuery("a_j", "video_transcoding", interval=(lo, lo + 500))
        keys = [(r.at, r.extra["rid"]) for r in store.query(q)]
        assert keys == sorted(keys)

    def prune(rng):
        store.prune_older_than(max(0, next(ids) // 8 - 200))
        time.sleep(0.001)

    threads = [threading.Thread(target=run(fn)) for fn in [append] * 3 + [query] * 3 + [prune] * 2]
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
    assert len(remaining) == len(store)
    keys = [(r.at, r.extra["rid"]) for r in remaining]
    assert keys == sorted(keys)


def _semantics(device: str, task_type: str, n: int = 7) -> TrustSemantics:
    return TrustSemantics(
        device=device,
        task_type=task_type,
        state=TrustState.TRUSTED,
        comm_trends={"throughput": Trend.NORMAL, "loss_rate": Trend.NORMAL},
        comp_trends={"accuracy": Trend.NORMAL, "proc_speed": Trend.NORMAL},
        window=(1_000, 1_000 * n),
        extracted_at=1_000 * n,
        record_count=n,
    )


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

    # The snapshot holds only the leaves, sorted by (task type, device).
    leaves = tree.to_dict()["leaves"]
    assert [(leaf["task_type"], leaf["device"]) for leaf in leaves] == [
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


# The upserts tests/fixtures/tree_v1.json was written from by the node-graph
# tree: three task types and eight devices whose first appearances interleave
# out of key order (so node ids interleave across task types), plus in-place
# updates of existing leaves.
_FIXTURE_UPSERTS = [
    ("d5", "tt_b", 7), ("d2", "tt_c", 5), ("d7", "tt_b", 9), ("d0", "tt_a", 6),
    ("d5", "tt_c", 8), ("d3", "tt_a", 5), ("d5", "tt_b", 12), ("d6", "tt_c", 6),
    ("d1", "tt_b", 11), ("d4", "tt_a", 7), ("d2", "tt_a", 9), ("d7", "tt_c", 5),
    ("d0", "tt_b", 8), ("d3", "tt_c", 10), ("d6", "tt_a", 6), ("d2", "tt_c", 14),
    ("d4", "tt_b", 5), ("d1", "tt_a", 13), ("d0", "tt_a", 15), ("d7", "tt_a", 6),
]
FIXTURE = Path(__file__).parent / "fixtures" / "tree_v1.json"


def _fixture_semantics(device: str, task_type: str, n: int) -> TrustSemantics:
    return TrustSemantics(
        device=device,
        task_type=task_type,
        state=TrustState.TRUSTED if n % 3 else TrustState.UNTRUSTED,
        comm_trends={"throughput": Trend.NORMAL,
                     "loss_rate": Trend.INCREASING if n % 2 else Trend.NORMAL},
        comp_trends={"accuracy": Trend.NORMAL, "proc_speed": Trend.DECREASING},
        window=(1_000, 1_000 * n),
        extracted_at=1_000 * n + 1,
        record_count=n,
    )


def test_tree_v1_fixture_loads_and_replays_identically():
    """The v1 read path: the node list loads to the leaves of its upserts."""
    doc = json.loads(FIXTURE.read_text())
    loaded = SemanticsTree.from_dict(doc, version=1)
    replayed = SemanticsTree()
    for args in _FIXTURE_UPSERTS:
        replayed.upsert(_fixture_semantics(*args))
    assert loaded.node_count() == replayed.node_count() == doc["next_node_id"]
    assert loaded.task_types() == replayed.task_types() == ["tt_a", "tt_b", "tt_c"]
    for task_type in loaded.task_types():
        assert loaded.get_by_task_type(task_type) == replayed.get_by_task_type(task_type)
    assert loaded.to_dict() == replayed.to_dict()


SNAPSHOT_FIXTURE = Path(__file__).parent / "fixtures" / "snapshot_v1.json"


def test_v1_snapshot_fixture_loads_and_resaves_as_v2(tmp_path):
    """A full v1 snapshot (written by the v1 writer) loads, re-saves as v2, and reloads equal."""
    v1 = MemoryModule.load(SNAPSHOT_FIXTURE)
    assert v1.loaded_version == 1
    assert (len(v1.resources), len(v1.history), v1.semantics.leaf_count()) == (3, 54, 6)
    doc = json.loads(SNAPSHOT_FIXTURE.read_text())
    assert [rid for rid, _ in v1.history.all_records()] == [rid for rid, _ in doc["history"]["records"]]
    assert v1.history.to_dict()["next_id"] == doc["history"]["next_id"]
    path = tmp_path / "snapshot.json"
    v1.save(path)
    saved = json.loads(path.read_text())
    assert saved["version"] == 2
    assert sorted(saved["history"]) == ["next_id", "rows"] and sorted(saved["tree"]) == ["leaves"]
    for row, (rid, item) in zip(saved["history"]["rows"], doc["history"]["records"], strict=True):
        assert dict(zip(HISTORY_COLUMNS, row, strict=True)) == {"id": rid, **item}
    v2 = MemoryModule.load(path)
    assert v2.loaded_version == 2
    assert v2 == v1
    for _, record in v1.history.all_records():
        query = HistoryQuery(record.collaborator, record.task_type, last_k=100)
        assert v2.history.query(query) == v1.history.query(query)
    for task_type in v1.semantics.task_types():
        assert v2.semantics.get_by_task_type(task_type) == v1.semantics.get_by_task_type(task_type)


def _leaf_nodes(doc):
    return [n for n in doc["tree"]["nodes"] if n["kind"] == "semantics"]


def _leaf_under_foreign_device(doc):
    _leaf_nodes(doc)[0]["payload"]["device"] = "zz_not_in_fleet"


def _leaf_under_foreign_task_type(doc):
    first, *rest = _leaf_nodes(doc)
    task_type = first["payload"]["task_type"]
    first["payload"]["task_type"] = next(
        n["payload"]["task_type"] for n in rest if n["payload"]["task_type"] != task_type
    )


def _leaf_hung_from_task_type(doc):
    nodes = {n["id"]: n for n in doc["tree"]["nodes"]}
    leaf = _leaf_nodes(doc)[0]
    leaf["parent"] = nodes[leaf["parent"]]["parent"]


def _task_type_hung_from_device(doc):
    nodes = {n["id"]: n for n in doc["tree"]["nodes"]}
    device = nodes[_leaf_nodes(doc)[0]["parent"]]
    nodes[device["parent"]]["parent"] = device["id"]


def _node_id_listed_twice(doc):
    doc["tree"]["nodes"][-1]["id"] = 0


@pytest.mark.parametrize(
    "fault, message",
    [(_leaf_under_foreign_device, "hangs under"), (_leaf_under_foreign_task_type, "hangs under"),
     (_leaf_hung_from_task_type, "hangs under"), (_task_type_hung_from_device, "hangs under"),
     (_node_id_listed_twice, "listed twice")],
    ids=["device-key", "task-type-key", "leaf-under-task-type", "task-type-under-device",
         "node-id-twice"],
)
def test_v1_tree_rejects_a_leaf_off_its_chain(tmp_path, fault, message):
    """Each v1 leaf must hang from its device node, its task-type node and the root."""
    doc = json.loads(SNAPSHOT_FIXTURE.read_text())
    fault(doc)
    path = tmp_path / "snapshot.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"malformed snapshot.*{message}"):
        MemoryModule.load(path)


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


def test_snapshot_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValidationError):
        MemoryModule.load(path)
    path.write_text("not json at all")
    with pytest.raises(ValidationError):
        MemoryModule.load(path)


def test_history_snapshot_rejects_next_id_at_or_below_a_record_id():
    store = HistoryStore()
    for device in ("a", "b", "b"):
        store.append(make_record(collaborator=device))
    doc = store.to_dict()
    assert doc["next_id"] == 4
    assert HistoryStore.from_dict(doc).to_dict() == doc
    # With next_id 2 the next append would overwrite record 2, which would
    # then be indexed under both its old and its new pair.
    for bad in (1, 2, 3):
        with pytest.raises(ValidationError):
            HistoryStore.from_dict({**doc, "next_id": bad})
    assert HistoryStore.from_dict({**doc, "next_id": 9}).append(make_record()) == 9


@pytest.mark.parametrize(
    "record_ids, next_id",
    [([1, 1, 3], 4), ([True, 2, 3], 4), ([1, 2.5, 3], 4), ([1, 2, 3], 666.5)],
    ids=["repeated-id", "bool-id", "float-id", "float-next-id"],
)
def test_history_snapshot_rejects_bad_record_ids(record_ids, next_id):
    store = HistoryStore()
    for device in ("a", "b", "b"):
        store.append(make_record(collaborator=device))
    rows = [[rid, *row[1:]] for rid, row in zip(record_ids, store.to_dict()["rows"])]
    with pytest.raises(ValidationError):
        HistoryStore.from_dict({"next_id": next_id, "rows": rows})
    records = [[rid, codec.record_to_dict(r)] for rid, (_, r) in zip(record_ids, store.all_records())]
    with pytest.raises(ValidationError):
        HistoryStore.from_dict({"next_id": next_id, "records": records}, version=1)


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
    second["device"], second["task_type"] = first["device"], first["task_type"]


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


# Loader parity: the v1 reader (record dicts) and the v2 reader (positional
# rows) accept and reject the same records. A history is written here as
# next_id plus [id, fields, tail] items; tail is anything past the last column.


def _history():
    records = [make_record(), make_record(at=2_000, collaborator="a_k")]
    items = [[rid, codec.record_to_dict(r), []] for rid, r in enumerate(records, start=1)]
    return {"next_id": 3, "items": items}


def _write_history(path: Path, version: int, history) -> None:
    items = history["items"]
    if version == 1:
        records = {"records": [[rid, f, *tail] for rid, f, tail in items]}
        tree = {"next_node_id": 0, "nodes": []}
    else:
        records = {"rows": [[rid, *(f[c] for c in HISTORY_COLUMNS[1:] if c in f), *tail]
                            for rid, f, tail in items]}
        tree = {"leaves": []}
    doc = {"format": "twotsd-snapshot", "version": version, "resources": {"profiles": []},
           "history": {"next_id": history["next_id"], **records}, "tree": tree}
    path.write_text(json.dumps(doc))


def _set(name, value):
    def fault(history):
        history["items"][0][1][name] = value
    return fault


def _drop_column(history):
    del history["items"][0][1]["accuracy"]


def _add_column(history):
    history["items"][0][2].append("surplus")


def _self_collaboration(history):
    fields = history["items"][0][1]
    fields["collaborator"] = fields["owner"]


def _id(value):
    def fault(history):
        history["items"][1][0] = value
    return fault


def _next_id(value):
    def fault(history):
        history["next_id"] = value
    return fault


_CORRUPTIONS = {
    "missing-column": _drop_column,
    "extra-column": _add_column,
    "bool-at": _set("at", True),
    "float-at": _set("at", 1_000.0),
    "negative-throughput": _set("throughput_mbps", -1.0),
    "nan-throughput": _set("throughput_mbps", math.nan),
    "loss-rate-150%": _set("loss_rate", "150%"),
    "unknown-verdict": _set("verdict", "delighted"),
    "self-collaboration": _self_collaboration,
    "non-int-id": _id("2"),
    "repeated-id": _id(1),
    "non-mapping-extra": _set("extra", [["site", "lab"]]),
    "next-id-at-an-id": _next_id(2),
    "next-id-below-an-id": _next_id(1),
}


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_both_readers_reject_each_corrupt_record(tmp_path, version, corruption):
    path = tmp_path / "snapshot.json"
    history = _history()
    _write_history(path, version, history)
    assert len(MemoryModule.load(path).history) == 2  # the uncorrupted file loads
    _CORRUPTIONS[corruption](history)
    _write_history(path, version, history)
    with pytest.raises(ValidationError, match="malformed snapshot") as err:
        MemoryModule.load(path)
    if version == 2 and corruption.endswith("-column"):
        assert "not a list of 11 columns" in err.value.message


def test_both_readers_accept_the_same_lenient_forms(tmp_path):
    """Percent strings, a padded verdict and unknown keys load to equal records."""
    lenient = {**codec.record_to_dict(make_record()), "loss_rate": "1%", "accuracy": "98%",
               "verdict": " Satisfied "}
    _write_history(tmp_path / "v1.json", 1,
                   {"next_id": 2, "items": [[1, {**lenient, "site": "lab"}, []]]})
    _write_history(tmp_path / "v2.json", 2,
                   {"next_id": 2, "items": [[1, {**lenient, "extra": {"site": "lab"}}, []]]})
    expected = [(1, make_record(loss_rate=0.01, accuracy=0.98, extra={"site": "lab"}))]
    for name in ("v1.json", "v2.json"):
        assert MemoryModule.load(tmp_path / name).history.all_records() == expected


_devices = st.sampled_from(["a_i", "a_j", "a_k"])
_fractions = st.floats(min_value=0.0, max_value=1.0)
_records = st.builds(
    make_record,
    owner=st.just("o_x"),
    collaborator=_devices,
    task_type=st.sampled_from(["face_recognition", "video_transcoding"]),
    at=st.integers(min_value=-10**12, max_value=10**12) | st.integers(0, 20),
    throughput_mbps=st.floats(min_value=0.0, allow_infinity=False) | st.integers(0, 10**6),
    loss_rate=_fractions,
    proc_speed_mbps=st.floats(min_value=0.0, allow_infinity=False),
    accuracy=_fractions,
    verdict=st.sampled_from(list(Verdict)),
    extra=st.dictionaries(st.text(max_size=5), st.integers() | st.text(max_size=5), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(
    records=st.lists(_records, max_size=40),
    ids=st.lists(st.integers(min_value=1, max_value=10**6), min_size=40, max_size=40, unique=True),
)
def test_v2_round_trip_and_per_pair_queries_match_append(records, ids):
    memory = MemoryModule()
    for rid, record in zip(ids, records):
        memory.history.append(record, record_id=rid)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.json"
        memory.save(path)
        loaded = MemoryModule.load(path)
    assert loaded == memory
    assert loaded.history.all_records() == memory.history.all_records()
    for collaborator in ["a_i", "a_j", "a_k"]:
        for task_type in ["face_recognition", "video_transcoding"]:
            for q in (
                HistoryQuery(collaborator, task_type, last_k=1_000),
                HistoryQuery(collaborator, task_type, last_k=3),
                HistoryQuery(collaborator, task_type, interval=(0, 10)),
            ):
                assert loaded.history.query(q) == memory.history.query(q)
