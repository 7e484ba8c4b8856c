"""Stores: history queries vs brute force, tree shape, snapshot round-trips."""

from __future__ import annotations

import itertools
import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest

from twotsd import codec
from twotsd.domain import Trend, TrustSemantics, TrustState
from twotsd.errors import DuplicateRecordError, StaleUpdateError, ValidationError
from twotsd.memory import (
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

    doc = tree.to_dict()
    nodes = {n["id"]: n for n in doc["nodes"]}
    assert sorted(nodes) == list(range(9)) and doc["next_node_id"] == 9
    expected_depth = {"root": 0, "task_type": 1, "device": 2, "semantics": 3}
    for node in nodes.values():
        if node["parent"] is not None:
            assert node["id"] in nodes[node["parent"]]["children"]
        depth, parent = 0, node["parent"]
        while parent is not None:
            depth, parent = depth + 1, nodes[parent]["parent"]
        assert depth == expected_depth[node["kind"]]
        assert (node["payload"] is not None) == (node["kind"] == "semantics")


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
    doc = json.loads(FIXTURE.read_text())
    loaded = SemanticsTree.from_dict(doc).to_dict()
    assert loaded == doc
    assert codec.canonical_json_bytes(loaded) == codec.canonical_json_bytes(doc)
    replayed = SemanticsTree()
    for args in _FIXTURE_UPSERTS:
        replayed.upsert(_fixture_semantics(*args))
    assert codec.canonical_json_bytes(replayed.to_dict()) == codec.canonical_json_bytes(doc)


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
    records = [[rid, item] for rid, (_, item) in zip(record_ids, store.to_dict()["records"])]
    with pytest.raises(ValidationError):
        HistoryStore.from_dict({"next_id": next_id, "records": records})


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
