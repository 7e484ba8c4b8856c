"""Stores: history queries vs brute force, tree shape, snapshot round-trips."""

from __future__ import annotations

import gc
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
        assert store.query(q) == brute_force_query(mirror, q)


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
        store.append(make_record(at=at, extra={"rid": rid}))
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
    assert sorted(r.extra["rid"] for r in remaining) == sorted(appended)
    ats = [r.at for r in remaining]
    assert ats == sorted(ats)


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


def test_snapshot_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else", "version": 1}')
    with pytest.raises(ValidationError):
        MemoryModule.load(path)
    path.write_text("not json at all")
    with pytest.raises(ValidationError):
        MemoryModule.load(path)
    doc = MemoryModule().to_snapshot_dict()
    for version in (3, "4", 4.0, True, None):
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


# The snapshot reader on hand-written v4 files. A history is written here as
# [fields, tail] items, one per record and each in a pair of its own; tail is
# anything past the pair's last column. The test ids keep the names they had
# when a v1 and a v2 reader were both checked: "-1" and "-2" name the record
# that is corrupted, the first or the one after a valid one.


def _history():
    records = [make_record(), make_record(at=2_000, collaborator="a_k")]
    return [[codec.record_to_dict(r), []] for r in records]


_SATISFIED_OF = {"satisfied": True, "unsatisfied": False}


def _pair_entry(f, tail):
    """One record's fields as a v4 pair entry; a value no writer would emit passes through."""
    columns = {
        "collaborator": f["collaborator"], "task_type": f["task_type"], "owners": [f["owner"]],
        **{c: [f[c]] for c in HISTORY_COLUMNS[3:8] if c in f},
        "satisfied": [_SATISFIED_OF.get(f["verdict"], f["verdict"])],
        "extras": [[0, f["extra"]]] if f["extra"] else [],
    }
    return [*(columns[c] for c in HISTORY_COLUMNS if c in columns), *tail]


def _write_pairs(path: Path, pairs, version=SNAPSHOT_VERSION) -> None:
    doc = {"format": "twotsd-snapshot", "version": version, "resources": {"profiles": []},
           "history": {"pairs": pairs}, "tree": {"leaves": []}}
    path.write_text(json.dumps(doc))


def _write_history(path: Path, history) -> None:
    _write_pairs(path, [_pair_entry(f, tail) for f, tail in history])


def _set(name, value):
    def fault(fields, tail):
        fields[name] = value
    return fault


def _drop_column(fields, tail):
    del fields["accuracy"]


def _add_column(fields, tail):
    tail.append("surplus")


def _self_collaboration(fields, tail):
    fields["collaborator"] = fields["owner"]


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
    "non-mapping-extra": _set("extra", [["site", "lab"]]),
}


@pytest.mark.parametrize("row", [1, 2])
@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
def test_both_readers_reject_each_corrupt_record(tmp_path, row, corruption):
    path = tmp_path / "snapshot.json"
    history = _history()
    _write_history(path, history)
    assert len(MemoryModule.load(path).history) == 2  # the uncorrupted file loads
    _CORRUPTIONS[corruption](*history[row - 1])
    _write_history(path, history)
    with pytest.raises(ValidationError, match="malformed snapshot") as err:
        MemoryModule.load(path)
    if corruption.endswith("-column"):
        assert "not a list of 10 columns" in err.value.message


def test_both_readers_accept_the_same_lenient_forms(tmp_path):
    """Percent strings and integers load to the record an ingest builds."""
    lenient = {**codec.record_to_dict(make_record()), "loss_rate": "1%", "accuracy": "98%",
               "throughput_mbps": 100, "proc_speed_mbps": 2, "extra": {"site": "lab"}}
    _write_history(tmp_path / "snapshot.json", [[lenient, []]])
    history = MemoryModule.load(tmp_path / "snapshot.json").history
    expected = [make_record(loss_rate=0.01, accuracy=0.98, extra={"site": "lab"})]
    assert history.query(HistoryQuery("a_j", "video_transcoding", last_k=10)) == expected


def _three_records_pair():
    """A valid pair entry of three records; the second carries an extra."""
    return ["a_j", "video_transcoding", ["a_i", "a_k", "a_i"], [1_000, 1_000, 2_000],
            [1.0, 2.0, 3.0], [0.0, 0.5, 1.0], [2.0, 2.0, 2.0], [0.9, 0.9, 0.9],
            [True, False, True], [[1, {"site": "lab"}]]]


def _column(name, value):
    def fault(pairs):
        pairs[0][HISTORY_COLUMNS.index(name)] = value
    return fault


_MALFORMED_PAIRS = {
    "ragged-owners": (_column("owners", ["a_i", "a_k"]), "at"),
    "ragged-at": (_column("at", [1_000, 1_000]), "at"),
    "ragged-accuracy": (_column("accuracy", [0.9, 0.9, 0.9, 0.9]), "accuracy"),
    "ragged-satisfied": (_column("satisfied", [True]), "satisfied"),
    "no-records": (_column("owners", []), "owners"),
    "extras-index-out-of-range": (_column("extras", [[3, {"site": "lab"}]]), "extras"),
    "extras-index-negative": (_column("extras", [[-1, {"site": "lab"}]]), "extras"),
    "extras-index-repeated": (_column("extras", [[1, {"a": 1}], [1, {"b": 2}]]), "extras"),
    "extras-index-out-of-order": (_column("extras", [[2, {"a": 1}], [1, {"b": 2}]]), "extras"),
    "extras-index-not-an-int": (_column("extras", [[True, {"a": 1}]]), "extras"),
    "extras-empty-mapping": (_column("extras", [[1, {}]]), "extras"),
    "satisfied-not-a-bool": (_column("satisfied", [True, 0, True]), "satisfied"),
    "satisfied-a-label": (_column("satisfied", [True, "satisfied", True]), "satisfied"),
    "pair-listed-twice": (lambda pairs: pairs.append(_three_records_pair()), "pairs"),
    "owner-is-collaborator": (_column("owners", ["a_i", "a_j", "a_i"]), "collaborator"),
    "at-decreasing": (_column("at", [1_000, 3_000, 2_000]), "at"),
    "collaborator-empty": (_column("collaborator", ""), "collaborator"),
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


def test_load_interns_ids_and_shares_one_empty_extra(tmp_path):
    path = tmp_path / "snapshot.json"
    _write_pairs(path, [_three_records_pair()])
    first, second, third = MemoryModule.load(path).history.query(
        HistoryQuery("a_j", "video_transcoding", last_k=3))
    assert first.owner is third.owner and first.collaborator is second.collaborator
    assert first.extra is third.extra and first.extra == {}
    assert second.extra == {"site": "lab"}


def test_a_tiny_v4_snapshot_has_the_golden_bytes(tmp_path):
    """Pairs in sorted pair order, each pair's columns in (at, arrival) order; leaves as rows."""
    memory = MemoryModule()
    memory.resources.upsert(make_profile(device="a_k", updated_at=5))
    memory.history.append(make_record(collaborator="a_k", at=2_000))
    memory.history.append(make_record(at=3_000, verdict=Verdict.UNSATISFIED, extra={"site": "lab"}))
    memory.history.append(make_record(at=1_000, loss_rate=0.5))  # late: goes first in its pair
    memory.semantics.upsert(_semantics("a_j", "video_transcoding", n=2))
    path = tmp_path / "snapshot.json"
    memory.save(path)
    assert path.read_bytes() == _GOLDEN_V4
    assert MemoryModule.load(path) == memory


_GOLDEN_V4 = b"".join((
    b'{"format":"twotsd-snapshot","history":{"pairs":[',
    b'["a_j","video_transcoding",["a_i","a_i"],[1000,3000],[100.0,100.0],[0.5,0.01],',
    b'[2.0,2.0],[0.98,0.98],[true,false],[[1,{"site":"lab"}]]],',
    b'["a_k","video_transcoding",["a_i"],[2000],[100.0],[0.01],[2.0],[0.98],[true],[]]]},',
    b'"resources":{"profiles":[{"bandwidth_mbps":100.0,"cpu_cps":10000000000.0,',
    b'"device":"a_k","storage_mb":200.0,"updated_at":5}]},',
    b'"tree":{"leaves":[["a_j","video_transcoding","trusted","normal","normal","normal",',
    b'"normal",1000,2000,2000,2]]},"version":4}\n',
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
    extra=st.dictionaries(st.text(max_size=5), st.integers() | st.text(max_size=5), max_size=2),
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
                    [[i, dict(r.extra)] for i, r in enumerate(everything) if r.extra],
                ])
            for q in (
                HistoryQuery(collaborator, task_type, last_k=1_000),
                HistoryQuery(collaborator, task_type, last_k=3),
                HistoryQuery(collaborator, task_type, interval=(0, 10)),
                HistoryQuery(collaborator, task_type, interval=(7, 7)),
            ):
                expected = brute_force_query(records, q)
                assert memory.history.query(q) == expected
                assert loaded.history.query(q) == expected
    assert loaded.history.to_dict()["pairs"] == sorted(pairs, key=lambda p: p[:2])
