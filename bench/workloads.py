"""Seeded workloads: fleet shapes, warm snapshots and operation streams.

Every input is a pure function of (workload, seed) except resource-profile
timestamps, which are stamped on the wall clock the way reports from live
devices are. Records and profiles leave this module as plain tuples so the
oracle can track them without importing the program; ``to_record`` and
``to_profile`` turn them into the program's domain values.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass

TASK_TYPES = ("face_recognition", "video_transcoding", "text_word_count")

# (density cycles/bit, deadline s, size MB low, size MB high) per task type.
TASK_CLASSES = {
    "face_recognition": (2339.0, 60.0, 20.0, 50.0),
    "video_transcoding": (1000.0, 50.0, 30.0, 80.0),
    "text_word_count": (200.0, 10.0, 5.0, 30.0),
}

# Served with ``--override match.staleness_s=300``; stale profiles are stamped
# an hour before set-up, fresh ones at set-up, so a run never sits on the edge.
STALENESS_S = 300.0
STALE_AGE_MS = 3_600_000
RECORD_STEP_MS = 1_000
WINDOW_K = 20  # the served teacher_window_k

@dataclass(frozen=True)
class Workload:
    """One fleet shape, served over the wire and simulated.

    ``depth`` records per (device, task type) pair are in the warm snapshot.
    Each round is one ``task_request`` followed by ``ingests`` ingests; every
    ``report_every``-th ingest is a ``resource_report`` instead of a
    ``performance_record``. ``roles`` gives the share of devices
    that are untrusted, have a stale profile, are too slow for most deadlines,
    or have too little storage; the rest are trusted and feasible.
    ``simulate`` is the ``twotsd simulate`` argument list of the paired
    simulation, on a fixed seed.
    """

    name: str
    devices: int
    depth: int
    ingests: int
    report_every: int
    roles: dict
    simulate: tuple

    def device_ids(self) -> list[str]:
        return [f"n{i:04d}" for i in range(self.devices)]


WORKLOADS = {
    "ingest-deep": Workload(
        name="ingest-deep",
        devices=10,
        depth=5_000,
        ingests=30,
        report_every=100,
        roles={"untrusted": 0.2, "stale": 0.1, "slow": 0.1, "small": 0.0},
        simulate=(
            "--config", "configs/default.yaml", "--seed", "0",
            "--override", "warmup_records=300", "--override", "task_count=100",
        ),
    ),
    "request-wide": Workload(
        name="request-wide",
        devices=1_000,
        depth=20,
        ingests=4,
        report_every=10,
        roles={"untrusted": 0.3, "stale": 0.1, "slow": 0.15, "small": 0.05},
        simulate=("--config", "configs/large_fleet.yaml"),
    ),
}


def now_ms() -> int:
    return int(time.time() * 1000)


def assign_roles(wl: Workload, seed: int) -> dict[str, str]:
    """Exact role counts, so every seed gives the same fleet make-up."""
    ids = wl.device_ids()
    order = random.Random(f"{seed}/{wl.name}/roles").sample(ids, len(ids))
    roles: dict[str, str] = {}
    at = 0
    for role in ("untrusted", "stale", "slow", "small"):
        n = round(wl.roles.get(role, 0.0) * len(ids))
        for device in order[at : at + n]:
            roles[device] = role
        at += n
    for device in order[at:]:
        roles[device] = "trusted"
    return roles


def profile_tuple(device: str, role: str, rng: random.Random, stamp: int) -> tuple:
    """(device, cpu_cps, storage_mb, bandwidth_mbps, updated_at)."""
    cpu = rng.uniform(2e10, 6e10)
    storage = rng.uniform(500.0, 2000.0)
    bandwidth = rng.uniform(50.0, 200.0)
    if role == "slow":
        cpu = rng.uniform(1e9, 3e9)
    elif role == "small":
        storage = rng.uniform(1.0, 4.0)
    if role == "stale":
        stamp -= STALE_AGE_MS
    return (device, cpu, storage, bandwidth, stamp)


def record_tuple(
    rng: random.Random, role: str, device: str, owner: str, task_type: str, at: int, index: int
) -> tuple:
    """(owner, collaborator, task_type, at, throughput, loss, proc_speed, accuracy, satisfied).

    Drift follows a 40-record saw tooth, so a 20-record window reads
    increasing, decreasing or flat depending on where it falls.
    """
    rate = 0.55 if role == "untrusted" else 0.97
    satisfied = rng.random() < rate
    phase = (index % 40) / 40.0
    drifts = zlib.crc32(f"{device}/{task_type}".encode()) % 3 == 0
    loss = 0.02 + (0.06 * phase if drifts else 0.0) + rng.uniform(-0.004, 0.004)
    throughput = 100.0 * (1.0 - (0.3 * phase if drifts else 0.0)) * rng.uniform(0.95, 1.05)
    proc = 2.0 * rng.uniform(0.9, 1.1)
    accuracy = rng.uniform(0.96, 0.99)
    if not satisfied:
        loss += 0.01
        throughput *= 0.9
        accuracy -= 0.1
    return (owner, device, task_type, at, throughput, min(max(loss, 0.0), 1.0), proc, accuracy, satisfied)


def snapshot_inputs(wl: Workload, seed: int, stamp: int, keep: int | None = None):
    """Profiles and per-pair record histories for the warm snapshot.

    Returns (roles, profiles, histories) where histories maps
    (device, task_type) to its records, oldest first, or to the newest
    ``keep`` of them. Record timestamps run up to ``stamp``; ingests during
    the run continue after it.
    """
    roles = assign_roles(wl, seed)
    ids = wl.device_ids()
    prng = random.Random(f"{seed}/{wl.name}/profiles")
    profiles = [profile_tuple(d, roles[d], prng, stamp) for d in ids]
    histories = {}
    start = stamp - wl.depth * RECORD_STEP_MS
    for j, device in enumerate(ids):
        for tt in TASK_TYPES:
            rng = random.Random(f"{seed}/{wl.name}/hist/{device}/{tt}")
            records = [
                record_tuple(rng, roles[device], device, ids[(j + 1 + i % 7) % len(ids)], tt,
                             start + i * RECORD_STEP_MS, i)
                for i in range(wl.depth)
            ]
            histories[(device, tt)] = records[-keep:] if keep else records
    return roles, profiles, histories


class OpStream:
    """Round-by-round operation sequence; round r depends only on (seed, r).

    Yields tuples ``(kind, sender, payload_tuple)`` with kind one of
    ``task_request``, ``performance_record``, ``resource_report``.
    """

    def __init__(self, wl: Workload, seed: int, roles: dict[str, str], stamp: int):
        self.wl = wl
        self.seed = seed
        self.roles = roles
        self.ids = wl.device_ids()
        self.next_index = {(d, tt): wl.depth for d in self.ids for tt in TASK_TYPES}
        self.next_at = {(d, tt): stamp + RECORD_STEP_MS for d in self.ids for tt in TASK_TYPES}
        self.last_stamp = {}
        self.serial = 0

    def task(self, rng: random.Random, task_id: str) -> tuple:
        """(task_id, owner, task_type, size_mb, density_cpb, deadline_s)."""
        tt = rng.choice(TASK_TYPES)
        density, deadline, lo, hi = TASK_CLASSES[tt]
        return (task_id, rng.choice(self.ids), tt, rng.uniform(lo, hi), density, deadline)

    def round(self, r: int) -> list[tuple]:
        rng = random.Random(f"{self.seed}/{self.wl.name}/round/{r}")
        task = self.task(rng, f"r{r:06d}")
        ops = [("task_request", task[1], task)]
        for j in range(self.wl.ingests):
            self.serial += 1
            pos = rng.randrange(len(self.ids))
            device = self.ids[pos]
            if self.serial % self.wl.report_every == 0:
                stamp = max(now_ms(), self.last_stamp.get(device, 0) + 1)
                self.last_stamp[device] = stamp
                role = self.roles[device] if self.roles[device] != "stale" else "trusted"
                ops.append(("resource_report", device, profile_tuple(device, role, rng, stamp)))
                continue
            tt = rng.choice(TASK_TYPES)
            owner = self.ids[(pos + 1 + rng.randrange(len(self.ids) - 1)) % len(self.ids)]
            key = (device, tt)
            index = self.next_index[key]
            at = self.next_at[key]
            self.next_index[key] = index + 1
            self.next_at[key] = at + RECORD_STEP_MS
            ops.append(("performance_record", owner,
                        record_tuple(rng, self.roles[device], device, owner, tt, at, index)))
        return ops


def to_record(t: tuple):
    from twotsd.domain import PerformanceRecord, Verdict

    owner, device, tt, at, thr, loss, proc, acc, sat = t
    return PerformanceRecord(owner, device, tt, at, thr, loss, proc, acc,
                             Verdict.SATISFIED if sat else Verdict.UNSATISFIED)


def to_profile(t: tuple):
    from twotsd.domain import ResourceProfile

    return ResourceProfile(*t)


def to_task(t: tuple):
    from twotsd.domain import Task

    return Task(*t)


def build_snapshot(wl: Workload, seed: int, stamp: int, path: str) -> None:
    """Warm the teacher's memory through the public store API and save it."""
    from twotsd.memory import HistoryQuery, MemoryModule
    from twotsd.semantics import DeterministicEngine, StateConfig, TrendConfig

    _, profiles, histories = snapshot_inputs(wl, seed, stamp)
    memory = MemoryModule()
    # The served config: ScenarioConfig's trend floors and the default state.
    engine = DeterministicEngine(TrendConfig(metric_floors={"loss_rate": 0.05}), StateConfig())
    for p in profiles:
        memory.resources.upsert(to_profile(p))
    for (device, tt), records in histories.items():
        for rec in records:
            memory.history.append(to_record(rec))
        window = memory.history.query(HistoryQuery(device, tt, last_k=WINDOW_K))
        memory.semantics.upsert(engine.extract(device, tt, window))
    memory.save(path)


def main(argv=None) -> int:
    """Set-up step, run in its own process: write one workload's warm snapshot."""
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--stamp", type=int, required=True, help="profile wall-clock stamp, ms")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    build_snapshot(WORKLOADS[args.workload], args.seed, args.stamp, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
