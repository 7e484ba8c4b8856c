"""Discrete-event comparison of serverized trust against direct polling.

Two worlds run the same task stream over the same synthetic fleet. Each
world is one method behind the same small interface: ``ingest(records)``
takes collaboration outcomes, ``history`` is the record log whose per-pair
counts give each device's next record index, and ``select(task, now)``
returns the pick with its analytic cost. Each task runs in one world and
then the other; the worlds share no mutable state.

* ``2tsd`` (:class:`ServedWorld`): devices stream resource reports and
  collaboration outcomes to the teacher as they happen; at request time the
  teacher answers from memory and the owner runs the lightweight final
  selection. No per-task data collection occurs.
* ``baseline`` (:class:`DirectPollingBaseline`): no server. At request time
  the owner polls every other device, pulls its ``baseline_window_k`` newest
  records plus current resources, and evaluates trust on the spot. Its
  bundle is assembled by the teacher's :func:`~twotsd.teacher.assemble_bundle`,
  from semantics it extracts itself. One data collection per candidate per
  task.

Ground truth assigns each device a role: reliable devices satisfy requesters
~95% of the time, unreliable ones ~50%, and drifters sit at ~75% while their
packet loss climbs a little with every record they produce. The drift rate is
chosen so a 20-record window shows a clear upward slope but a 5-record
window at the same noise level does not, which is the teacher's whole edge.

Devices also collaborate outside the measured task stream: every
``ambient_every_n_tasks`` tasks, each (device, task type) pair produces one
ambient record in both worlds. This keeps histories live between
selections, the way a real fleet's would be, so short-window
misclassifications keep getting re-rolled instead of freezing at whatever
the warmup tail happened to look like.

Randomness is replayable: every draw is a pure function of (seed, stream
labels, per-device record index), so both worlds observe identical record
sequences for a device until their selection histories diverge, and the
whole run is reproducible from the config alone. A draw is ``stable_u01`` of
its labels, taken from a sha256 of the label prefix (seed, stream, device,
task type) that is built once per run and copied for each index. Within a
task, a record is made once for both worlds: the second world to feed the
same (device, task type, index, owner, at) receives the first one's
immutable record. The worlds still share no mutable state.

Costs are charged from an analytic latency model rather than wall time:

* ``2tsd`` request: ``2*l_msg + c_eng + c_ret * retrieved`` where
  ``retrieved`` counts semantics entries read under the task-type subtree.
* ``baseline`` request: ``polled * (2*l_msg + k*c_rec) + c_eng``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .domain import (
    DEFAULT_TASK_TYPES,
    FACE_RECOGNITION,
    TEXT_WORD_COUNT,
    VIDEO_TRANSCODING,
    DeviceId,
    PerformanceRecord,
    ResourceProfile,
    Task,
    TaskType,
    TimestampMs,
    Verdict,
)
from .errors import ConfigError
from .matching import MatchConfig, evaluate_chain
from .memory import HistoryQuery, HistoryStore, MemoryModule
from .semantics import DeterministicEngine, StateConfig, TrendConfig, extract_semantics
from .student import DecisionPolicy, decide
from .teacher import TeacherAgent, assemble_bundle

METHOD_2TSD = "2tsd"
METHOD_BASELINE = "baseline"

# Synthetic fleet hardware ranges. Together with the task classes below they
# keep every task feasible on every device, so candidate filtering is decided
# by trust alone and accuracy differences are attributable to trust quality.
CPU_CPS_RANGE = (2e10, 6e10)
STORAGE_MB_RANGE = (500.0, 2000.0)
BANDWIDTH_MBPS_RANGE = (50.0, 200.0)

_TICK_MS = 1000


class Role(Enum):
    RELIABLE = "reliable"
    UNRELIABLE = "unreliable"
    DRIFTER = "drifter"


@dataclass(frozen=True)
class LatencyModel:
    """Analytic per-operation costs, all in seconds."""

    l_msg_s: float = 0.05  # one network message leg
    c_rec_s: float = 0.002  # transferring one history record
    c_eng_s: float = 0.2  # one trust evaluation pass
    c_ret_s: float = 1e-5  # reading one semantics entry from memory

    def __post_init__(self):
        for name, cost in vars(self).items():
            if not 0 <= cost < math.inf:  # refuses NaN too
                raise ConfigError(f"{name} must be finite and >= 0", field=name)


@dataclass(frozen=True)
class TaskClass:
    """Per-task-type shape: compute density, deadline, and size range."""

    density_cpb: float
    deadline_s: float
    size_mb_low: float
    size_mb_high: float


TASK_CLASSES: dict[TaskType, TaskClass] = {
    FACE_RECOGNITION: TaskClass(2339.0, 60.0, 20.0, 50.0),
    VIDEO_TRANSCODING: TaskClass(1000.0, 50.0, 30.0, 80.0),
    TEXT_WORD_COUNT: TaskClass(200.0, 10.0, 5.0, 30.0),
}


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int = 0
    device_count: int = 10
    task_count: int = 200
    warmup_records: int = 20  # per device per task type, sent before any task
    task_types: tuple[TaskType, ...] = DEFAULT_TASK_TYPES
    unreliable_fraction: float = 0.3
    drifter_fraction: float = 0.2  # of the fleet, carved out of the unreliable share
    reliable_rate: float = 0.95
    unreliable_rate: float = 0.5
    drifter_rate: float = 0.75
    base_loss: float = 0.01
    drifter_base_loss: float = 0.05
    drift_loss_per_record: float = 0.0015
    teacher_window_k: int = 20
    baseline_window_k: int = 5
    ambient_every_n_tasks: int = 3  # 0 disables ambient collaboration records
    latency: LatencyModel = LatencyModel()
    # Loss rates live near zero, where a mean-normalized slope explodes on
    # noise alone; the floor keeps only genuine climbs above threshold.
    trend: TrendConfig = TrendConfig(metric_floors={"loss_rate": 0.05})
    state: StateConfig = StateConfig()
    # Profiles are reported once at t=0 and the fleet does not churn, so
    # freshness is effectively disabled for simulated runs.
    match: MatchConfig = MatchConfig(staleness_s=1e9)
    policy: DecisionPolicy = DecisionPolicy()

    def __post_init__(self):
        if self.device_count < 2:
            raise ConfigError("device_count must be >= 2")
        if self.task_count < 1:
            raise ConfigError("task_count must be >= 1")
        if self.warmup_records < 0:
            raise ConfigError("warmup_records must be >= 0")
        if not self.task_types:
            raise ConfigError("task_types must be nonempty")
        for tt in self.task_types:
            if tt not in TASK_CLASSES:
                raise ConfigError(f"no task class defined for task type {tt!r}")
        for name in ("unreliable_fraction", "drifter_fraction", "reliable_rate",
                     "unreliable_rate", "drifter_rate", "base_loss", "drifter_base_loss"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:  # refuses NaN too
                raise ConfigError(f"{name} must be within [0, 1]")
        if not 0.0 <= self.drift_loss_per_record < math.inf:
            raise ConfigError("drift_loss_per_record must be finite and >= 0")
        if self.drifter_fraction > self.unreliable_fraction:
            raise ConfigError("drifter_fraction cannot exceed unreliable_fraction")
        for name in ("teacher_window_k", "baseline_window_k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.ambient_every_n_tasks < 0:
            raise ConfigError("ambient_every_n_tasks must be >= 0")


@dataclass(frozen=True)
class DeviceTruth:
    """Ground truth the methods are scored against but never shown directly."""

    device: DeviceId
    role: Role
    profile: ResourceProfile
    reliability: float  # long-run probability one task completes satisfied

    @property
    def drifts(self) -> bool:
        return self.role is Role.DRIFTER


@dataclass(frozen=True)
class TaskRow:
    task_id: str
    task_type: TaskType
    owner: DeviceId
    method: str
    selected: DeviceId | None
    correct: bool | None  # None: no valid option existed, excluded from accuracy
    eval_time_s: float
    collections: int
    candidates_polled: int
    bundle_size: int


@dataclass(frozen=True)
class MethodSummary:
    method: str
    tasks: int
    decided: int  # rows that count toward accuracy
    correct: int
    accuracy: float | None
    mean_eval_time_s: float
    total_collections: int

    @staticmethod
    def from_rows(method: str, rows: Sequence[TaskRow]) -> "MethodSummary":
        scored = [r for r in rows if r.correct is not None]
        correct = sum(1 for r in scored if r.correct)
        return MethodSummary(
            method=method,
            tasks=len(rows),
            decided=len(scored),
            correct=correct,
            accuracy=(correct / len(scored)) if scored else None,
            mean_eval_time_s=(
                sum(r.eval_time_s for r in rows) / len(rows) if rows else 0.0
            ),
            total_collections=sum(r.collections for r in rows),
        )


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    truths: tuple[DeviceTruth, ...]
    rows: tuple[TaskRow, ...]
    summaries: dict[str, MethodSummary]
    teacher_memory: MemoryModule = field(compare=False)

    def rows_for(self, method: str) -> list[TaskRow]:
        return [r for r in self.rows if r.method == method]


def stable_u01(*parts: object) -> float:
    """Uniform [0,1) draw that depends only on the labels, not call order."""
    key = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def stable_uniform(lo: float, hi: float, *parts: object) -> float:
    return lo + (hi - lo) * stable_u01(*parts)


def _device_ids(n: int) -> list[DeviceId]:
    return [f"d{i:03d}" for i in range(n)]


def synthesize_truths(cfg: ScenarioConfig) -> tuple[DeviceTruth, ...]:
    rng = random.Random(f"{cfg.seed}/fleet")
    ids = _device_ids(cfg.device_count)
    n_bad = round(cfg.unreliable_fraction * cfg.device_count)
    n_drift = min(round(cfg.drifter_fraction * cfg.device_count), n_bad)
    bad = rng.sample(range(cfg.device_count), n_bad)
    roles = {i: Role.RELIABLE for i in range(cfg.device_count)}
    for i in bad[:n_drift]:
        roles[i] = Role.DRIFTER
    for i in bad[n_drift:]:
        roles[i] = Role.UNRELIABLE
    rates = {
        Role.RELIABLE: cfg.reliable_rate,
        Role.UNRELIABLE: cfg.unreliable_rate,
        Role.DRIFTER: cfg.drifter_rate,
    }
    truths = []
    for i, device in enumerate(ids):
        profile = ResourceProfile(
            device=device,
            cpu_cps=rng.uniform(*CPU_CPS_RANGE),
            storage_mb=rng.uniform(*STORAGE_MB_RANGE),
            bandwidth_mbps=rng.uniform(*BANDWIDTH_MBPS_RANGE),
            updated_at=0,
        )
        truths.append(DeviceTruth(device, roles[i], profile, rates[roles[i]]))
    return tuple(truths)


# The streams of a record's five draws, in the order ``synth_record`` takes them.
_STREAMS = ("sat", "loss", "thr", "proc", "acc")


def _draws(prefixes: dict, seed: object, device: object, task_type: object, index: int) -> list[float]:
    """``stable_u01(seed, stream, device, task_type, index)`` for each of ``_STREAMS``.

    Each stream's label prefix ``seed, stream, device, task_type`` is hashed
    once, into ``prefixes``; a draw copies that sha256 and feeds it the
    index. ``prefixes`` is keyed by the labels' text, never their values:
    seeds ``1``, ``1.0`` and ``True`` compare equal but label different draws.
    """
    key = (str(seed), str(device), str(task_type))
    hashes = prefixes.get(key)
    if hashes is None:
        seed_text, device_text, task_type_text = key
        hashes = prefixes[key] = [
            hashlib.sha256(f"{seed_text}\x1f{stream}\x1f{device_text}\x1f{task_type_text}\x1f".encode("utf-8"))
            for stream in _STREAMS
        ]
    index_text = str(index).encode("utf-8")
    out = []
    for prefix in hashes:
        digest = prefix.copy()
        digest.update(index_text)
        out.append(int.from_bytes(digest.digest()[:8], "big") / 2**64)
    return out


def synth_record(
    cfg: ScenarioConfig,
    truth: DeviceTruth,
    owner: DeviceId,
    task_type: TaskType,
    at: TimestampMs,
    index: int,
    *,
    prefixes: dict | None = None,
) -> PerformanceRecord:
    """The index-th collaboration outcome of this device for this task type.

    Pure in (cfg.seed, device, task_type, index): the same index yields the
    same record in either world, which is what makes the two methods a
    paired comparison. Its five draws come from ``_draws``, which keeps the
    label-prefix hashes in ``prefixes``: pass one dict for a whole run.
    """
    device = truth.device
    sat, loss_u, thr_u, proc_u, acc_u = _draws(
        {} if prefixes is None else prefixes, cfg.seed, device, task_type, index
    )
    # Each uniform is stable_uniform's lo + (hi - lo) * u, the same float operations.
    satisfied = sat < truth.reliability
    base_loss = cfg.drifter_base_loss if truth.drifts else cfg.base_loss
    drift = cfg.drift_loss_per_record * index if truth.drifts else 0.0
    loss = base_loss + drift + (-0.002 + (0.002 - -0.002) * loss_u)
    throughput = truth.profile.bandwidth_mbps * (0.9 + (1.1 - 0.9) * thr_u)
    proc_speed = 2.0 * (0.9 + (1.1 - 0.9) * proc_u)
    accuracy = 0.97 + (0.99 - 0.97) * acc_u
    if not satisfied:
        # Mild degradation: strong enough to justify the verdict, weak enough
        # that a handful of failures does not read as a metric trend.
        loss += 0.01
        throughput *= 0.9
        proc_speed *= 0.9
        accuracy -= 0.10
    return PerformanceRecord(
        owner=owner,
        collaborator=device,
        task_type=task_type,
        at=at,
        throughput_mbps=throughput,
        loss_rate=min(max(loss, 0.0), 1.0),
        proc_speed_mbps=proc_speed,
        accuracy=min(max(accuracy, 0.0), 1.0),
        verdict=Verdict.SATISFIED if satisfied else Verdict.UNSATISFIED,
    )


def synthesize_warmup(
    cfg: ScenarioConfig, truths: Sequence[DeviceTruth]
) -> list[PerformanceRecord]:
    """Pre-task history, identical for both worlds, record index 0..warmup-1."""
    prefixes: dict = {}
    records = []
    n = len(truths)
    for i in range(cfg.warmup_records):
        at = (i + 1) * _TICK_MS
        for j, truth in enumerate(truths):
            owner = truths[(j + 1) % n].device
            for tt in cfg.task_types:
                records.append(synth_record(cfg, truth, owner, tt, at, i, prefixes=prefixes))
    return records


def synthesize_tasks(cfg: ScenarioConfig) -> list[Task]:
    rng = random.Random(f"{cfg.seed}/tasks")
    ids = _device_ids(cfg.device_count)
    tasks = []
    for k in range(cfg.task_count):
        tt = rng.choice(cfg.task_types)
        cls = TASK_CLASSES[tt]
        tasks.append(
            Task(
                task_id=f"t{k:05d}",
                owner=rng.choice(ids),
                task_type=tt,
                size_mb=rng.uniform(cls.size_mb_low, cls.size_mb_high),
                density_cpb=cls.density_cpb,
                deadline_s=cls.deadline_s,
            )
        )
    return tasks


def _task_at(cfg: ScenarioConfig, k: int) -> TimestampMs:
    return (cfg.warmup_records + 1 + k) * _TICK_MS


def accuracy_of(
    selected: DeviceId | None,
    task: Task,
    truths_by_id: dict[DeviceId, DeviceTruth],
    trust_threshold: float,
    match_cfg: MatchConfig,
    now: TimestampMs,
) -> bool | None:
    """Score one selection against ground truth.

    A device is a valid collaborator iff its true reliability clears the
    trust threshold and its true resources pass the matching chain. Picking
    a valid device is correct; picking an invalid one, or picking nothing
    while a valid option existed, is incorrect; picking nothing when nothing
    valid existed does not count either way.
    """

    def valid(device: DeviceId) -> bool:
        truth = truths_by_id[device]
        if truth.reliability < trust_threshold:
            return False
        return evaluate_chain(task, truth.profile, now, match_cfg).matched

    if selected is not None:
        return valid(selected)
    any_valid = any(
        valid(d) for d in truths_by_id if d != task.owner
    )
    return False if any_valid else None


class ServedWorld:
    """The 2tsd method: devices report to the teacher, which answers from memory.

    ``ingest`` hands its records to the teacher as one batch, so each
    (device, task type) pair it touches is extracted once: the warm-up
    costs one extraction per pair, not one per record.
    """

    method = METHOD_2TSD

    def __init__(self, cfg: ScenarioConfig, truths: Sequence[DeviceTruth], engine=None):
        self.cfg = cfg
        self.teacher = TeacherAgent(
            MemoryModule(),
            engine or DeterministicEngine(cfg.trend, cfg.state),
            cfg.match,
            cfg.teacher_window_k,
        )
        self.history = self.teacher.memory.history
        for truth in truths:
            self.teacher.handle_resource_report(truth.profile)

    def ingest(self, records: Iterable[PerformanceRecord]) -> None:
        self.teacher.handle_performance_records(records)

    def select(self, task: Task, now: TimestampMs) -> tuple[DeviceId | None, float, int, int]:
        """Returns (selected, eval_time_s, polled, bundle_size); nothing is polled."""
        bundle = self.teacher.handle_task_request(task, now)
        retrieved = len(self.teacher.memory.semantics.devices_for(task.task_type))
        lat = self.cfg.latency
        eval_time = 2 * lat.l_msg_s + lat.c_eng_s + lat.c_ret_s * retrieved
        return decide(bundle, self.cfg.policy), eval_time, 0, len(bundle.device_ids)


class DirectPollingBaseline:
    """Owner-side selection with no server: poll everyone, judge locally."""

    method = METHOD_BASELINE

    def __init__(self, cfg: ScenarioConfig, truths: Sequence[DeviceTruth]):
        self.cfg = cfg
        self.truths_by_id = {t.device: t for t in truths}
        self.history = HistoryStore()

    def ingest(self, records: Iterable[PerformanceRecord]) -> None:
        for record in records:
            self.history.append(record)

    def select(self, task: Task, now: TimestampMs) -> tuple[DeviceId | None, float, int, int]:
        """Returns (selected, eval_time_s, polled, bundle_size); no bundle is sent."""
        cfg = self.cfg
        polled = [d for d in sorted(self.truths_by_id) if d != task.owner]
        semantics = [
            extract_semantics(
                device,
                task.task_type,
                self.history.query(
                    HistoryQuery(device, task.task_type, last_k=cfg.baseline_window_k)
                ),
                cfg.trend,
                cfg.state,
            )
            for device in polled
        ]
        bundle = assemble_bundle(
            task, semantics, lambda d: self.truths_by_id[d].profile, now, cfg.match
        )
        selected = decide(bundle, cfg.policy)
        lat = cfg.latency
        eval_time = len(polled) * (2 * lat.l_msg_s + cfg.baseline_window_k * lat.c_rec_s)
        eval_time += lat.c_eng_s
        return selected, eval_time, len(polled), 0


def run_scenario(cfg: ScenarioConfig, engine=None) -> RunResult:
    """Run the task stream through both worlds and score each pick against ground truth.

    Each world takes the whole warm-up in one ``ingest`` call and each
    ambient round in another; a selection's record is fed to it on its own.
    Records are made once per task for both worlds: a memo maps each
    (device, task type, index, owner, at) fed during the task to its record,
    so the second world to feed a key gets the first one's immutable record,
    and an index where the worlds' histories have diverged simply misses.
    The memo is dropped when the task ends.
    """
    truths = synthesize_truths(cfg)
    truths_by_id = {t.device: t for t in truths}
    warmup = synthesize_warmup(cfg, truths)
    tasks = synthesize_tasks(cfg)
    served = ServedWorld(cfg, truths, engine)
    worlds = (served, DirectPollingBaseline(cfg, truths))
    for world in worlds:
        world.ingest(warmup)
    prefixes: dict = {}  # the run's label-prefix hashes, for synth_record
    ambient_pairs = [
        (truth, truths[(j + 1) % len(truths)].device, tt)
        for j, truth in enumerate(truths)
        for tt in cfg.task_types
    ]

    def next_record(
        made: dict, world: ServedWorld | DirectPollingBaseline,
        truth: DeviceTruth, owner: DeviceId, tt: TaskType, at: TimestampMs,
    ) -> PerformanceRecord:
        """The device's next collaboration outcome in this world, from ``made`` if the other world made it."""
        index = world.history.count_for(truth.device, tt)
        key = (truth.device, tt, index, owner, at)
        record = made.get(key)
        if record is None:
            record = made[key] = synth_record(cfg, truth, owner, tt, at, index, prefixes=prefixes)
        return record

    rows: list[TaskRow] = []
    for k, task in enumerate(tasks):
        now = _task_at(cfg, k)
        ambient = cfg.ambient_every_n_tasks and k % cfg.ambient_every_n_tasks == 0
        made: dict = {}
        for world in worlds:
            if ambient:
                # Background collaborations, pushed to the teacher as they
                # happen and sitting in device logs until the baseline polls.
                # Each pair appears once, so every index is read before any
                # of the round's records lands.
                world.ingest([
                    next_record(made, world, truth, owner, tt, now - 100)
                    for truth, owner, tt in ambient_pairs
                ])
            selected, eval_time, polled, bundle_size = world.select(task, now)
            correct = accuracy_of(
                selected, task, truths_by_id, cfg.state.trust_threshold, cfg.match, now
            )
            rows.append(TaskRow(
                task_id=task.task_id, task_type=task.task_type, owner=task.owner,
                method=world.method, selected=selected, correct=correct,
                eval_time_s=eval_time, collections=polled, candidates_polled=polled,
                bundle_size=bundle_size,
            ))
            if selected is not None:
                world.ingest((next_record(made, world, truths_by_id[selected], task.owner,
                                          task.task_type, now + _TICK_MS // 2),))

    summaries = {
        w.method: MethodSummary.from_rows(w.method, [r for r in rows if r.method == w.method])
        for w in worlds
    }
    return RunResult(cfg, truths, tuple(rows), summaries, served.teacher.memory)


def eval_time_sweep(
    cfg: ScenarioConfig, device_counts: Iterable[int]
) -> dict[int, RunResult]:
    """Same scenario at several fleet sizes; everything else held fixed."""
    return {n: run_scenario(replace(cfg, device_count=n)) for n in device_counts}


def accuracy_over_seeds(
    cfg: ScenarioConfig, seeds: Iterable[int]
) -> dict[int, RunResult]:
    return {s: run_scenario(replace(cfg, seed=s)) for s in seeds}


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


TASKS_CSV_HEADER = [f.name for f in fields(TaskRow)]
SUMMARY_CSV_HEADER = [f.name for f in fields(MethodSummary)]


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """The header, then one line per row with every cell spelled by ``_fmt``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_tasks_csv(path: str | Path, rows: Sequence[TaskRow]) -> None:
    write_csv(path, TASKS_CSV_HEADER, ([getattr(r, f) for f in TASKS_CSV_HEADER] for r in rows))


def write_summary_csv(path: str | Path, summaries: dict[str, MethodSummary]) -> None:
    write_csv(
        path,
        SUMMARY_CSV_HEADER,
        ([getattr(summaries[m], f) for f in SUMMARY_CSV_HEADER] for m in sorted(summaries)),
    )
