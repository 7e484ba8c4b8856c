"""The machine's speed at one moment, read from a fixed piece of Python work.

On the shared 2-vCPU VM this benchmark was built on, the same code runs up to
a third faster or slower from one minute to the next: a fixed loop's time
drifts on both vCPUs together while the kernel records no steal time, so the
host's other tenants, not this process, set the pace. Such a phase lasts
longer than a run, so no number of samples within a run averages it out.

The benchmark therefore runs ``probe`` right before and right after every
timed event, and between serving rounds every ``PROBE_EVERY_S`` while the
server waits for the next request, and scales each time by ``REFERENCE_S``
over the mean of the probes around it. A scaled figure reads as it would
with the probe at ``REFERENCE_S``: a change in the program moves it as it
moves the raw time, a change in the machine's pace mostly does not. The raw
figures are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import time

# About the probe's median time on the VM above; it only sets the scale at
# which figures are reported.
REFERENCE_S = 0.0015
PROBE_EVERY_S = 0.2
# Repeats of the work in one probe: between serving rounds, where probes come
# every PROBE_EVERY_S, and at each end of an event, where two probes stand
# for seconds of the program's work and short ones would read a moment's jitter.
LOOP_REPEATS = 3
EVENT_REPEATS = 15
_SIZE = 4_000


def _work() -> int:
    """Allocation, hashing, integer arithmetic and a sort, as the program does."""
    table = {}
    for i in range(_SIZE):
        table[f"k{i}"] = (i * 7919) % 1009
    return sorted(table.values())[_SIZE // 2]


def probe(repeats: int = LOOP_REPEATS) -> float:
    """Median wall time of ``repeats`` runs of the fixed work, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(probes) -> float:
    """Factor that turns a time measured among these probes into reference time."""
    return REFERENCE_S / statistics.fmean(probes)


def run_process(cmd: list[str], **popen_kwargs) -> tuple[float, float, int]:
    """Run a command to completion between two probes: (raw seconds, scaled
    seconds, exit code). Nothing is probed while it runs, where the probe would
    share the machine with the program and read its load as the host's."""
    before = probe(EVENT_REPEATS)
    t0 = time.perf_counter()
    code = subprocess.run(cmd, **popen_kwargs).returncode
    raw = time.perf_counter() - t0
    return raw, raw * scale((before, probe(EVENT_REPEATS))), code
