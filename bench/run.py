"""Benchmark of the served teacher and the paired simulation.

Usage, from the root of a checkout:

    python3 bench/run.py --workload ingest-deep --seed 1 --seconds 15 --trace 0

A run is three cycles. Each cycle builds the workload's warm snapshot in its
own process through the program's public store API, starts ``twotsd serve``
on it twice in its own process, once for the start probe alone and once to
drive it for a third of ``--seconds`` with a closed loop of whole rounds
over one connection, then runs the workload's ``twotsd simulate`` scenario
once. Every time is scaled by host-speed probes taken around it
(``hostspeed``). Every bundle and every simulation output is checked
against ``oracle``. With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics. With ``--trace 1`` one untraced
and one traced pass run over the same inputs and the JSON object holds the
per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import sys
import time

import hostspeed
import oracle
import serving
import tracing
import workloads

ROOT = os.getcwd()
CYCLES = 3


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _quantile(xs, q: int, of: int) -> float:
    """The q-th of ``of`` quantiles, as statistics.quantiles cuts them."""
    return statistics.quantiles(xs, n=of, method="inclusive")[q - 1]


class Tally:
    """Attempted and failed operations per kind."""
    def __init__(self):
        self.counts: dict[str, list[int]] = {}

    def add(self, kind: str, ok: bool) -> None:
        c = self.counts.setdefault(kind, [0, 0])
        c[0] += 1
        c[1] += 0 if ok else 1

    def totals(self) -> tuple[int, int]:
        return (sum(c[0] for c in self.counts.values()),
                sum(c[1] for c in self.counts.values()))


def setup(wl, seed: int, snapshot: str):
    """Build the warm snapshot, stamped now, in its own process.

    Returns the raw and scaled set-up times and what the oracle needs of the
    snapshot: roles, profiles, each pair's newest window and the stamp. A fresh
    stamp for every build keeps the fleet's fresh and stale make-up the same
    however long a run takes.
    """
    stamp = workloads.now_ms()
    cmd = [sys.executable, os.path.join(serving.BENCH_DIR, "workloads.py"), "--workload",
           wl.name, "--seed", str(seed), "--stamp", str(stamp), "--out", snapshot]
    env = serving.child_env(ROOT)
    raw, scaled, code = hostspeed.run_process(cmd, cwd=ROOT, env=env)
    if code != 0:
        raise RuntimeError(f"set-up exited with code {code}")
    roles, profiles, tails = workloads.snapshot_inputs(wl, seed, stamp, keep=workloads.WINDOW_K)
    return (raw, scaled), (roles, profiles, tails, stamp)


def serve_phase(wl, seed: int, seconds: float, snapshot: str, state, tally: Tally,
                errors: list, spans_out: str | None = None):
    """Serve the snapshot, drive it, stop it and check every reply.

    Returns the client's log, the server's peak RSS and its raw and scaled
    start times.
    """
    roles, profiles, tails, stamp = state
    server = serving.start_server(ROOT, snapshot, spans_out)
    log = serving.ClientLog()
    try:
        serving.drive(server, workloads.OpStream(wl, seed, roles, stamp), seconds, log)
    finally:
        rss = serving.peak_rss_mb(server.proc.pid) if server.proc.poll() is None else float("nan")
        serving.stop_server(server.proc)
    start = (log.first_reply_s,
             log.first_reply_s * hostspeed.scale((server.probe_s, log.probes[0][3])))
    judge = oracle.BundleOracle(workloads.STALENESS_S)
    for p in profiles:
        judge.profile(p)
    for records in tails.values():
        for r in records:
            judge.record(r)
    for (kind, _, payload), out in zip(log.ops, log.outcomes):
        tally.add(kind, out.ok)
        if not out.ok:
            continue
        if kind == "performance_record":
            judge.record(payload)
        elif kind == "resource_report":
            judge.profile(payload)
        else:
            errors.extend(judge.check_request(payload, out.reply))
    return log, rss, start


def simulate_phase(wl, out: str, tally: Tally, errors: list, spans_out: str | None = None,
                   first: str | None = None):
    """Run the workload's simulate scenario once and check its outputs.

    ``first`` is an earlier output directory of the same scenario; the files
    must be byte-identical to it. Returns the raw and scaled wall times, or
    None on failure.
    """
    raw, scaled, code = serving.run_cli(ROOT, ["simulate", *wl.simulate, "--out", out], spans_out)
    tally.add("simulate", code == 0)
    if code != 0:
        return None
    scenario = oracle.resolve_scenario(ROOT, wl.simulate)
    errors.extend(f"simulate: {e}" for e in oracle.check_simulation(out, scenario))
    for name in ("tasks.csv", "summary.csv", "manifest.json") if first else ():
        if not filecmp.cmp(os.path.join(first, name), os.path.join(out, name), shallow=False):
            errors.append(f"simulate: {name} differs between reruns")
    return raw, scaled


def serving_figures(logs, scaled: bool = True) -> dict:
    """Loop figures over every cycle of the run, samples pooled.

    Pooling spreads each figure's samples over the whole run. With ``scaled``
    every round trip is scaled by the host-speed probes around it. Each log's
    first outcome is the start probe, which is not part of the loop.
    """
    ms = {"performance_record": [], "task_request": []}
    replies, ops = [], 0
    for log in logs:
        scales = log.scales() if scaled else [1.0] * len(log.outcomes)
        for o, k in zip(log.outcomes[1:], scales[1:]):
            ops += 1
            if o.kind in ms:
                ms[o.kind].append(o.latency_s * 1e3 * k)
            if o.kind == "task_request":
                replies.append(o.reply_bytes)
    return {
        "ops_per_s": ops / sum(log.loop_s(scaled) for log in logs),
        "ingest_mean_ms": statistics.fmean(ms["performance_record"]),
        "ingest_p95_ms": _quantile(ms["performance_record"], 19, 20),
        "request_mean_ms": statistics.fmean(ms["task_request"]),
        "request_p90_ms": _quantile(ms["task_request"], 9, 10),
        "bundle_kb": statistics.fmean(replies) / 1024.0,
        "samples": {kind: len(v) for kind, v in ms.items()},
        "p50_ms": {kind: statistics.median(v) for kind, v in ms.items()},
    }


UNITS = {
    "setup_s": "s", "server_start_s": "s", "ops_per_s": "ops/s", "ingest_mean_ms": "ms",
    "ingest_p95_ms": "ms", "request_mean_ms": "ms", "request_p90_ms": "ms", "bundle_kb": "KiB",
    "peak_rss_mb": "MB", "simulate_s": "s",
}


def run_plain(wl, seed: int, seconds: float, work: str, tally: Tally, errors: list) -> dict:
    """CYCLES x (set up; start the server for the probe alone; start it again and
    serve for seconds/CYCLES; simulate once), interleaved so that a slow spell of
    the machine touches every metric a little instead of one a lot.

    Every time is scaled by the host-speed probes around it; the raw figures are
    printed too. Loop figures pool every cycle's samples; set-up, start and
    simulate times are medians, which a spell of the machine that the probes
    around one event miss cannot move.
    """
    snapshot = os.path.join(work, "snapshot.json")
    setups, starts, rss, walls, logs = [], [], [], [], []
    for c in range(CYCLES):
        setup_s, state = setup(wl, seed, snapshot)
        setups.append(setup_s)
        for serve_s in (0.0, seconds / CYCLES):
            log, peak, start = serve_phase(wl, seed, serve_s, snapshot, state, tally, errors)
            starts.append(start)
        logs.append(log)
        rss.append(peak)
        wall = simulate_phase(wl, os.path.join(work, f"sim{c}"), tally, errors,
                              first=os.path.join(work, "sim0") if c else None)
        walls += [wall] if wall else []
        print(f"cycle {c}: " + ", ".join(
            f"{name} {' '.join(f'{x[0]:.3f}/{x[1]:.3f}' for x in xs)} s"
            for name, xs in (("set-up", setups[-1:]), ("starts", starts[-2:]),
                             ("simulate", [wall] if wall else []))) + " (raw/scaled)")

    for i, label in ((0, "raw"), (1, "scaled")):  # events hold (raw, scaled) times
        figures = serving_figures(logs, scaled=bool(i))
        figures.update(
            setup_s=statistics.median(s[i] for s in setups),
            server_start_s=statistics.median(s[i] for s in starts),
            peak_rss_mb=statistics.median(rss),
            simulate_s=statistics.median(w[i] for w in walls),
        )
        print(f"{label}: " + " ".join(f"{n}={figures[n]:.6g}" for n in UNITS)
              + " p50_ms=" + ",".join(f"{v:.4g}" for v in figures["p50_ms"].values()))
    probes = [p[3] for log in logs for p in log.probes]
    print(f"loop samples: {figures['samples']}, host-speed probe median "
          f"{statistics.median(probes) * 1e3:.4g} ms of {len(probes)}")
    return {name: (figures[name], UNITS[name]) for name in UNITS}


def run_traced(wl, seed: int, seconds: float, work: str, tally: Tally, errors: list) -> dict:
    """One untraced and one traced pass over the same inputs, each on a snapshot
    built for it and serving for half of ``seconds``; per-layer metrics come from
    the traced pass, the overhead from the difference in scaled figures."""
    snapshot = os.path.join(work, "snapshot.json")
    _, state = setup(wl, seed, snapshot)
    plain_log, _, _ = serve_phase(wl, seed, seconds / 2, snapshot, state, tally, errors)
    plain_wall = simulate_phase(wl, os.path.join(work, "plain"), tally, errors)

    _, state = setup(wl, seed, snapshot)
    client_tracer = tracing.Tracer()
    tracing.install(client_tracer)
    server_spans = os.path.join(work, "server-spans.json")
    sim_spans = os.path.join(work, "sim-spans.json")
    traced_log, _, _ = serve_phase(wl, seed, seconds / 2, snapshot, state, tally, errors,
                                   server_spans)
    traced_wall = simulate_phase(wl, os.path.join(work, "traced"), tally, errors, sim_spans,
                                 first=os.path.join(work, "plain"))
    with open(server_spans) as fh:
        server = json.load(fh)
    with open(sim_spans) as fh:
        sim = json.load(fh)
    nan = (float("nan"), float("nan"))
    untraced = {"ops_per_s": serving_figures([plain_log])["ops_per_s"],
                "simulate_s": (plain_wall or nan)[1]}
    traced = {"ops_per_s": serving_figures([traced_log])["ops_per_s"],
              "simulate_s": (traced_wall or nan)[1]}
    print(f"untraced: {untraced}  traced: {traced}")
    return tracing.layer_metrics(server, client_tracer.spans, sim, traced_log.outcomes[1:],
                                 os.path.getsize(snapshot), untraced, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like an exception, so every server and child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # A handled SIGINT is reset to the default in children, an ignored one (as in
    # a background job of a shell script) would be inherited, and the servers are
    # stopped with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    for needed in ("src/twotsd/cli.py", "configs/default.yaml", "configs/large_fleet.yaml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return _fail(f"{needed} not found; run from the root of a twotsd checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        return _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    work = os.path.join(ROOT, ".bench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    tally, errors = Tally(), []
    try:
        run = run_traced if args.trace else run_plain
        metrics = run(wl, args.seed, args.seconds, work, tally, errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for kind, (attempted, failed) in sorted(tally.counts.items()):
        print(f"ops {kind}: attempted={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for e in errors[:20]:
        print(f"oracle: {e}")
    if errors:
        print(f"oracle: {len(errors)} mismatches")
    attempted, failed = tally.totals()
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
