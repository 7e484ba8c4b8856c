"""The served teacher in its own process, driven over the wire protocol.

One client (this process) runs a closed loop over one connection: each
operation waits for its reply before the next is sent, as devices do. The
server is ``python -u -m twotsd.cli serve`` (``-u`` because ``cmd_serve``
prints its ``listening on`` line without flushing), or the tracing launcher
in this directory with the same arguments.
"""

from __future__ import annotations

import gc
import os
import random
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import hostspeed
import workloads as wl_mod

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    spawned_at: float
    probe_s: float  # host-speed probe just before the spawn


def child_env(root: str) -> dict:
    """Environment of every process under test: the checkout's ``src`` and a
    fixed hash seed, so that one seed gives the same process behaviour."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")


def serve_args(snapshot: str) -> list[str]:
    return ["serve", "--port", "0", "--snapshot", snapshot,
            "--override", f"match.staleness_s={wl_mod.STALENESS_S}"]


def start_server(root: str, snapshot: str, spans_out: str | None = None) -> Server:
    """Spawn the server and wait for its ``listening on host:port`` line."""
    if spans_out is None:
        cmd = [sys.executable, "-u", "-m", "twotsd.cli", *serve_args(snapshot)]
    else:
        cmd = [sys.executable, "-u", os.path.join(BENCH_DIR, "launch.py"), spans_out,
               *serve_args(snapshot)]
    env = child_env(root)
    before = hostspeed.probe(hostspeed.EVENT_REPEATS)
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        if not line.startswith("listening on "):
            raise RuntimeError(f"server did not start: {line!r}")
    except BaseException:
        stop_server(proc)
        raise
    host, _, port = line.split()[-1].rpartition(":")
    return Server(proc, host, int(port), spawned_at, before)


def peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process. A child's getrusage figure would not do: on
    Linux it starts from the parent's high-water mark at fork."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def stop_server(proc: subprocess.Popen) -> None:
    """Interrupt the server and wait for it to exit. Kill it if it has not
    exited within 10 s, or if this process is itself stopped meanwhile."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=10)
    except BaseException as e:
        proc.kill()
        proc.wait()
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
    finally:
        proc.stdout.close()


def run_cli(root: str, args: list[str], spans_out: str | None = None):
    """Run one ``twotsd`` CLI command to completion, probing the machine's
    speed around it: (raw seconds, scaled seconds, exit code)."""
    if spans_out is None:
        cmd = [sys.executable, "-m", "twotsd.cli", *args]
    else:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "launch.py"), spans_out, *args]
    return hostspeed.run_process(cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise ConnectionError("server closed the connection")
        got += k
    return bytes(buf)


@dataclass
class Outcome:
    """What the client saw for one operation, in send order."""

    kind: str
    ok: bool
    latency_s: float
    reply_bytes: int
    msg_id: str
    reply: object = None  # bundle summary for requests, None otherwise


@dataclass
class ClientLog:
    ops: list = field(default_factory=list)  # (kind, sender, payload tuple)
    outcomes: list = field(default_factory=list)
    first_reply_s: float = 0.0
    # (outcomes before it, start, end, probe seconds) of every host-speed probe
    probes: list = field(default_factory=list)

    def probe(self, repeats: int = hostspeed.LOOP_REPEATS) -> None:
        t0 = time.perf_counter()
        p = hostspeed.probe(repeats)
        self.probes.append((len(self.outcomes), t0, time.perf_counter(), p))

    def loop_s(self, scaled: bool) -> float:
        """Time between the first and last probe, less the probes themselves."""
        return sum((b[1] - a[2]) * (hostspeed.scale((a[3], b[3])) if scaled else 1.0)
                   for a, b in zip(self.probes, self.probes[1:]))

    def scales(self) -> list[float]:
        """Per outcome, the scale factor of the two probes around it."""
        out = [1.0] * len(self.outcomes)
        for a, b in zip(self.probes, self.probes[1:]):
            out[a[0]:b[0]] = [hostspeed.scale((a[3], b[3]))] * (b[0] - a[0])
        return out


def bundle_summary(bundle) -> dict:
    """Plain-value view of a decoded CandidateBundle for the oracle."""
    return {
        "task_id": bundle.task_id,
        "generated_at": bundle.generated_at,
        "candidates": [
            (c.semantics.device, c.semantics.task_type, c.semantics.state.value,
             {k: v.value for k, v in c.semantics.all_trends().items()},
             c.semantics.record_count, c.semantics.window, c.semantics.extracted_at, c.matched)
            for c in bundle.candidates
        ],
    }


class Client:
    """Closed-loop client over one connection."""

    def __init__(self, host: str, port: int):
        from twotsd import protocol, student

        self.protocol = protocol
        self.student = student
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.seq = 0

    def close(self) -> None:
        self.sock.close()

    def call(self, kind: str, sender: str, payload) -> Outcome:
        p = self.protocol
        self.seq += 1
        msg_id = f"m{self.seq}"
        msg = p.Message(p.MessageKind(kind), sender, payload, msg_id, wl_mod.now_ms())
        frame = p.encode(msg)
        t0 = time.perf_counter()
        self.sock.sendall(frame)
        header = _recv_exact(self.sock, 4)
        body = _recv_exact(self.sock, int.from_bytes(header, "big"))
        reply = p.decode(header + body)
        pick = None
        if reply.kind is p.MessageKind.CANDIDATE_BUNDLE:
            pick = self.student.decide(reply.payload)
        latency = time.perf_counter() - t0
        expected = (p.MessageKind.CANDIDATE_BUNDLE if kind == "task_request"
                    else p.MessageKind.ACK)
        ok = reply.kind is expected and reply.msg_id == msg_id
        summary = None
        if reply.kind is p.MessageKind.CANDIDATE_BUNDLE:
            summary = bundle_summary(reply.payload)
            summary.update(pick=pick, sent_ms=msg.sent_at, recv_ms=wl_mod.now_ms())
        return Outcome(kind, ok, latency, len(header) + len(body), msg_id, summary)


def to_payload(kind: str, t: tuple):
    if kind == "task_request":
        return wl_mod.to_task(t)
    if kind == "performance_record":
        return wl_mod.to_record(t)
    return wl_mod.to_profile(t)


def drive(server: Server, stream: "wl_mod.OpStream", seconds: float, log: ClientLog) -> None:
    """Probe with one task request, then run whole rounds for ``seconds``.

    The probe's reply time, counted from the spawn, is the server start time.
    The machine's speed is probed after that reply, between rounds every
    ``hostspeed.PROBE_EVERY_S`` and after the last round.
    """
    client = Client(server.host, server.port)
    try:
        task = stream.task(random.Random(f"{stream.seed}/{stream.wl.name}/probe"), "probe")
        probe = ("task_request", task[1], task)
        out = client.call(*probe[:2], to_payload("task_request", task))
        log.first_reply_s = time.perf_counter() - server.spawned_at
        log.ops.append(probe)
        log.outcomes.append(out)
        # The client's log grows through the loop; collecting it would add pauses
        # of the benchmark's own making to the measured round trips.
        gc.disable()
        log.probe(hostspeed.EVENT_REPEATS)  # also the end probe of the start
        end = time.perf_counter() + seconds
        r = 0
        while time.perf_counter() < end:
            for op in stream.round(r):
                log.ops.append(op)
                log.outcomes.append(client.call(op[0], op[1], to_payload(op[0], op[2])))
            r += 1
            if time.perf_counter() - log.probes[-1][2] >= hostspeed.PROBE_EVERY_S:
                log.probe()
        log.probe()
    finally:
        gc.enable()
        client.close()
