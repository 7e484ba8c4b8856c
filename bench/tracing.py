"""Spans around the program's layer functions, recorded from outside.

``install`` replaces public functions, methods and module attributes of
``twotsd`` with wrappers that record one span per call: id, name, start,
end, parent span id, request id and one measured value (a count, a size or
a message kind). Spans stay in memory and are written out once, at the end.
Nothing in ``src/`` changes; a function imported by name into another module
is replaced there too, so every caller goes through the wrapper.

``layer_metrics`` turns the spans of one traced run into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time

ID, NAME, START, END, PARENT, REQ, VALUE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, value=None, request=None):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            req = request(args) if request else (parent[REQ] if parent else None)
            span = [next(ids), name, 0.0, 0.0, parent[ID] if parent else 0, req, None]
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if value is not None:
                span[VALUE] = value(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def _targets():
    from twotsd import cli, domain, matching, memory, protocol, semantics, simulation, student, teacher

    return [
        ("memory.history_append", memory.HistoryStore, "append", None, None),
        ("memory.history_query", memory.HistoryStore, "query",
         lambda a, r: (a[0].count_for(a[1].collaborator, a[1].task_type), len(r)), None),
        ("memory.tree_upsert", memory.SemanticsTree, "upsert", None, None),
        ("memory.tree_read", memory.SemanticsTree, "get_by_task_type", lambda a, r: len(r), None),
        ("memory.resource_get", memory.ResourceStore, "get", None, None),
        ("memory.snapshot_load", memory.MemoryModule, "load", None, None),
        ("semantics.extract", semantics, "extract_semantics", lambda a, r: r.record_count, None),
        ("matching.chain", matching, "evaluate_chain", lambda a, r: r.matched, None),
        ("teacher.ingest", teacher.TeacherAgent, "handle_performance_record", None, None),
        ("teacher.report", teacher.TeacherAgent, "handle_resource_report", None, None),
        ("teacher.request", teacher.TeacherAgent, "handle_task_request",
         lambda a, r: len(r.candidates), None),
        ("protocol.dispatch", protocol.TrustServer, "dispatch", None, lambda a: a[1].msg_id),
        ("protocol.encode", protocol, "encode", lambda a, r: [a[0].kind.value, len(r)], None),
        ("protocol.decode_body", protocol, "_decode_body", lambda a, r: r.kind.value, None),
        ("protocol.decode", protocol, "decode", lambda a, r: r.kind.value, None),
        ("domain.validate_record", domain, "validate_record", None, None),
        ("student.decide", student, "decide", None, None),
        ("simulation.run_scenario", simulation, "run_scenario", None, None),
        ("simulation.baseline_select", simulation.DirectPollingBaseline, "select", None, None),
        ("simulation.synth", simulation, "synth_record", None, None),
        ("simulation.synth", simulation, "synthesize_truths", None, None),
        ("simulation.synth", simulation, "synthesize_warmup", None, None),
        ("simulation.synth", simulation, "synthesize_tasks", None, None),
        ("cli.write_outputs", simulation, "write_tasks_csv", None, None),
        ("cli.write_outputs", simulation, "write_summary_csv", None, None),
        ("cli.write_outputs", cli, "_write_manifest", None, None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    for name, owner, attr, value, request in _targets():
        if isinstance(owner, type):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, value, request)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, value, request))
            continue
        fn = getattr(owner, attr)
        wrapped = tracer.wrap(name, fn, value, request)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("twotsd") and getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapped)


def _mean(xs) -> float:
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


def _dur(s) -> float:
    return s[END] - s[START]


def _by_name(spans) -> dict[str, list]:
    out: dict[str, list] = {}
    for s in spans:
        out.setdefault(s[NAME], []).append(s)
    return out


def _child_time(spans) -> dict[int, float]:
    out: dict[int, float] = {}
    for s in spans:
        if s[PARENT]:
            out[s[PARENT]] = out.get(s[PARENT], 0.0) + _dur(s)
    return out


def _top_level_total(spans, name: str) -> float:
    """Time covered by spans called ``name``, not counting nested ones twice."""
    names = {s[ID]: s[NAME] for s in spans}
    return sum(_dur(s) for s in spans if s[NAME] == name and names.get(s[PARENT]) != name)


def layer_metrics(server, client, sim, outcomes, snapshot_bytes: int,
                  untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit).

    ``server`` and ``client`` are the spans of the serving phase, ``sim`` of
    one ``simulate`` run; ``outcomes`` are the client's operation outcomes.
    ``untraced`` and ``traced`` hold ``ops_per_s`` and ``simulate_s`` of the
    two runs; the tracing overhead is how much slower the traced one was, in
    percent of the untraced figure.
    """
    us = 1e6
    sv = _by_name(server)
    cl = _by_name(client)
    sm = _by_name(sim)
    child = _child_time(server)

    def mean_us(spans):
        return _mean(_dur(s) for s in spans) * us

    def self_us(spans):
        return _mean(_dur(s) - child.get(s[ID], 0.0) for s in spans) * us

    queries = sv.get("memory.history_query", [])
    ids = [s[VALUE][0] for s in queries]
    returned = [s[VALUE][1] for s in queries]
    requests = sv.get("teacher.request", [])
    request_ids = {s[ID] for s in requests}
    chains = sv.get("matching.chain", [])
    encodes = sv.get("protocol.encode", [])
    bundle_encodes = [s for s in encodes if s[VALUE][0] == "candidate_bundle"]
    decodes = sv.get("protocol.decode_body", [])
    dispatch = {s[REQ]: _dur(s) for s in sv.get("protocol.dispatch", [])}
    wire = [o.latency_s - dispatch[o.msg_id] for o in outcomes
            if o.kind == "performance_record" and o.msg_id in dispatch]
    sim_total = sum(_dur(s) for s in sm.get("simulation.run_scenario", []))
    sim_names = {s[ID]: s[NAME] for s in sim}
    teacher_path = sum(_dur(s) for s in sim if s[NAME].startswith("teacher.")
                       and not sim_names.get(s[PARENT], "").startswith("teacher."))

    def slowdown(key, sign):
        return 100.0 * sign * (traced[key] - untraced[key]) / untraced[key]

    return {
        "memory.history_query_us": (mean_us(queries), "us"),
        "memory.history_ids_per_query": (_mean(ids), "count"),
        "memory.history_query_yield": (sum(returned) / sum(ids) if sum(ids) else 0.0, "ratio"),
        "memory.history_append_us": (mean_us(sv.get("memory.history_append", [])), "us"),
        "memory.tree_upsert_us": (mean_us(sv.get("memory.tree_upsert", [])), "us"),
        "memory.tree_read_us": (mean_us(sv.get("memory.tree_read", [])), "us"),
        "memory.tree_entries_per_request": (
            _mean(s[VALUE] for s in sv.get("memory.tree_read", [])), "count"),
        "memory.resource_get_us": (mean_us(sv.get("memory.resource_get", [])), "us"),
        "memory.snapshot_load_s": (
            sum(_dur(s) for s in sv.get("memory.snapshot_load", [])), "s"),
        "memory.snapshot_bytes": (float(snapshot_bytes), "bytes"),
        "semantics.extract_us": (mean_us(sv.get("semantics.extract", [])), "us"),
        "semantics.records_per_extract": (
            _mean(s[VALUE] for s in sv.get("semantics.extract", [])), "count"),
        "matching.chain_us": (mean_us(chains), "us"),
        "matching.chains_per_request": (
            sum(1 for s in chains if s[PARENT] in request_ids) / len(requests)
            if requests else 0.0, "count"),
        "matching.match_yield": (
            sum(1 for s in chains if s[VALUE]) / len(chains) if chains else 0.0, "ratio"),
        "teacher.ingest_us": (mean_us(sv.get("teacher.ingest", [])), "us"),
        "teacher.ingest_self_us": (self_us(sv.get("teacher.ingest", [])), "us"),
        "teacher.report_us": (mean_us(sv.get("teacher.report", [])), "us"),
        "teacher.request_us": (mean_us(requests), "us"),
        "teacher.request_self_us": (self_us(requests), "us"),
        "teacher.bundle_size": (_mean(s[VALUE] for s in requests), "count"),
        "protocol.encode_bundle_us": (mean_us(bundle_encodes), "us"),
        "protocol.decode_bundle_us": (
            mean_us(s for s in cl.get("protocol.decode", []) if s[VALUE] == "candidate_bundle"),
            "us"),
        "protocol.response_bytes": (_mean(s[VALUE][1] for s in encodes), "bytes"),
        "protocol.decode_record_us": (
            mean_us(s for s in decodes if s[VALUE] == "performance_record"), "us"),
        "protocol.dispatch_us": (mean_us(sv.get("protocol.dispatch", [])), "us"),
        "protocol.dispatch_self_us": (self_us(sv.get("protocol.dispatch", [])), "us"),
        "protocol.wire_us": (_mean(wire) * us, "us"),
        "domain.validate_record_us": (mean_us(sv.get("domain.validate_record", [])), "us"),
        "student.decide_us": (mean_us(cl.get("student.decide", [])), "us"),
        "simulation.run_scenario_s": (sim_total, "s"),
        "simulation.teacher_path_s": (teacher_path, "s"),
        "simulation.baseline_select_s": (
            sum(_dur(s) for s in sm.get("simulation.baseline_select", [])), "s"),
        "simulation.synth_s": (_top_level_total(sim, "simulation.synth"), "s"),
        "simulation.extract_s": (_top_level_total(sim, "semantics.extract"), "s"),
        "cli.write_outputs_s": (sum(_dur(s) for s in sm.get("cli.write_outputs", [])), "s"),
        "trace.ops_per_s_overhead": (slowdown("ops_per_s", -1), "%"),
        "trace.simulate_s_overhead": (slowdown("simulate_s", 1), "%"),
    }
