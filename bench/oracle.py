"""Expected outputs recomputed apart from the program.

Nothing here imports ``twotsd``. The bundle oracle replays every profile and
record the benchmark sent, in send order, and recomputes each candidate
bundle from the paper's rules: trust over the newest ``WINDOW_K`` records,
closed-form index-regression trends, the five-stage matching chain, the
owner's exclusion, ordering by device id and the ``trend_averse`` pick. The
simulation oracle checks ``tasks.csv`` and ``summary.csv`` against the
analytic latency model recomputed from the scenario config.
"""

from __future__ import annotations

import csv
from collections import deque
from pathlib import Path

METRICS = ("throughput", "loss_rate", "accuracy", "proc_speed")
ADVERSE = {"throughput": "decreasing", "loss_rate": "increasing",
           "accuracy": "decreasing", "proc_speed": "decreasing"}
BITS_PER_MB = 8e6
# The served teacher's rules: trust needs N_MIN+ records in the newest
# WINDOW_K with a satisfied share of TRUST_THRESHOLD; a trend is a normalised
# slope beyond TREND_THRESHOLD, the mean floored per metric.
WINDOW_K = 20
N_MIN = 5
TRUST_THRESHOLD = 0.8
TREND_THRESHOLD = 0.10
FLOORS = {"throughput": 1e-6, "loss_rate": 0.05, "accuracy": 1e-6, "proc_speed": 1e-6}
# A value this close (relatively) to a threshold may round either way.
EDGE = 1e-9


def _near(a: float, b: float) -> bool:
    return abs(a - b) <= EDGE * max(abs(a), abs(b), 1e-12)


def trend_labels(values, threshold: float, floor: float) -> set[str]:
    """Acceptable labels for one metric series: the closed-form index regression."""
    n = len(values)
    mx = (n - 1) / 2.0
    my = sum(values) / n
    sxx = sum((i - mx) ** 2 for i in range(n))
    sxy = sum((i - mx) * (v - my) for i, v in enumerate(values))
    s = (sxy / sxx) * (n - 1) / max(my, floor)
    labels = set()
    if s > threshold or _near(s, threshold):
        labels.add("increasing")
    if s < -threshold or _near(s, -threshold):
        labels.add("decreasing")
    if -threshold <= s <= threshold or _near(abs(s), threshold):
        labels.add("normal")
    return labels


def trend_averse_pick(candidates) -> str | None:
    """Default student: first device with no adverse trend, else the least adverse."""
    counts = sorted((sum(1 for m, bad in ADVERSE.items() if trends[m] == bad), dev)
                    for dev, trends in candidates)
    if not counts:
        return None
    clean = [dev for n, dev in counts if n == 0]
    return min(clean) if clean else counts[0][1]


class BundleOracle:
    """Replays sent profiles and records; judges each returned bundle.

    Profiles are ``(device, cpu_cps, storage_mb, bandwidth_mbps, updated_at)``;
    records are ``(owner, collaborator, task_type, at, throughput, loss,
    proc_speed, accuracy, satisfied)``; tasks are ``(task_id, owner,
    task_type, size_mb, density_cpb, deadline_s)``.
    """

    def __init__(self, staleness_s: float):
        self.staleness_s = staleness_s
        self.profiles: dict[str, tuple] = {}
        self.windows: dict[tuple, deque] = {}
        self.by_type: dict[str, set] = {}
        self._expect: dict[tuple, dict | None] = {}

    def profile(self, p: tuple) -> None:
        current = self.profiles.get(p[0])
        if current is None or p[4] >= current[4]:
            self.profiles[p[0]] = p

    def record(self, r: tuple) -> None:
        key = (r[1], r[2])
        window = self.windows.get(key)
        if window is None:
            window = self.windows[key] = deque(maxlen=WINDOW_K)
            self.by_type.setdefault(r[2], set()).add(r[1])
        # Records of a pair arrive in timestamp order, so the newest window is a tail.
        window.append(r)
        self._expect.pop(key, None)

    def semantics(self, key: tuple) -> dict | None:
        """Expected semantics of a trusted pair, or None when not trusted."""
        if key in self._expect:
            return self._expect[key]
        window = list(self.windows[key])
        n = len(window)
        out = None
        if n >= N_MIN and sum(1 for r in window if r[8]) / n >= TRUST_THRESHOLD:
            columns = {"throughput": 4, "loss_rate": 5, "proc_speed": 6, "accuracy": 7}
            out = {
                "trends": {m: trend_labels([r[c] for r in window], TREND_THRESHOLD, FLOORS[m])
                           for m, c in columns.items()},
                "record_count": n,
                "window": (window[0][3], window[-1][3]),
                "extracted_at": window[-1][3],
            }
        self._expect[key] = out
        return out

    def chain(self, task: tuple, device: str, now: int) -> set[bool]:
        """Possible match outcomes of the five-stage chain (two only on a knife edge)."""
        p = self.profiles.get(device)
        if p is None:
            return {False}
        _, cpu, storage, bandwidth, updated_at = p
        _, _, _, size_mb, density, deadline = task
        age_s = (now - updated_at) / 1000.0
        bits = size_mb * BITS_PER_MB
        carry = bits / (bandwidth * 1e6) + bits * density / cpu
        checks = ((age_s, self.staleness_s), (size_mb, storage), (carry, deadline))
        if any(_near(value, bound) for value, bound in checks):
            return {True, False}
        return {all(value <= bound for value, bound in checks)}

    def check_request(self, task: tuple, reply: dict | None) -> list[str]:
        """Errors in one returned bundle (empty when it is right)."""
        if reply is None:
            return [f"{task[0]}: no bundle"]
        task_id, owner, task_type = task[:3]
        errors = []
        if reply["task_id"] != task_id:
            errors.append(f"{task_id}: bundle for task {reply['task_id']}")
        now = reply["generated_at"]
        if not reply["sent_ms"] <= now <= reply["recv_ms"]:
            errors.append(f"{task_id}: generated_at {now} outside the round trip")
        must, maybe = set(), set()
        for device in self.by_type.get(task_type, ()):
            if device == owner or self.semantics((device, task_type)) is None:
                continue
            outcomes = self.chain(task, device, now)
            if outcomes == {True}:
                must.add(device)
            elif True in outcomes:
                maybe.add(device)
        got = [c[0] for c in reply["candidates"]]
        if got != sorted(got) or len(set(got)) != len(got):
            errors.append(f"{task_id}: candidates not in strict device order")
        missing = must - set(got)
        extra = set(got) - must - maybe
        if missing:
            errors.append(f"{task_id}: missing candidates {sorted(missing)[:5]}")
        if extra:
            errors.append(f"{task_id}: unexpected candidates {sorted(extra)[:5]}")
        for device, tt, state, trends, count, window, extracted_at, matched in reply["candidates"]:
            if device in extra:
                continue
            want = self.semantics((device, task_type))
            where = f"{task_id}/{device}"
            if tt != task_type or state != "trusted" or not matched:
                errors.append(f"{where}: type {tt}, state {state}, matched {matched}")
            if count != want["record_count"] or tuple(window) != want["window"]:
                errors.append(f"{where}: window {window} x{count}, want "
                              f"{want['window']} x{want['record_count']}")
            if extracted_at != want["extracted_at"]:
                errors.append(f"{where}: extracted_at {extracted_at}")
            for metric in METRICS:
                if trends.get(metric) not in want["trends"][metric]:
                    errors.append(f"{where}: {metric} {trends.get(metric)}, want "
                                  f"{sorted(want['trends'][metric])}")
        pick = trend_averse_pick([(c[0], c[3]) for c in reply["candidates"]])
        if reply.get("pick") != pick:
            errors.append(f"{task_id}: student picked {reply.get('pick')}, want {pick}")
        return errors


def resolve_scenario(root: str, args) -> dict:
    """The scenario a ``simulate`` argument list runs, from the YAML files.

    ``configs/default.yaml`` lists every key with its default; the chosen
    config file, then ``--override`` values, then ``--seed`` go on top.
    """
    import yaml

    def merge(base: dict, top: dict) -> None:
        for k, v in top.items():
            if isinstance(v, dict) and isinstance(base.get(k), dict):
                merge(base[k], v)
            else:
                base[k] = v

    doc = yaml.safe_load(Path(root, "configs", "default.yaml").read_text())
    args = list(args)
    for flag, value in zip(args, args[1:]):
        if flag == "--config":
            merge(doc, yaml.safe_load(Path(root, value).read_text()) or {})
    for flag, value in zip(args, args[1:]):
        if flag == "--override":
            key, _, raw = value.partition("=")
            node = doc
            parts = key.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = yaml.safe_load(raw)
        elif flag == "--seed":
            doc["seed"] = int(value)
    return doc


def check_simulation(out_dir: str | Path, scenario: dict) -> list[str]:
    """Errors in one ``simulate`` output directory (empty when it is right)."""
    out_dir = Path(out_dir)
    errors: list[str] = []
    with open(out_dir / "tasks.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out_dir / "summary.csv", newline="") as fh:
        summary = {row["method"]: row for row in csv.DictReader(fh)}
    n_dev = scenario["device_count"]
    n_tasks = scenario["task_count"]
    lat = scenario["latency"]
    # Warm-up gives every device records of every task type, so a served
    # request reads device_count semantics entries.
    served = 2 * lat["l_msg_s"] + lat["c_eng_s"] + lat["c_ret_s"] * n_dev
    polled = (n_dev - 1) * (2 * lat["l_msg_s"] + scenario["baseline_window_k"] * lat["c_rec_s"]) \
        + lat["c_eng_s"]
    expected_eval = {"2tsd": served, "baseline": polled}
    expected_ids = [f"t{k:05d}" for k in range(n_tasks)]
    for method in ("2tsd", "baseline"):
        mine = [r for r in rows if r["method"] == method]
        if [r["task_id"] for r in mine] != expected_ids:
            errors.append(f"{method}: {len(mine)} rows, want one per task ({n_tasks})")
        for r in mine:
            where = f"{method}/{r['task_id']}"
            want_cols = 0 if method == "2tsd" else n_dev - 1
            if int(r["collections"]) != want_cols or int(r["candidates_polled"]) != want_cols:
                errors.append(f"{where}: collections {r['collections']}, polled "
                              f"{r['candidates_polled']}, want {want_cols}")
            if not _near(float(r["eval_time_s"]), expected_eval[method]):
                errors.append(f"{where}: eval_time_s {r['eval_time_s']}, want "
                              f"{expected_eval[method]!r}")
            if r["selected"] and r["selected"] == r["owner"]:
                errors.append(f"{where}: selected its own owner")
            if r["correct"] not in ("true", "false", ""):
                errors.append(f"{where}: correct is {r['correct']!r}")
            if method == "baseline" and r["bundle_size"] != "0":
                errors.append(f"{where}: baseline bundle_size {r['bundle_size']}")
            if method == "2tsd" and r["selected"] and int(r["bundle_size"]) < 1:
                errors.append(f"{where}: picked from an empty bundle")
        s = summary.get(method)
        if s is None:
            errors.append(f"summary.csv: no {method} row")
            continue
        decided = [r for r in mine if r["correct"]]
        correct = sum(1 for r in decided if r["correct"] == "true")
        mean_eval = sum(float(r["eval_time_s"]) for r in mine) / len(mine) if mine else 0.0
        got = (int(s["tasks"]), int(s["decided"]), int(s["correct"]),
               int(s["total_collections"]))
        want = (len(mine), len(decided), correct, sum(int(r["collections"]) for r in mine))
        if got != want:
            errors.append(f"summary {method}: tasks/decided/correct/collections {got}, "
                          f"tasks.csv gives {want}")
        acc = s["accuracy"]
        if (acc == "") != (not decided) or (decided and not _near(float(acc), correct / len(decided))):
            errors.append(f"summary {method}: accuracy {acc!r}, tasks.csv gives "
                          f"{correct}/{len(decided)}")
        if not _near(float(s["mean_eval_time_s"]), mean_eval):
            errors.append(f"summary {method}: mean_eval_time_s {s['mean_eval_time_s']}, "
                          f"tasks.csv gives {mean_eval!r}")
    if set(summary) != {"2tsd", "baseline"}:
        errors.append(f"summary.csv methods {sorted(summary)}")
    return errors
