"""Command line front end.

Subcommands:

* ``simulate``: one scenario, both methods, writes tasks.csv / summary.csv /
  manifest.json (and optionally a memory snapshot) into --out.
* ``compare``: fleet-size sweep plus seed sweep, writes evaluation_time.csv,
  data_collections.csv and accuracy.csv.
* ``serve``: run the teacher behind the TCP protocol until interrupted.
* ``inspect``: pretty-print a memory snapshot file.

Exit codes: 0 success, 1 runtime failure, 2 bad usage or configuration.
Output files for a given config and seed are byte-identical across reruns;
the manifest deliberately carries no timestamps.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from enum import Enum
from pathlib import Path
from typing import Any, Sequence

import yaml

from . import __version__
from .codec import canonical_json_bytes
from .errors import ConfigError, TwoTsdError, ValidationError
from .matching import MatchConfig
from .memory import MemoryModule
from .semantics import DeterministicEngine, StateConfig, TrendConfig
from .simulation import (
    LatencyModel,
    MethodSummary,
    RunResult,
    ScenarioConfig,
    accuracy_over_seeds,
    eval_time_sweep,
    run_scenario,
    write_csv,
    write_summary_csv,
    write_tasks_csv,
)
from .student import DecisionPolicy, PolicyKind, default_adverse_map
from .domain import Trend

_NESTED_SECTIONS = {
    "latency": LatencyModel,
    "trend": TrendConfig,
    "state": StateConfig,
    "match": MatchConfig,
}


def _policy_from_dict(doc: dict[str, Any]) -> DecisionPolicy:
    doc = dict(doc)
    kwargs: dict[str, Any] = {}
    if "kind" in doc:
        kwargs["kind"] = PolicyKind(doc.pop("kind"))
    if "adverse_map" in doc:
        raw = doc.pop("adverse_map")
        kwargs["adverse_map"] = {m: Trend(t) for m, t in raw.items()}
    kwargs.update(doc)
    return DecisionPolicy(**kwargs)


def scenario_from_dict(doc: dict[str, Any]) -> ScenarioConfig:
    """Build a scenario from a plain mapping (YAML shape)."""
    doc = dict(doc)
    kwargs: dict[str, Any] = {}
    for key, cls in _NESTED_SECTIONS.items():
        if key in doc:
            section = doc.pop(key)
            if not isinstance(section, dict):
                raise ConfigError(f"config section {key!r} must be a mapping")
            try:
                kwargs[key] = cls(**section)
            except TypeError as exc:
                raise ConfigError(f"bad {key} section: {exc}") from None
    if "policy" in doc:
        section = doc.pop("policy")
        if not isinstance(section, dict):
            raise ConfigError("config section 'policy' must be a mapping")
        try:
            kwargs["policy"] = _policy_from_dict(section)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad policy section: {exc}") from None
    if "task_types" in doc:
        kwargs["task_types"] = tuple(doc.pop("task_types"))
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
    kwargs.update(doc)
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def to_jsonable(value: Any) -> Any:
    """Dataclasses, enums and tuples down to plain JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: to_jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def apply_override(doc: dict[str, Any], expr: str) -> None:
    """Apply one ``dotted.path=value`` override; the value parses as YAML."""
    key, sep, raw = expr.partition("=")
    if not sep or not key.strip():
        raise ConfigError(f"override must look like key=value, got {expr!r}")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"bad override value in {expr!r}: {exc}") from None
    node = doc
    parts = key.strip().split(".")
    for part in parts[:-1]:
        child = node.setdefault(part, {})
        if not isinstance(child, dict):
            raise ConfigError(f"override path {key!r} crosses non-mapping {part!r}")
        node = child
    node[parts[-1]] = value


def load_scenario(
    config_path: str | None,
    overrides: Sequence[str],
    seed: int | None,
) -> ScenarioConfig:
    doc: dict[str, Any] = {}
    if config_path is not None:
        with open(config_path) as fh:
            loaded = yaml.safe_load(fh)
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {config_path} must hold a mapping")
        doc = loaded
    for expr in overrides:
        apply_override(doc, expr)
    if seed is not None:
        doc["seed"] = seed
    return scenario_from_dict(doc)


def parse_int_list(spec: str) -> list[int]:
    """``"10,20,40"`` or ``"0-9"`` (inclusive) or a mix of both."""
    out: list[int] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition("-")
        try:
            if sep and lo:
                a, b = int(lo), int(hi)
                if b < a:
                    raise ConfigError(f"descending range {chunk!r}")
                out.extend(range(a, b + 1))
            else:
                out.append(int(chunk))
        except ValueError:
            raise ConfigError(f"bad integer list entry {chunk!r}") from None
    if not out:
        raise ConfigError(f"empty integer list {spec!r}")
    return out


def _build_engine(args: argparse.Namespace, cfg: ScenarioConfig):
    if args.engine == "deterministic":
        return DeterministicEngine(cfg.trend, cfg.state)
    from .remote_engine import RemoteEngineConfig, RemoteSemanticsEngine

    endpoint = args.remote_endpoint or os.environ.get("TWOTSD_REMOTE_ENDPOINT")
    if not endpoint:
        raise ConfigError(
            "remote engine needs --remote-endpoint or TWOTSD_REMOTE_ENDPOINT"
        )
    remote_cfg = RemoteEngineConfig(
        endpoint=endpoint,
        model=args.remote_model,
        timeout_s=args.remote_timeout,
    )
    return RemoteSemanticsEngine(remote_cfg, cfg.trend, cfg.state)


class _OutputStage:
    """Collects written paths so a failed run leaves no partial outputs."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        p = self.out_dir / name
        self.written.append(p)
        return p

    def discard(self) -> None:
        for p in self.written:
            try:
                p.unlink()
            except OSError:
                pass


def _write_manifest(stage: _OutputStage, cfg: ScenarioConfig, command: str) -> None:
    config_doc = to_jsonable(cfg)
    manifest = {
        "format": "twotsd-run",
        "tool_version": __version__,
        "command": command,
        "seed": cfg.seed,
        "config": config_doc,
        "config_sha256": hashlib.sha256(canonical_json_bytes(config_doc)).hexdigest(),
    }
    stage.path("manifest.json").write_bytes(canonical_json_bytes(manifest) + b"\n")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.config, args.override, args.seed)
    engine = _build_engine(args, cfg)
    result = run_scenario(cfg, engine=engine)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = _OutputStage(out_dir)
    try:
        write_tasks_csv(stage.path("tasks.csv"), result.rows)
        write_summary_csv(stage.path("summary.csv"), result.summaries)
        _write_manifest(stage, cfg, "simulate")
        if args.snapshot:
            result.teacher_memory.save(stage.path("snapshot.json"))
    except Exception:
        stage.discard()
        raise
    for method in sorted(result.summaries):
        s = result.summaries[method]
        acc = "n/a" if s.accuracy is None else f"{s.accuracy:.3f}"
        print(
            f"{method}: tasks={s.tasks} accuracy={acc} "
            f"mean_eval_time_s={s.mean_eval_time_s:.4f} "
            f"collections={s.total_collections}"
        )
    print(f"wrote {out_dir}")
    return 0


def _summaries_by_method(
    runs: dict[int, RunResult], keys: Sequence[int]
) -> list[tuple[int, MethodSummary]]:
    """(key, summary) for each key in order, then each method by name."""
    return [(k, runs[k].summaries[m]) for k in keys for m in sorted(runs[k].summaries)]


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_scenario(args.config, args.override, args.seed)
    device_counts = parse_int_list(args.devices)
    seeds = parse_int_list(args.seeds)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = _OutputStage(out_dir)
    try:
        sweep = _summaries_by_method(eval_time_sweep(cfg, device_counts), device_counts)
        write_csv(
            stage.path("evaluation_time.csv"),
            ["device_count", "method", "mean_eval_time_s"],
            [(n, s.method, s.mean_eval_time_s) for n, s in sweep],
        )
        write_csv(
            stage.path("data_collections.csv"),
            ["device_count", "method", "tasks", "total_collections"],
            [(n, s.method, s.tasks, s.total_collections) for n, s in sweep],
        )
        acc_runs = accuracy_over_seeds(cfg, seeds)
        write_csv(
            stage.path("accuracy.csv"),
            ["seed", "method", "decided", "accuracy"],
            [(seed, s.method, s.decided, s.accuracy)
             for seed, s in _summaries_by_method(acc_runs, seeds)],
        )
        _write_manifest(stage, cfg, "compare")
    except Exception:
        stage.discard()
        raise
    for method in ("2tsd", "baseline"):
        accs = [
            r.summaries[method].accuracy
            for r in acc_runs.values()
            if r.summaries[method].accuracy is not None
        ]
        mean_acc = sum(accs) / len(accs) if accs else float("nan")
        print(f"{method}: mean accuracy over {len(seeds)} seeds = {mean_acc:.3f}")
    print(f"wrote {out_dir}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .protocol import TrustServer
    from .teacher import TeacherAgent, TeacherConfig

    cfg = load_scenario(args.config, args.override, args.seed)
    memory = MemoryModule.load(args.snapshot) if args.snapshot else MemoryModule()
    engine = _build_engine(args, cfg)
    teacher = TeacherAgent(
        memory, engine, cfg.match, TeacherConfig(history_window_k=cfg.teacher_window_k)
    )
    server = TrustServer(
        teacher, host=args.host, port=args.port, clock=lambda: int(time.time() * 1000)
    )
    host, port = server.address
    try:
        print(f"listening on {host}:{port}", flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # No shutdown(): it only stops a serve_forever running in another
        # thread, and it waits forever when one never started here.
        server.server_close()
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    memory = MemoryModule.load(args.snapshot)
    tree = memory.semantics
    print(
        f"resources={len(memory.resources)} "
        f"history={len(memory.history)} "
        f"semantics_leaves={tree.leaf_count()}"
    )
    for tt in tree.task_types():
        entries = tree.get_by_task_type(tt)
        print(f"task_type={tt} devices={len(entries)}")
        for ts in entries:
            trends = " ".join(
                f"{metric}={trend.value}" for metric, trend in ts.all_trends().items()
            )
            window = "-" if ts.window is None else f"{ts.window[0]}..{ts.window[1]}"
            print(
                f"  {ts.device} state={ts.state.value} n={ts.record_count} "
                f"window={window} {trends}"
            )
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML scenario config file")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="config override with a dotted path, repeatable",
    )


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        choices=["deterministic", "remote"],
        default="deterministic",
        help="trust extraction engine",
    )
    parser.add_argument("--remote-endpoint", default=None)
    parser.add_argument("--remote-model", default="trust-extractor-1")
    parser.add_argument("--remote-timeout", type=float, default=10.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotsd",
        description="Trust-aware collaborator selection: simulate, compare, serve.",
    )
    parser.add_argument("--version", action="version", version=f"twotsd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario and write CSV results")
    _add_common(p)
    _add_engine(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--snapshot", action="store_true", help="also save the teacher memory snapshot"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="fleet-size and seed sweeps")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--devices", default="10,20,40", help="fleet sizes, e.g. 10,20,40")
    p.add_argument("--seeds", default="0-9", help="seeds, e.g. 0-9 or 3,5,8")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("serve", help="run the teacher as a TCP service")
    _add_common(p)
    _add_engine(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7421)
    p.add_argument("--snapshot", default=None, help="seed memory from a snapshot file")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("inspect", help="print a memory snapshot")
    p.add_argument("--snapshot", required=True, help="snapshot file to read")
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TwoTsdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
