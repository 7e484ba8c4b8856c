"""Steadiness check: two sets of runs of the same code, compared within the bounds.

Usage, from the root of a checkout:

    python3 bench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 bench/steady.py --sets 1 --runs 5 --workloads request-wide

Runs ``bench/run.py --trace 0`` once per (workload, seed), workloads
interleaved so slow spells of the machine fall on all of them alike. Set k
uses seeds 1000*k+1 .. 1000*k+runs. For each end-to-end metric it prints the
median and quartiles of every set and the spread (q3 - q1) / median. The
verdict holds when every spread is within the metric's bound, when the
second set's median is not worse than the first's by more than the bound,
and when the share of failed operations is the same in both sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma list; default: all")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in names}
    for k in range(args.sets):
        for i in range(args.runs):
            seed = 1000 * k + i + 1
            for w in names:
                r = run_once(w, seed, seconds)
                results[w][k].append(r)
                shown = " ".join(f"{n}={r['metrics'][n]['value']:.4g}" for n in metrics)
                print(f"set {k} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {shown}", flush=True)

    steady = True
    for w in names:
        print(f"\n{w}")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in results[w]]
        if any(not r["correct"] for runs in results[w] for r in runs):
            print("  some run failed its output checks")
            steady = False
        if len(set(shares)) > 1:
            print(f"  failed share differs between sets: {shares}")
            steady = False
        for name, m in metrics.items():
            cells = []
            meds = []
            for runs in results[w]:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spread = (q3 - q1) / med
                meds.append(med)
                ok = spread <= m["bound"]
                steady &= ok
                cells.append(f"median {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:.3f}"
                             f"{'' if ok else ' > bound'}")
            if len(meds) > 1:
                worse = (meds[1] - meds[0]) / meds[0]
                worse = worse if m["better"] == "lower" else -worse
                ok = worse <= m["bound"]
                steady &= ok
                cells.append(f"second set worse by {worse:+.3f}{'' if ok else ' > bound'}")
            print(f"  {name:16s} bound {m['bound']:.2f}  " + " | ".join(cells))
    print(f"\n{'steady' if steady else 'NOT steady'} within the bounds of BENCHMARK.json")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
