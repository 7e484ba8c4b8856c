"""Run the CI workflow's steps on this host, in order, as the runner would.

usage: python3 tools/run_workflow.py

Reads ``.github/workflows/tests.yml`` and runs each ``run:`` step of its job
from the repository root, in the step's declared ``shell`` (the runner's
``bash -e {0}`` when none is declared), for the matrix leg of this host's
Python. The steps share one fresh ``RUNNER_TEMP`` directory, as a job's steps
do on the runner, and each sees ``src`` on ``PYTHONPATH`` and, first on
``PATH``, a ``twotsd`` shim that runs ``twotsd.cli:main`` as the installed
console script would. ``uses:`` steps
(checkout, setup-python) and the ``pip install`` step are skipped and named:
the checkout is this tree, the interpreter is this host's, and the shim and
``PYTHONPATH`` stand in for the install. A step whose ``if:`` is false for
this leg is skipped and named too.

Prints pass or fail per step and exits 1 at the first failed step, 0 when
every step ran and passed. The steps' commands are run as written; nothing
is left out of what they check. Standard library and PyYAML only.
"""

from __future__ import annotations

import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time

import yaml

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tests.yml")

# The runner's templates: a step without ``shell`` runs under ``bash -e``;
# ``shell: bash`` and ``shell: sh`` are its named shells.
DEFAULT_SHELL = "bash -e {0}"
NAMED_SHELLS = {"bash": "bash --noprofile --norc -eo pipefail {0}", "sh": "sh -e {0}"}

SHIM = """#!/bin/sh
exec {python} -c 'import sys; from twotsd.cli import main; sys.argv[0] = "twotsd"; sys.exit(main())' "$@"
"""

_MATRIX_EQ = re.compile(r"^\s*matrix\.([\w-]+)\s*==\s*'([^']*)'\s*$")


def step_name(step: dict) -> str:
    return step.get("name") or step.get("uses") or step["run"].strip().splitlines()[0]


def condition_holds(expr, matrix: dict) -> bool:
    """The step's ``if:``; only the ``matrix.<key> == '<value>'`` form the workflow uses is understood."""
    if expr is None:
        return True
    match = _MATRIX_EQ.match(str(expr))
    if match is None:
        raise SystemExit(f"run_workflow: cannot evaluate if: {expr!r}")
    return str(matrix.get(match.group(1))) == match.group(2)


def command_line(shell: str | None, script_path: str) -> list[str]:
    """The argv of a step's shell template with the script's path for ``{0}``."""
    template = NAMED_SHELLS.get(shell, shell) if shell else DEFAULT_SHELL
    if "{0}" not in template:
        template += " {0}"
    return [script_path if word == "{0}" else word for word in shlex.split(template)]


def run_step(argv: list[str], env: dict, timeout_s: float) -> int:
    """Run one step in its own process group, then kill whatever of the group is left.

    A step still running at the job's deadline is killed whole and reads as
    exit -1; a server a failed step left in the background goes with it.
    """
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, start_new_session=True)
    try:
        status = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print("run_workflow: step still running at the job's timeout, killed", flush=True)
        status = -1
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # nothing of the group is left
        pass
    proc.wait()
    return status


def main() -> int:
    with open(WORKFLOW) as f:
        workflow = yaml.safe_load(f)
    (job_name, job), = workflow["jobs"].items()
    leg = f"{sys.version_info.major}.{sys.version_info.minor}"
    legs = [str(v) for v in job.get("strategy", {}).get("matrix", {}).get("python-version", [leg])]
    if leg not in legs:
        print(f"run_workflow: this host's Python {leg} is not a matrix leg ({', '.join(legs)})")
        return 2
    matrix = {"python-version": leg}
    deadline = time.monotonic() + 60 * float(job.get("timeout-minutes", 360))

    results = []
    with tempfile.TemporaryDirectory(prefix="run-workflow-") as scratch:
        shim_dir, scripts, runner_temp = (os.path.join(scratch, d) for d in ("bin", "scripts", "temp"))
        for directory in (shim_dir, scripts, runner_temp):
            os.mkdir(directory)
        shim = os.path.join(shim_dir, "twotsd")
        with open(shim, "w") as f:
            f.write(SHIM.format(python=shlex.quote(sys.executable)))
        os.chmod(shim, 0o755)
        env = dict(os.environ)
        env["PATH"] = shim_dir + os.pathsep + env.get("PATH", "")
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["RUNNER_TEMP"] = runner_temp

        print(f"job {job_name}, Python {leg} leg")
        failed = False
        for number, step in enumerate(job["steps"], 1):
            name = step_name(step)
            if failed:
                results.append((name, "not run (an earlier step failed)"))
                continue
            if "uses" in step:
                results.append((name, "skipped (uses: action; this tree and host Python stand in)"))
                continue
            if step["run"].strip().startswith("pip install"):
                results.append((name, "skipped (install; the twotsd shim and PYTHONPATH stand in)"))
                continue
            if not condition_holds(step.get("if"), matrix):
                results.append((name, f"skipped (if: {step['if']} is false on this leg)"))
                continue
            if "${{" in step["run"]:
                raise SystemExit(f"run_workflow: step {name!r} uses an expression this runner does not expand")
            script = os.path.join(scripts, f"step{number}.sh")
            with open(script, "w") as f:
                f.write(step["run"])
            print(f"\n=== step {number}: {name}", flush=True)
            started = time.monotonic()
            status = run_step(command_line(step.get("shell"), script), env, max(deadline - time.monotonic(), 1.0))
            verdict = "passed" if status == 0 else f"FAILED (exit {status})"
            results.append((name, f"{verdict} in {time.monotonic() - started:.1f} s"))
            failed = status != 0

    print("\nstep results:")
    for name, outcome in results:
        print(f"  {name}: {outcome}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
