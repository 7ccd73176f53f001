"""A job that kills its worker process ends in a per-job error, never in
the death of the process that called the executor."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

SCRIPT = """
import json
from repro.service import BatchExecutor, TaskSpec

specs = [TaskSpec(runner="tests.service.runners:" + name,
                  payload={"value": 1}, label=name) for name in NAMES]
outcomes = BatchExecutor(workers=2, retries=RETRIES).run_specs(specs)
print(json.dumps([[o.spec.label, o.ok, o.attempts, o.error]
                  for o in outcomes]))
"""


def _run_in_subprocess(names, retries):
    """Run the batch in a child interpreter: if the crash escaped the
    pool, it would take the caller down with it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")])
    code = f"NAMES = {names!r}\nRETRIES = {retries!r}\n" + SCRIPT
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, (done.returncode, done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_dead_worker_is_a_failed_outcome():
    ((label, ok, attempts, error),) = _run_in_subprocess(["die"], 0)
    assert (label, ok, attempts) == ("die", False, 1)
    assert "BrokenProcessPool" in error


def test_retried_crash_fails_alone():
    """The crashing job fails after its retry; the job sharing its
    broken pool succeeds on the replacement pool."""
    die, echo = _run_in_subprocess(["die", "echo"], 1)
    assert die[:3] == ["die", False, 2]
    assert "BrokenProcessPool" in die[3]
    assert echo[:2] == ["echo", True]
