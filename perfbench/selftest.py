"""Self-test of the benchmark at tiny sizes (about six minutes).

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs ``perfbench/run.py --tiny`` once untraced and
twice traced with the same seed, and checks that

* the last stdout line is the result object, ``correct`` is true, and
  every metric of ``BENCHMARK.json`` appears with its unit (end-to-end
  metrics untraced and non-zero, per-layer metrics traced);
* the count metrics repeat exactly across the two traced runs (a
  difference is nondeterminism);
* the Chrome trace export parses, every span has a name, start, duration,
  parent and operation id, and it carries one row per cell, seed, search
  or request round.

Finally it runs the benchmark from a directory holding only
``BENCHMARK.json`` and ``perfbench/``, where it must fail without printing
a result.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import math
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.run import ROUND_COUNTS, WORK_DIR  # noqa: E402

SEED = 5
SECONDS = "1"


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAIL: {message}")
        sys.exit(1)


def result_of(proc: subprocess.CompletedProcess, label: str) -> dict:
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n"
          f"{proc.stderr[-3000:]}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(doc) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(doc)}")
    check(doc["correct"] is True and doc["failed"] == 0
          and doc["attempted"] >= 1,
          f"{label}: not correct: {proc.stderr[-3000:]}")
    return doc


def check_metrics(doc: dict, spec: list, label: str,
                  nonzero: bool) -> None:
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    check(got == expected, f"{label}: metrics/units differ: "
          f"{set(got.items()) ^ set(expected.items())}")
    for name, metric in doc["metrics"].items():
        value = metric["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {name} = {value!r}")
        if nonzero:
            check(value != 0, f"{label}: {name} is 0")


def check_trace(workload: str) -> None:
    path = WORK_DIR / f"trace-{workload}-seed{SEED}.json"
    doc = json.loads(path.read_text())
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    check(spans, f"{workload}: trace has no spans")
    for event in spans:
        check(all(k in event for k in ("name", "ts", "dur", "tid"))
              and {"parent", "id", "span"} <= set(event["args"]),
              f"{workload}: malformed span {event}")
    check(any(e["args"]["id"] for e in spans),
          f"{workload}: no span carries an operation id")
    check(doc["perfbench"]["rows"], f"{workload}: trace has no rows")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        common = ("--workload", workload, "--seed", str(SEED),
                  "--seconds", SECONDS, "--tiny")
        plain = result_of(bench(*common, "--trace", "0"), workload)
        check_metrics(plain, spec["end_to_end"], workload, nonzero=True)
        counts = []
        for attempt in range(2):
            traced = result_of(bench(*common, "--trace", "1"),
                               f"{workload} traced")
            check_metrics(traced, spec["per_layer"], f"{workload} traced",
                          nonzero=False)
            counts.append({name: traced["metrics"][name]["value"]
                           for name in ROUND_COUNTS})
        check(counts[0] == counts[1],
              f"{workload}: nondeterministic counts {counts}")
        check_trace(workload)
        print(f"selftest {workload}: ok")

    bare = WORK_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "grid", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/ the benchmark must fail without a result")
    print("selftest bare checkout: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
