"""Run-to-run spread of the benchmark's end-to-end metrics.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload grid --seeds 1-10 --seconds 15

It runs ``perfbench/run.py --trace 0`` once per seed, one after another,
and prints for every end-to-end metric the median of the runs and their
spread: the distance between the first and the third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  The
same is printed for the unscaled timings (``raw_<name>`` on stderr), so
that the effect of stating timings at the reference speed
(``perfbench/speed.py``) can be seen.  Exits 1 if a run fails or is not
correct.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from typing import Dict, List

#: A stderr summary line of run.py naming an unscaled timing.
RAW_LINE = re.compile(r"\s*\S+ \((raw_\S+)\s*\)\s+(\S+)")


def seeds_of(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", default="15")
    args = parser.parse_args()
    if len(seeds_of(args.seeds)) < 2:
        parser.error("a spread needs at least two seeds")
    values: Dict[str, List[float]] = {}
    for seed in seeds_of(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr[-3000:])
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {time.perf_counter() - start:.1f} s wall, "
              f"attempted {doc['attempted']}, failed {doc['failed']}",
              flush=True)
        if not doc["correct"]:
            print(proc.stderr[-3000:])
            return 1
        for name, metric in doc["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        for line in proc.stderr.splitlines():
            match = RAW_LINE.match(line)
            if match:
                values.setdefault(match.group(1), []).append(
                    float(match.group(2)))
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{args.workload:>9} {name:<32} median {median:12.6g}  "
              f"spread {(q3 - q1) / median:7.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
