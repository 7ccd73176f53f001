"""Benchmark of the compile, fuzz, discovery and serve loops.

Run from the root of a checkout::

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Workloads: ``grid``, ``fuzz``, ``discover``, ``serve`` (see
``perfbench/workloads.py`` and ``perfbench/records.json``).  The program
is imported from the checkout's ``src/``; nothing is installed.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics.  ``--trace 1`` runs every round index twice, once with the layer
hooks installed and once without, reports the per-layer metrics, and
writes the spans as Chrome trace-event JSON to
``.perfbench/trace-<workload>-seed<seed>.json`` (open it in Perfetto).

End-to-end timings are stated at a reference machine speed: between
operations the run times a fixed kernel and scales the times taken since
the last reading (``perfbench/speed.py``).  The summary on stderr gives
the same figures unscaled, as ``raw_<name>``.

A summary goes to stderr.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, each metric a
``{"value", "unit"}`` pair.  Exit status 0 means a result was printed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
#: Set-up runs per process; ``setup_s`` reports the median import time
#: of a fresh interpreter plus the median workload set-up, each set-up
#: scaled by the speed readings taken right before and after it.
SETUP_REPEATS = 5
#: Rounds measured even when one round outlasts ``--seconds``.
MIN_ROUNDS = 2

#: End-to-end metrics: name -> unit.  An operation is a grid cell, a fuzz
#: program, a priced discovery variant or a server request.
#: ``op_ms_worst10pct_mean`` is the mean latency of the slowest tenth of
#: the operations.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_worst10pct_mean": "ms",
}
#: End-to-end timings that also go to stderr unscaled, as ``raw_<name>``.
RAW_TIMINGS = ("setup_s", "ops_per_s", "op_ms_p50", "op_ms_worst10pct_mean")

#: Span names whose self time is reported per operation as ``<name>_ms``.
SPAN_METRICS = (
    "frontend.parse", "analysis.lint", "analysis.absint",
    "analysis.irverify", "lowering.lower", "opt.opt",
    "opt.canonicalize", "opt.propagate", "opt.cse", "opt.strength",
    "opt.range-narrow", "opt.share", "opt.dce",
    "scheduling.schedule", "scheduling.solve", "scheduling.milp",
    "hls.hwgen", "hls.emit",
    "sim.cosim", "sim.golden", "sim.codegen", "sim.crosscheck",
    "sim.core_model",
    "fuzz.generate", "fuzz.oracles",
    "discover.enumerate", "discover.emit", "discover.price", "eval.asic",
    "service.cache_get", "service.cache_put",
)
#: Server spans laid out from job records; reported from the records.
SERVER_SPANS = ("server.http", "server.queue_wait", "server.exec")
#: Counts taken from the first traced round, which repeat exactly for one
#: seed: name -> unit.
ROUND_COUNTS = {
    "opt.nodes_before": "count", "opt.nodes_after": "count",
    "scheduling.components": "count",
    "scheduling.makespan_cycles": "cycles", "hls.sv_bytes": "bytes",
    "sim.codegen_count": "count", "sim.batched_trials": "count",
    "discover.candidates": "count", "discover.winner_speedup": "x",
    "server.executions": "count", "server.coalesced": "count",
    "server.rejected_429": "count",
}
#: Ratios over every traced round: name -> (numerator, denominator).  A
#: denominator of ``None`` means the number of server requests; otherwise
#: the ratio is numerator / (numerator + other).
RATIOS = {
    "analysis.absint_hit_ratio": ("absint.hits", "absint.analyses"),
    "scheduling.cache_hit_ratio": ("sched.hits", "sched.misses"),
    "sim.scalar_fallback_ratio": ("sim.scalar_fallbacks",
                                  "sim.batched_trials"),
    "discover.verified_ratio": ("discover.verified", "discover.rejected"),
    "service.cache_hit_ratio": ("server.cache_hits_disk",
                                "server.cache_misses"),
    "server.memory_hit_ratio": ("server.cache_hits_memory", None),
    "server.disk_hit_ratio": ("server.cache_hits_disk", None),
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    units = {f"{name}_ms": "ms/op" for name in SPAN_METRICS + SERVER_SPANS}
    units.update(ROUND_COUNTS)
    units.update({name: "ratio" for name in RATIOS})
    units["other_ms"] = "ms/op"
    units["trace_overhead_pct"] = "%"
    return units


def import_program() -> None:
    """Import the program from this checkout's ``src/`` (never from an
    installed copy)."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(ROOT))
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent.parent != src:
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {src}")
    # Every layer any workload uses, so that set-up cost is comparable.
    import repro.discover.search  # noqa: F401
    import repro.fuzz.campaign  # noqa: F401
    import repro.hls.longnail  # noqa: F401
    import repro.server  # noqa: F401
    import repro.service.executor  # noqa: F401
    import repro.sim.cosim  # noqa: F401


def run_round(workload, index: int, tally, tracer=None) -> None:
    """Prepare round ``index`` (untimed) and run it into ``tally``.  With
    a tracer, the layer hooks are installed for the timed part only."""
    from perfbench.workloads import install_layer_hooks, program_counters

    workload.prepare_round(index)
    hooks: collections.Counter = collections.Counter()
    if tracer is not None:
        hooks = install_layer_hooks(tracer)
    before = program_counters()
    first_busy = len(tally.samples["busy"])
    try:
        operations = workload.run_round(index, tally, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    counts = program_counters() - before
    counts.update(hooks)
    counts.update(workload.round_counts())
    tally.round_counts.append(counts)
    tally.end_round(first_busy, operations)


def measure(workload, seconds: float):
    """Run untraced rounds for ``seconds`` (at least ``MIN_ROUNDS``), each
    one's times scaled to the reference speed; returns the tally."""
    from perfbench.workloads import Tally

    tally = Tally()
    deadline = time.perf_counter() + seconds
    index = 0
    tally.read_speed()
    while index < MIN_ROUNDS or time.perf_counter() < deadline:
        run_round(workload, index, tally)
        index += 1
    return tally


def measure_traced(workload, seconds: float, tracer):
    """Run every round index twice for ``seconds`` (at least
    ``MIN_ROUNDS`` indices): once traced, once untraced, the traced one
    first on even indices.  Returns the traced and the untraced tally,
    whose rounds pair up on the same inputs."""
    from perfbench.workloads import Tally

    traced, plain = Tally(), Tally()
    deadline = time.perf_counter() + seconds
    index = 0
    traced.read_speed()
    plain.read_speed()
    while index < MIN_ROUNDS or time.perf_counter() < deadline:
        pair = [(traced, tracer), (plain, None)]
        for tally, hooks in pair if index % 2 == 0 else reversed(pair):
            run_round(workload, index, tally, hooks)
        index += 1
    return traced, plain


def end_to_end(tally, setup_s: float, raw: bool = False) -> Dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": tally.rate(raw),
        "op_ms_p50": tally.ms("op", 0.50, raw),
        "op_ms_worst10pct_mean": tally.worst_mean_ms(0.10, raw),
    }


def per_layer(traced, plain, tracer) -> Dict[str, float]:
    ops = max(1, traced.ops)
    own = tracer.self_seconds()
    values: Dict[str, float] = {
        f"{name}_ms": own.get(name, 0.0) * 1000.0 / ops
        for name in SPAN_METRICS
    }
    latency = sum(job[0] for job in traced.jobs)
    total = sum(job[1] for job in traced.jobs)
    queued = sum(job[2] for job in traced.jobs)
    run = sum(job[3] for job in traced.jobs)
    values["server.http_ms"] = (latency - total) * 1000.0 / ops
    values["server.queue_wait_ms"] = queued * 1000.0 / ops
    values["server.exec_ms"] = run * 1000.0 / ops
    first = traced.round_counts[0]
    for name in ROUND_COUNTS:
        values[name] = first.get(name, 0)
    totals = traced.totals()
    requests = len(traced.jobs)
    for name, (hit, other) in RATIOS.items():
        base = requests if other is None else totals[hit] + totals[other]
        values[name] = totals[hit] / base if base else 0.0
    # Self time of the structural spans (cell, program, search, request,
    # compile_isax) is time no layer span covers.
    covered = set(SPAN_METRICS) | set(SERVER_SPANS)
    values["other_ms"] = sum(
        seconds for name, seconds in own.items()
        if name not in covered) * 1000.0 / ops
    # Each traced round against the untraced round of the same index.
    values["trace_overhead_pct"] = (statistics.median(
        untraced / hooked
        for untraced, hooked in zip(plain.raw_rates, traced.raw_rates))
        - 1.0) * 100.0
    return values


#: A child interpreter's import of the program, timed by the child itself
#: (interpreter start-up is not the program's) between two speed readings;
#: it prints ``[reading, import seconds, reading]``.
IMPORT_PROBE = (
    "import json, sys, time; sys.path.insert(0, '.')\n"
    "from perfbench.speed import reference_kernel\n"
    "from perfbench.run import import_program\n"
    "before = reference_kernel(); start = time.perf_counter()\n"
    "import_program(); seconds = time.perf_counter() - start\n"
    "print(json.dumps([before, seconds, reference_kernel()]))\n")


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between the speed readings ``before`` and
    ``after``, scaled to the reference speed like the timed operations."""
    from perfbench.speed import REFERENCE_KERNEL_S

    return seconds * REFERENCE_KERNEL_S / ((before + after) / 2)


def set_up(workload) -> Tuple[float, float]:
    """Import the program in ``SETUP_REPEATS`` child interpreters (each
    waited for) and set the workload up ``SETUP_REPEATS`` times; returns
    the median import time plus the median set-up time, at the reference
    speed and as measured."""
    from perfbench.speed import reference_kernel

    imports, raw_imports = [], []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                               cwd=ROOT, check=True, capture_output=True,
                               text=True)
        before, seconds, after = json.loads(child.stdout.splitlines()[-1])
        imports.append(at_reference_speed(seconds, before, after))
        raw_imports.append(seconds)
    setups, raw_setups = [], []
    before = reference_kernel()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        seconds = time.perf_counter() - start
        after = reference_kernel()
        setups.append(at_reference_speed(seconds, before, after))
        raw_setups.append(seconds)
        before = after
    median = statistics.median
    return (median(imports) + median(setups),
            median(raw_imports) + median(raw_setups))


def run(workload_name: str, seed: int, seconds: float,
        trace: bool) -> Tuple[dict, List[str], List[str]]:
    """One measured run; returns the result object, the failures and the
    summary lines for stderr."""
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[workload_name](seed, str(WORK_DIR))
    try:
        setup_s, raw_setup_s = set_up(workload)
        if not trace:
            tally = measure(workload, seconds)
            workload.finish(tally)
            metrics = end_to_end(tally, setup_s)
            units = END_TO_END
            checked = [tally]
        else:
            tracer = Tracer()
            traced, plain = measure_traced(workload, seconds, tracer)
            workload.finish(plain)
            metrics = per_layer(traced, plain, tracer)
            units = per_layer_units()
            checked = [traced, plain]
            tally = plain
            path = WORK_DIR / f"trace-{workload_name}-seed{seed}.json"
            tracer.write_chrome_trace(str(path), {
                "workload": workload_name, "seed": seed,
                "operations": traced.ops, "metrics": metrics,
                "rows": traced.rows,
            })
            print(f"trace: {path}", file=sys.stderr)
    finally:
        workload.close()
    attempted = sum(t.attempted for t in checked)
    failed = sum(t.failed for t in checked)
    failures = [f for t in checked for f in t.failures]
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    # The workload's own names for its end-to-end figures (cells/s,
    # request p99, ...) and the unscaled timings, from the untraced rounds.
    raw = end_to_end(tally, raw_setup_s, raw=True)
    named = {
        "fail_ratio": (failed / max(1, attempted), "failed/attempted"),
        **workload.named_metrics(tally),
        **{f"raw_{name}": (raw[name], END_TO_END[name])
           for name in RAW_TIMINGS},
        "ops_timed": (tally.ops, "count"),
        "rounds": (len(tally.raw_rates), "count"),
    }
    summary = [f"{workload_name:>9} {name:<30} {metric['value']:>14.6g} "
               f"{metric['unit']}" for name, metric in result["metrics"].items()]
    summary += [f"{workload_name:>9} ({name:<28}) {value:>14.6g} {unit}"
                for name, (value, unit) in named.items()]
    return result, failures, summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid", "fuzz", "discover", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (perfbench/selftest.py)")
    args = parser.parse_args(argv)
    # One CPU runs every thread of the run (the server's worker thread
    # too), the CPU whose speed the readings of ``perfbench.speed`` see.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        import_program()
    except ImportError as err:
        print(f"error: cannot import the program from {ROOT / 'src'}: "
              f"{err}", file=sys.stderr)
        return 2
    if args.tiny:
        from perfbench import workloads
        workloads.shrink()
    result, failures, summary = run(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("\n".join(summary), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
