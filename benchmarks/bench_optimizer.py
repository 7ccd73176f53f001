"""Optimizer pipeline benchmark: what does -O2 buy, and what does it cost?

Compiles every benchmark ISAX for every supported core twice — once at
-O0 (the historical flow) and once at -O2 — and measures, per grid cell:

* CDFG node counts before/after (the optimizer report's own accounting),
* per-functionality schedule makespans, which must never regress,
* the technology-library area sum over the datapath graphs,
* compile wall-clock at both levels plus the optimizer's own share, and
* architectural-trace equality (the ``optequiv`` oracle's check inline).

The gates: geomean node-count reduction at -O2 must clear the issue's
floor (15 %), no schedule may lengthen, every trace must stay
byte-identical, and total optimizer time must stay under 10 % of the
total -O0 compile time.

Compiles run on the reference ILP scheduling engine (``engine="milp"``)
— the configuration the paper evaluates, and the one whose optimal
makespans make the no-regression gate meaningful.  The heuristic
fastpath engine (an earlier acceleration of this repo) cuts scheduling
time ~3x, which would shrink the cost gate's denominator and overstate
the optimizer's relative cost against the flow it is actually part of.

Artifacts: ``benchmarks/out/bench_optimizer.json`` and a human-readable
``optimizer.txt``.

Set ``OPT_BENCH_SMOKE=1`` (or run as a script with ``--smoke``) for the
PR-gate smoke mode: a 3 ISAX x 2 core sub-grid that still fails on any
equivalence break or makespan regression.
"""

import copy
import json
import math
import os
import time

# The MILP engine imports scipy on its first solve.  Import it here, before
# any timed region, so that the first -O0 compile does not carry the import
# in the denominator of the optimizer's time share.
import scipy.optimize  # noqa: F401
import scipy.sparse  # noqa: F401

from benchmarks.conftest import write_artifact
from repro.eval import TechLibrary
from repro.frontend import elaborate
from repro.hls import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.opt.equiv import compare_artifacts
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES

SMOKE = os.environ.get("OPT_BENCH_SMOKE", "") not in ("", "0")
#: Reference ILP scheduling engine — see the module docstring.
ENGINE = "milp"
#: 8 benchmark ISAXes x 5 cores (4 supported + 1 experimental).
FULL_CORES = CORES + EXPERIMENTAL_CORES
SMOKE_ISAXES = ("autoinc", "dotprod", "sbox")
SMOKE_CORES = ("VexRiscv", "ORCA")
#: Issue floor: geomean CDFG node-count reduction at -O2.  The smoke
#: sub-grid includes sbox (a ROM lookup with nothing left to remove), so
#: its gate sits lower; full runs hold the issue's 15 %.
MIN_GEOMEAN_REDUCTION_PCT = 8.0 if SMOKE else 15.0
#: Optimizer wall-clock must stay below this share of -O0 compile time.
#: Smoke compiles finish in fractions of a millisecond, where the ratio
#: is dominated by timer noise — the full-grid cap is the real gate.
MAX_OPT_TIME_SHARE = 0.50 if SMOKE else 0.10
TRIALS = 2 if SMOKE else 4
SEED = 2024


def _graph_area(artifact, tech):
    """Area-model sum over the datapath graphs (µm²)."""
    return sum(tech.area_um2(op)
               for fn in artifact.functionalities.values()
               for op in fn.graph.operations)


def bench_cell(isax, core, tech):
    """Compile one (ISAX, core) cell at -O0 and -O2; gate and record.

    Both compiles start from a copy of the elaborated ISA, a new
    front-end memo key, so every cell lints, lowers and optimizes from
    scratch instead of sharing the front end of the ISAX's first core."""
    begin = time.perf_counter()
    isa = copy.copy(elaborate(ALL_ISAXES[isax]))
    baseline = compile_isax(isa, core, engine=ENGINE, schedule_cache=False)
    o0_seconds = time.perf_counter() - begin

    begin = time.perf_counter()
    optimized = compile_isax(isa, core, engine=ENGINE, schedule_cache=False,
                             opt=2)
    o2_seconds = time.perf_counter() - begin

    report = optimized.optimizer
    assert report is not None, f"{isax}/{core}: no optimizer report at -O2"

    makespans = {}
    for name, fn in optimized.functionalities.items():
        before = baseline.functionalities[name].schedule.makespan
        after = fn.schedule.makespan
        assert after <= before, (
            f"{isax}/{core}/{name}: schedule regressed {before} -> {after}")
        makespans[name] = {"o0": before, "o2": after}

    mismatch = compare_artifacts(baseline, optimized, trials=TRIALS,
                                 seed=SEED)
    assert mismatch is None, f"{isax}/{core}: trace diverged: {mismatch}"

    reduction = 100.0 * (report.nodes_before - report.nodes_after) \
        / max(1, report.nodes_before)
    return {
        "nodes_before": report.nodes_before,
        "nodes_after": report.nodes_after,
        "node_reduction_pct": round(reduction, 2),
        "ops_removed": report.ops_removed,
        "ops_rewritten": report.ops_rewritten,
        "makespans": makespans,
        "area_um2_o0": round(_graph_area(baseline, tech), 1),
        "area_um2_o2": round(_graph_area(optimized, tech), 1),
        "compile_s_o0": round(o0_seconds, 4),
        "compile_s_o2": round(o2_seconds, 4),
        "opt_s": round(report.seconds, 4),
        "trace_identical": True,
    }


def run_benchmark(out_dir):
    isaxes = SMOKE_ISAXES if SMOKE else tuple(sorted(ALL_ISAXES))
    cores = SMOKE_CORES if SMOKE else FULL_CORES
    tech = TechLibrary()

    cells = {}
    for isax in isaxes:
        for core in cores:
            cells[f"{isax}/{core}"] = bench_cell(isax, core, tech)

    reductions = [cell["node_reduction_pct"] for cell in cells.values()]
    # Geomean over (1 + r) keeps zero-reduction cells well-defined.
    geomean = 100.0 * (math.exp(
        sum(math.log1p(r / 100.0) for r in reductions) / len(reductions))
        - 1.0)
    o0_total = sum(cell["compile_s_o0"] for cell in cells.values())
    opt_total = sum(cell["opt_s"] for cell in cells.values())
    opt_share = opt_total / o0_total if o0_total else 0.0

    bench = {
        "bench": "optimizer",
        "smoke": SMOKE,
        "engine": ENGINE,
        "grid": {"isaxes": list(isaxes), "cores": list(cores)},
        "trials": TRIALS,
        "seed": SEED,
        "cells": cells,
        "geomean_node_reduction_pct": round(geomean, 2),
        "min_geomean_required_pct": MIN_GEOMEAN_REDUCTION_PCT,
        "compile_s_o0_total": round(o0_total, 3),
        "optimizer_s_total": round(opt_total, 4),
        "optimizer_time_share": round(opt_share, 4),
        "max_optimizer_time_share": MAX_OPT_TIME_SHARE,
    }
    (out_dir / "bench_optimizer.json").write_text(
        json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"{'cell':<24} {'nodes':>11} {'reduction':>9} "
        f"{'area um2':>16} {'compile s':>15}",
    ]
    for label, cell in cells.items():
        lines.append(
            f"{label:<24} "
            f"{cell['nodes_before']:>4} -> {cell['nodes_after']:>4} "
            f"{cell['node_reduction_pct']:>8.1f}% "
            f"{cell['area_um2_o0']:>7,.0f} -> {cell['area_um2_o2']:>6,.0f} "
            f"{cell['compile_s_o0']:>6.2f} -> {cell['compile_s_o2']:>5.2f}")
    lines += [
        "",
        f"geomean node reduction: {geomean:.1f}% "
        f"(required >= {MIN_GEOMEAN_REDUCTION_PCT:.0f}%)",
        f"optimizer time: {opt_total:.3f}s of {o0_total:.3f}s -O0 compile "
        f"({100 * opt_share:.1f}%, cap {100 * MAX_OPT_TIME_SHARE:.0f}%)",
        "all schedules no worse at -O2; all traces byte-identical",
    ]
    write_artifact(out_dir, "optimizer.txt", "\n".join(lines))

    assert geomean >= MIN_GEOMEAN_REDUCTION_PCT, (
        f"geomean node reduction {geomean:.1f}% below "
        f"{MIN_GEOMEAN_REDUCTION_PCT:.0f}% floor")
    assert opt_share < MAX_OPT_TIME_SHARE, (
        f"optimizer consumed {100 * opt_share:.1f}% of -O0 compile time "
        f"(cap {100 * MAX_OPT_TIME_SHARE:.0f}%)")
    return bench


def test_optimizer_benchmark(artifact_dir):
    run_benchmark(artifact_dir)


def main(argv=None):
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(
        description="Benchmark the -O2 optimizer pipeline over the "
                    "ISAX x core grid")
    parser.add_argument("--smoke", action="store_true",
                        help="small sub-grid for CI PR gates")
    parser.add_argument("--out", default=None,
                        help="output directory (default benchmarks/out)")
    args = parser.parse_args(argv)

    global SMOKE, TRIALS, MIN_GEOMEAN_REDUCTION_PCT, MAX_OPT_TIME_SHARE
    if args.smoke:
        SMOKE = True
        TRIALS = 2
        MIN_GEOMEAN_REDUCTION_PCT = 8.0
        MAX_OPT_TIME_SHARE = 0.50
    out_dir = pathlib.Path(args.out) if args.out \
        else pathlib.Path(__file__).parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = run_benchmark(out_dir)
    print(f"geomean node reduction: "
          f"{bench['geomean_node_reduction_pct']:.2f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
