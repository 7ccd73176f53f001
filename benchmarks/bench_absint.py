"""Abstract-interpretation engine benchmark: cost and payoff.

Two gates over a cold compile of the ISAX x core grid, mirroring the
lint budget in ``bench_lint_overhead.py``:

* **cost** — the worklist engine's cumulative wall-clock (metered by
  :func:`repro.analysis.absint.analysis_seconds`, which counts every
  ``analyze_graph`` invocation: the ``range-narrow`` optimizer rounds,
  the IV008/IV009 verifier sweep when enabled, and the batch codegen's
  memoized per-module facts) must stay **under 5 %** of the cold -O2
  grid compile it rides in;
* **payoff** — ``range-narrow`` must cut the geomean CDFG node count a
  further >= 2 % beyond what the rest of -O2 achieves, measured by an
  A/B compile with ``OptOptions(level=2, disable=("range-narrow",))``.

Artifacts: ``benchmarks/out/bench_absint.json`` and a human-readable
``absint.txt``.

Set ``ABSINT_BENCH_SMOKE=1`` (or run as a script with ``--smoke``) for
the PR-gate smoke mode: a 3 ISAX x 2 core sub-grid chosen to include the
cells range-narrow actually rewrites (the unrolled sqrt ISAX and the
zero-overhead-loop ISAX), so the payoff gate stays meaningful.  The
smoke cost cap is looser — sub-millisecond compiles put timer noise in
the denominator; the full-grid 5 % cap is the real budget.
"""

import copy
import json
import math
import os
import time

from benchmarks.conftest import write_artifact
from repro.analysis.absint import (
    absint_cache_stats,
    analysis_seconds,
    clear_facts_cache,
)
from repro.frontend import elaborate
from repro.hls import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.opt.pipeline import OptOptions
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES

SMOKE = os.environ.get("ABSINT_BENCH_SMOKE", "") not in ("", "0")
#: Reference ILP scheduling engine (matches bench_optimizer.py).
ENGINE = "milp"
FULL_CORES = CORES + EXPERIMENTAL_CORES
#: Smoke sub-grid with the cells range-narrow provably rewrites.
SMOKE_ISAXES = ("autoinc", "sqrt_decoupled", "zol")
SMOKE_CORES = ("VexRiscv", "ORCA")
#: Issue floor: geomean further node reduction attributable to
#: range-narrow, on top of the rest of -O2.
MIN_FURTHER_REDUCTION_PCT = 2.0
#: Analysis wall-clock share of the cold -O2 grid compile.
MAX_ANALYSIS_SHARE = 0.15 if SMOKE else 0.05


def bench_cell(isax, core):
    """Compile one cell twice: -O2 without range-narrow, then full -O2.

    Both compiles start from a copy of the elaborated ISA, a new
    front-end memo key, so every cell runs the optimizer from scratch."""
    isa = copy.copy(elaborate(ALL_ISAXES[isax]))
    ablated = compile_isax(
        isa, core, engine=ENGINE, schedule_cache=False,
        opt=OptOptions(level=2, disable=("range-narrow",)))

    begin = time.perf_counter()
    full = compile_isax(isa, core, engine=ENGINE, schedule_cache=False,
                        opt=2)
    o2_seconds = time.perf_counter() - begin

    ab_report, full_report = ablated.optimizer, full.optimizer
    assert ab_report is not None and full_report is not None
    nodes_without = ab_report.nodes_after
    nodes_with = full_report.nodes_after
    assert nodes_with <= nodes_without, (
        f"{isax}/{core}: range-narrow grew the graph "
        f"{nodes_without} -> {nodes_with}")
    further = 100.0 * (nodes_without - nodes_with) / max(1, nodes_without)
    return {
        "nodes_o2_without_narrow": nodes_without,
        "nodes_o2_with_narrow": nodes_with,
        "further_reduction_pct": round(further, 2),
        "compile_s_o2": round(o2_seconds, 4),
    }


def run_benchmark(out_dir):
    isaxes = SMOKE_ISAXES if SMOKE else tuple(sorted(ALL_ISAXES))
    cores = SMOKE_CORES if SMOKE else FULL_CORES

    # Cold start for the cost meter: no memoized facts, zeroed clock.
    # The ablated compiles run range-narrow-free, so the engine's clock
    # accumulates (almost) only inside the timed -O2 compiles; the share
    # denominator is the cold -O2 grid alone.
    clear_facts_cache()
    cells = {}
    for isax in isaxes:
        for core in cores:
            cells[f"{isax}/{core}"] = bench_cell(isax, core)
    grid_seconds = sum(cell["compile_s_o2"] for cell in cells.values())
    absint_seconds = analysis_seconds()
    stats = absint_cache_stats()
    share = absint_seconds / grid_seconds if grid_seconds else 0.0

    further = [cell["further_reduction_pct"] for cell in cells.values()]
    # Geomean over (1 + r) keeps zero-reduction cells well-defined.
    geomean = 100.0 * (math.exp(
        sum(math.log1p(r / 100.0) for r in further) / len(further)) - 1.0)

    bench = {
        "bench": "absint",
        "smoke": SMOKE,
        "engine": ENGINE,
        "grid": {"isaxes": list(isaxes), "cores": list(cores)},
        "cells": cells,
        "geomean_further_reduction_pct": round(geomean, 2),
        "min_further_reduction_pct": MIN_FURTHER_REDUCTION_PCT,
        "grid_compile_s": round(grid_seconds, 3),
        "analysis_s": round(absint_seconds, 4),
        "analysis_share": round(share, 4),
        "max_analysis_share": MAX_ANALYSIS_SHARE,
        "graph_analyses": stats["graph_analyses"],
        "module_analyses": stats["analyses"],
        "module_cache_hits": stats["cache_hits"],
    }
    (out_dir / "bench_absint.json").write_text(
        json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"{'cell':<28} {'-O2 nodes (no narrow -> narrow)':>33} "
        f"{'further':>8}",
    ]
    for label, cell in cells.items():
        lines.append(
            f"{label:<28} "
            f"{cell['nodes_o2_without_narrow']:>14} -> "
            f"{cell['nodes_o2_with_narrow']:>4} "
            f"{cell['further_reduction_pct']:>7.1f}%")
    lines += [
        "",
        f"geomean further reduction: {geomean:.1f}% "
        f"(required >= {MIN_FURTHER_REDUCTION_PCT:.0f}%)",
        f"analysis time: {absint_seconds:.4f}s of {grid_seconds:.3f}s "
        f"grid compile ({100 * share:.1f}%, cap "
        f"{100 * MAX_ANALYSIS_SHARE:.0f}%) over "
        f"{stats['graph_analyses']} worklist runs",
    ]
    write_artifact(out_dir, "absint.txt", "\n".join(lines))

    assert geomean >= MIN_FURTHER_REDUCTION_PCT, (
        f"range-narrow's geomean further reduction {geomean:.2f}% is "
        f"below the {MIN_FURTHER_REDUCTION_PCT:.0f}% floor")
    assert share < MAX_ANALYSIS_SHARE, (
        f"abstract interpretation consumed {100 * share:.1f}% of the "
        f"cold grid compile (cap {100 * MAX_ANALYSIS_SHARE:.0f}%)")
    return bench


def test_absint_benchmark(artifact_dir):
    run_benchmark(artifact_dir)


def main(argv=None):
    import argparse
    import pathlib

    parser = argparse.ArgumentParser(
        description="Benchmark the abstract-interpretation engine's cost "
                    "and the range-narrow payoff over the ISAX x core "
                    "grid")
    parser.add_argument("--smoke", action="store_true",
                        help="small sub-grid for CI PR gates")
    parser.add_argument("--out", default=None,
                        help="output directory (default benchmarks/out)")
    args = parser.parse_args(argv)

    global SMOKE, MAX_ANALYSIS_SHARE
    if args.smoke:
        SMOKE = True
        MAX_ANALYSIS_SHARE = 0.15
    out_dir = pathlib.Path(args.out) if args.out \
        else pathlib.Path(__file__).parent / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = run_benchmark(out_dir)
    print(f"geomean further reduction: "
          f"{bench['geomean_further_reduction_pct']:.2f}%  "
          f"analysis share: {100 * bench['analysis_share']:.1f}%")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
