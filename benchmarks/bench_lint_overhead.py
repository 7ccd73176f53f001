"""Static-analysis overhead on the full compile grid.

Compiles all 8 benchmark ISAXes for all 5 cores (cold: no elaboration
memo, no schedule cache) three ways — analysis off, frontend lints on,
lints + the IR verifier (``REPRO_IR_VERIFY``-equivalent) — and reports
the wall-time overhead of each tier.  The budget documented in
docs/static_analysis.md: the default-on frontend lints must add **< 5%**
to a cold compile of the grid; lints + IR verification should stay under
~15% (the verifier is opt-in, so this is informational).

Overhead is also asserted, with slack for CI noise: lints < 10% measured
(documented target 5%), lint+verify < 30% measured.
"""

import copy
import time

from benchmarks.conftest import write_artifact
from repro.frontend import elaboration
from repro.hls.longnail import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES

ALL_CORES = CORES + EXPERIMENTAL_CORES
GRID = [(isax, core) for isax in sorted(ALL_ISAXES) for core in ALL_CORES]


def sweep(lint: bool, verify_ir: bool) -> float:
    """Cold-compile the 8x5 grid; returns wall seconds.

    Each cell compiles a copy of the elaborated ISA, a new front-end memo
    key, so every cell lints and lowers from scratch."""
    elaboration._ELABORATION_CACHE.clear()
    begin = time.perf_counter()
    for isax, core in GRID:
        isa = copy.copy(elaboration.elaborate(ALL_ISAXES[isax]))
        compile_isax(isa, core, lint=lint, verify_ir=verify_ir,
                     schedule_cache=False)
    return time.perf_counter() - begin


def test_lint_overhead(artifact_dir):
    # Warm-up pass so module import/op-registry costs don't skew tier 1.
    compile_isax(ALL_ISAXES["zol"], "VexRiscv", schedule_cache=False)

    base_s = sweep(lint=False, verify_ir=False)
    lint_s = sweep(lint=True, verify_ir=False)
    full_s = sweep(lint=True, verify_ir=True)

    lint_pct = 100.0 * (lint_s - base_s) / base_s
    full_pct = 100.0 * (full_s - base_s) / base_s

    lines = [
        "static-analysis overhead, cold compile of the "
        f"{len(GRID)}-job grid (8 ISAXes x {len(ALL_CORES)} cores)",
        "",
        f"{'tier':<28} {'seconds':>9} {'overhead':>9}",
        f"{'no analysis':<28} {base_s:>8.3f}s {'—':>9}",
        f"{'frontend lints':<28} {lint_s:>8.3f}s {lint_pct:>8.1f}%",
        f"{'lints + IR verifier':<28} {full_s:>8.3f}s {full_pct:>8.1f}%",
        "",
        "documented budget: lints < 5% (default-on), "
        "lints+verify informational (opt-in via REPRO_IR_VERIFY=1)",
    ]
    write_artifact(artifact_dir, "lint_overhead.txt", "\n".join(lines))

    # Generous CI-noise slack over the documented 5% target.
    assert lint_pct < 10.0, (
        f"frontend lints add {lint_pct:.1f}% to a cold grid compile "
        "(documented budget: <5%)")
    assert full_pct < 30.0, (
        f"lints + IR verifier add {full_pct:.1f}% to a cold grid compile")
