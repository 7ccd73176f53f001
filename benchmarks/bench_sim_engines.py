"""RTL-simulation engine shoot-out: interpreted vs compiled.

Runs every benchmark-ISAX module (compiled for VexRiscv) through both
scalar simulation engines on identical random stimulus, requiring
byte-identical output traces, and measures cycles/second.  The headline:
the compiled engine is at least 10x faster than the interpreter
(geometric mean across the 8 benchmark ISAXes).  A second section
measures the end-to-end effect on the heaviest verification workload — a
small differential fuzz campaign run once per engine.  A third counts
code generation over the grid (the 8 ISAXes x 5 cores at ``-O2``) from a
cold :func:`~repro.sim.compile.clear_compile_cache`, compiled and
co-simulated: step functions generated, :func:`compile` calls, distinct
step texts and the seconds their compiles take.  It fails when
:func:`compile` runs more often than there are distinct step texts.

Artifacts: ``benchmarks/out/bench_sim_engines.json`` (the BENCH JSON the
CI job uploads) plus the human-readable ``sim_engines.txt``.

Set ``SIM_BENCH_SMOKE=1`` for the PR-gate smoke mode: a small cycle
budget that still fails on any equivalence break or gross regression::

    SIM_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest benchmarks/bench_sim_engines.py
"""

import json
import math
import os
import time

from benchmarks.conftest import write_artifact
from repro.fuzz import FuzzConfig, run_campaign
from repro.hls import compile_isax
from repro.isaxes import ALL_ISAXES
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES
from repro.sim import RTLSimulator, verify_artifact
from repro.sim.compile import (
    clear_compile_cache,
    compile_cache_stats,
    compile_module,
    random_stimulus,
)

SMOKE = os.environ.get("SIM_BENCH_SMOKE", "") not in ("", "0")
CYCLES = 300 if SMOKE else 3000
FUZZ_SEEDS = 1 if SMOKE else 3
CORE = "VexRiscv"
#: The compiled engine must beat the interpreter by at least this factor
#: (geomean across ISAXes).  The smoke gate keeps a safety margin against
#: CI-runner noise; full runs hold the issue's 10x target.
MIN_GEOMEAN = 6.0 if SMOKE else 10.0


def _time_engine(module, engine, stimulus):
    sim = RTLSimulator(module, engine=engine)
    begin = time.perf_counter()
    trace = sim.run(stimulus)
    seconds = time.perf_counter() - begin
    return trace, sim.register_state(), seconds


def bench_isax(name):
    """Run both scalar engines over every module of one ISAX; returns the
    per-ISAX record for the BENCH JSON."""
    artifact = compile_isax(ALL_ISAXES[name], CORE)
    interp_s = compiled_s = 0.0
    cycles = 0
    for fname, functionality in artifact.functionalities.items():
        module = functionality.module
        stimulus = random_stimulus(module, CYCLES, seed=42)
        interp_trace, interp_regs, seconds = _time_engine(
            module, "interp", stimulus)
        interp_s += seconds
        compiled_trace, compiled_regs, seconds = _time_engine(
            module, "compiled", stimulus)
        compiled_s += seconds
        cycles += CYCLES
        # Byte-identical output traces and register state, per module.
        assert repr(interp_trace) == repr(compiled_trace), f"{name}/{fname}"
        assert interp_regs == compiled_regs, f"{name}/{fname}"
    return {
        "modules": len(artifact.functionalities),
        "cycles": cycles,
        "interp_cycles_per_s": round(cycles / interp_s, 1),
        "compiled_cycles_per_s": round(cycles / compiled_s, 1),
        "speedup": round(interp_s / compiled_s, 2),
        "trace_identical": True,
    }


def fuzz_wallclock(tmp_path, sim_engine):
    config = FuzzConfig(seeds=FUZZ_SEEDS, trials=8, cores=(CORE,),
                        out_dir=str(tmp_path / f"fuzz-{sim_engine}"),
                        reduce=False, sim_engine=sim_engine)
    begin = time.perf_counter()
    result = run_campaign(config)
    seconds = time.perf_counter() - begin
    assert result.ok, f"fuzz campaign failed under sim_engine={sim_engine}"
    return seconds


def grid_codegen():
    """Cold codegen over the grid: every module's step is generated once,
    every distinct step text compiled once, and cosim adds no codegen."""
    clear_compile_cache()
    artifacts = [compile_isax(ALL_ISAXES[name], core, opt=2)
                 for name in sorted(ALL_ISAXES)
                 for core in (*CORES, *EXPERIMENTAL_CORES)]
    modules = [functionality.module for artifact in artifacts
               for functionality in artifact.functionalities.values()]
    texts = {compile_module(module).source for module in modules}
    step_compiles = compile_cache_stats()["compiles"]
    for artifact in artifacts:
        assert verify_artifact(artifact, seed=1).passed, artifact.name
    stats = compile_cache_stats()
    begin = time.perf_counter()
    for text in texts:
        compile(text, "<rtl-sim>", "exec")
    return {
        "cells": len(artifacts),
        "modules": len(modules),
        "codegens": stats["scalar"],
        "step_compiles": step_compiles,
        "distinct_step_texts": len(texts),
        "step_text_lines": sum(text.count("\n") for text in texts),
        "golden_compiles": stats["compiles"] - step_compiles,
        "compile_seconds": round(time.perf_counter() - begin, 4),
    }


def test_sim_engine_shootout(artifact_dir, tmp_path):
    isaxes = {name: bench_isax(name) for name in sorted(ALL_ISAXES)}
    geomean = math.exp(
        sum(math.log(record["speedup"]) for record in isaxes.values())
        / len(isaxes))

    interp_fuzz_s = fuzz_wallclock(tmp_path, "interp")
    compiled_fuzz_s = fuzz_wallclock(tmp_path, "compiled")
    codegen = grid_codegen()

    bench = {
        "bench": "sim_engines",
        "smoke": SMOKE,
        "core": CORE,
        "cycles_per_module": CYCLES,
        "isaxes": isaxes,
        "geomean_speedup": round(geomean, 2),
        "min_geomean_required": MIN_GEOMEAN,
        "fuzz_campaign": {
            "seeds": FUZZ_SEEDS,
            "interp_seconds": round(interp_fuzz_s, 3),
            "compiled_seconds": round(compiled_fuzz_s, 3),
            "speedup": round(interp_fuzz_s / compiled_fuzz_s, 2),
        },
        "codegen": codegen,
    }
    (artifact_dir / "bench_sim_engines.json").write_text(
        json.dumps(bench, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"{'ISAX':<16} {'modules':>7} {'interp c/s':>12} "
        f"{'compiled c/s':>13} {'speedup':>8}",
    ]
    for name, record in isaxes.items():
        lines.append(
            f"{name:<16} {record['modules']:>7} "
            f"{record['interp_cycles_per_s']:>12,.0f} "
            f"{record['compiled_cycles_per_s']:>13,.0f} "
            f"{record['speedup']:>7.1f}x")
    lines += [
        "",
        f"geomean speedup: {geomean:.1f}x "
        f"(required >= {MIN_GEOMEAN:.0f}x); all traces byte-identical",
        f"fuzz campaign ({FUZZ_SEEDS} seeds, {CORE}): "
        f"interp {interp_fuzz_s:.2f}s -> compiled {compiled_fuzz_s:.2f}s",
        f"grid codegen ({codegen['cells']} cells at -O2, compiled and "
        f"co-simulated): {codegen['codegens']} step functions for "
        f"{codegen['modules']} modules, {codegen['step_compiles']} "
        f"compile() calls for {codegen['distinct_step_texts']} distinct "
        f"step texts ({codegen['step_text_lines']} lines, "
        f"{codegen['compile_seconds'] * 1e3:.1f} ms to compile), "
        f"{codegen['golden_compiles']} golden-model compiles",
    ]
    write_artifact(artifact_dir, "sim_engines.txt", "\n".join(lines))

    assert codegen["step_compiles"] <= codegen["distinct_step_texts"], (
        f"{codegen['step_compiles']} compile() calls for "
        f"{codegen['distinct_step_texts']} distinct step texts")
    assert geomean >= MIN_GEOMEAN, (
        f"compiled engine only {geomean:.1f}x faster (geomean); "
        f"required {MIN_GEOMEAN:.0f}x")
