"""Simulation substrate used to verify the generated hardware.

The paper verifies functional correctness "by performing RTL simulation of
the execution of handwritten assembler programs" (Section 5.3).  This
package provides the equivalents:

* :mod:`repro.sim.rtl_sim` — a cycle-driven simulator for generated hw
  modules (the ISAX datapaths) with two engines, a reference interpreter
  and a netlist-to-Python compiled engine (:mod:`repro.sim.compile`,
  ``engine="interp"|"compiled"|"auto"``; ``"batched"`` is the retired
  name of ``"compiled"``, see ``docs/simulation.md``),
* :mod:`repro.sim.coredsl_interp` — a golden-model interpreter executing
  CoreDSL behaviors directly on an architectural state,
* :mod:`repro.sim.riscv` — an RV32I assembler, a functional ISS, and
  cycle-approximate timing models of the four host cores with SCAIE-V-style
  ISAX integration (in-pipeline / tightly-coupled / decoupled / always).
"""

from repro.sim.rtl_sim import RTLSimulator
from repro.sim.compile import (
    SIM_ENGINES,
    CompiledModule,
    clear_compile_cache,
    compile_cache_stats,
    compile_module,
    crosscheck_engines,
)
from repro.sim.coredsl_interp import ArchState, CoreDSLInterpreter
from repro.sim.cosim import (
    CosimResult,
    VerificationReport,
    cosim_always,
    cosim_instruction,
    verify_artifact,
)

__all__ = [
    "RTLSimulator",
    "SIM_ENGINES",
    "CompiledModule",
    "clear_compile_cache",
    "compile_cache_stats",
    "compile_module",
    "crosscheck_engines",
    "ArchState",
    "CoreDSLInterpreter",
    "CosimResult",
    "VerificationReport",
    "cosim_always",
    "cosim_instruction",
    "verify_artifact",
]
