"""Compile-memoization regression tests.

``verify_artifact`` used to rebuild (codegen + ``exec``) the step function
of the same module up to 4x per trial, once per simulator it constructed;
the per-module cache in :mod:`repro.sim.compile` must bring that down to
one codegen per module per engine, across an arbitrary number of trials
and simulator constructions.
"""

from repro import compile_isax
from repro.isaxes import AUTOINC
from repro.sim import (
    RTLSimulator,
    clear_compile_cache,
    compile_cache_stats,
    verify_artifact,
)

XOR_ISAX = '''import "RV32I.core_desc"

InstructionSet cachex extends RV32I {
  instructions {
    cachex {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        X[rd] = (unsigned<32>) (X[rs1] ^ X[rs2]);
      }
    }
  }
}
'''


def test_verify_artifact_compiles_each_module_once():
    """The memoization bugfix: a full randomized verification run —
    many trials, each constructing simulators repeatedly inside the
    read-feedback fixpoint — performs exactly one scalar codegen and one
    schedule per module, not one per trial."""
    artifact = compile_isax(AUTOINC, "VexRiscv")
    clear_compile_cache()
    report = verify_artifact(artifact, trials=8, seed=3)
    assert report.passed
    stats = compile_cache_stats()
    modules = len(artifact.functionalities)
    assert modules >= 2  # lw_ai + sw_ai: the cache is actually exercised
    assert stats["scalar"] == modules
    assert stats["schedules"] == modules


def test_batched_verify_compiles_each_module_once():
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    clear_compile_cache()
    report = verify_artifact(artifact, trials=6, seed=3,
                             sim_engine="batched")
    assert report.passed
    assert report.batched_trials == 6
    assert report.scalar_fallbacks == 0
    stats = compile_cache_stats()
    assert stats["batched"] == len(artifact.functionalities) == 1
    assert stats["scalar"] == 0


def test_repeated_simulator_constructions_hit_the_cache():
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    module = artifact.artifact("cachex").module
    clear_compile_cache()
    sims = [RTLSimulator(module) for _ in range(5)]
    assert all(sim.engine == "compiled" for sim in sims)
    stats = compile_cache_stats()
    assert stats["scalar"] == 1
    assert stats["schedules"] == 1


def test_netlist_edit_invalidates_the_cache():
    """The cache is keyed by a structural digest: an in-place netlist
    edit (as the fuzz reducer and opt passes perform) must recompile
    rather than serve the stale step function."""
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    module = artifact.artifact("cachex").module
    clear_compile_cache()
    vector = {p.name: v for p, v in zip(module.inputs, (5, 3))}
    sim = RTLSimulator(module)
    before = sim.step(vector)
    constant = next(op for op in module.body.operations
                    if op.name == "comb.constant")
    constant.attributes["value"] ^= 1
    resim = RTLSimulator(module)
    assert compile_cache_stats()["scalar"] == 2
    after = resim.step(vector)
    assert before != after
