"""Compile-memoization regression tests.

``verify_artifact`` used to rebuild (codegen + ``exec``) the step function
of the same module up to 4x per trial, once per simulator it constructed;
the memo each module keeps (:meth:`repro.dialects.hw.HWModule.derived`)
must bring that down to one codegen per module per engine, across an
arbitrary number of trials and simulator constructions.  The memo freezes
the module on first use, so an edit after simulating raises, and it dies
with the module, so simulating leaks nothing.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro import compile_isax
from repro.ir.core import IRError
from repro.isaxes import AUTOINC
from repro.sim import (
    BatchedSimulator,
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


def test_netlist_edit_after_simulation_raises():
    """Simulating froze the module: an in-place netlist edit raises
    instead of leaving the memoized step function stale."""
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    module = artifact.artifact("cachex").module
    vector = {p.name: v for p, v in zip(module.inputs, (5, 3))}
    before = RTLSimulator(module).step(vector)
    constant = next(op for op in module.body.operations
                    if op.name == "comb.constant")
    with pytest.raises(IRError):
        constant.attributes["value"] ^= 1
    with pytest.raises(IRError):
        module.add_input("late", 1)
    assert RTLSimulator(module).step(vector) == before


def test_simulated_module_dies_with_its_artifact():
    """The compiled code lives on the module, not in a process-wide
    cache that would keep every simulated module alive."""
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    module = artifact.artifact("cachex").module
    vector = {p.name: v for p, v in zip(module.inputs, (5, 3))}
    RTLSimulator(module, engine="compiled").step(vector)
    BatchedSimulator(module).run_batch([[vector], [vector]])
    alive = weakref.ref(module)
    del artifact, module
    gc.collect()
    assert alive() is None


def test_threads_first_simulating_one_module_agree():
    """No lock guards the memo: threads that build it at once may each
    codegen, but every one gets a working simulator and the same trace."""
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    module = artifact.artifact("cachex").module
    stimulus = [{p.name: (cycle * 7 + i) & 0xFF
                 for i, p in enumerate(module.inputs)}
                for cycle in range(16)]
    start = threading.Barrier(4)
    traces, errors = [], []

    def simulate():
        try:
            start.wait(timeout=30)
            traces.append(RTLSimulator(module).run(stimulus))
        except Exception as err:  # noqa: BLE001 - reported below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=simulate) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(traces) == 4
    assert all(trace == traces[0] for trace in traces)
