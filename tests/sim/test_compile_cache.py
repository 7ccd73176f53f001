"""Compile-memoization regression tests.

``verify_artifact`` used to rebuild (codegen + ``exec``) the step function
of the same module up to 4x per trial, once per simulator it constructed;
the memo each module keeps (:meth:`repro.dialects.hw.HWModule.derived`)
must bring that down to one codegen per module, across an
arbitrary number of trials and simulator constructions.  The memo freezes
the module on first use, so an edit after simulating raises, and it dies
with the module, so simulating leaks nothing.

Equal step texts share one code object (:func:`compile_text`), which must
carry no table of any one module; and the inlined step text must keep
the netlist's evaluation under any nesting.
"""

import gc
import sys
import threading
import weakref

import pytest

from repro import compile_isax
from repro.dialects.hw import HWModule
from repro.ir.core import IRError, Operation
from repro.isaxes import AUTOINC, SQRT_DECOUPLED, SQRT_TIGHTLY
from repro.sim import (
    RTLSimulator,
    clear_compile_cache,
    compile_cache_stats,
    verify_artifact,
)
from repro.sim.compile import compile_module, compile_text, crosscheck_engines

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
    """``batched`` is the retired name of ``compiled``: one scalar codegen
    per module, and no trial counted as batched."""
    artifact = compile_isax(XOR_ISAX, "VexRiscv")
    clear_compile_cache()
    report = verify_artifact(artifact, trials=6, seed=3,
                             sim_engine="batched")
    assert report.passed
    assert report.batched_trials == 0
    assert report.scalar_fallbacks == 0
    stats = compile_cache_stats()
    assert stats["scalar"] == len(artifact.functionalities) == 1
    assert stats["schedules"] == 1


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


def test_equal_step_texts_compile_once():
    """sqrt_tightly and sqrt_decoupled generate one fsqrt step text: two
    codegens, one compile; clearing the cache empties the memo."""
    modules = [compile_isax(source, "VexRiscv", opt=2).artifact("fsqrt")
               .module for source in (SQRT_TIGHTLY, SQRT_DECOUPLED)]
    clear_compile_cache()
    first, second = (compile_module(module) for module in modules)
    assert first.source == second.source
    stats = compile_cache_stats()
    assert (stats["scalar"], stats["compiles"], stats["code_hits"]) == (
        2, 1, 1)
    clear_compile_cache()
    assert compile_text.cache_info().currsize == 0
    assert compile_cache_stats() == {"scalar": 0, "schedules": 0,
                                     "compiles": 0, "code_hits": 0}


def _rom_module(values):
    module = HWModule("lookup")
    index = module.add_input("index", 2)
    rom = Operation("comb.rom", [index], [(8, None)], {"values": values})
    module.body.append(rom)
    module.add_output("data", rom.result)
    return module


def test_shared_code_reads_each_modules_own_table():
    """Two ROMs of one shape give one text and one compile; each module
    still reads its own table."""
    tables = ([11, 22, 33, 44], [55, 66, 77, 88])
    modules = [_rom_module(values) for values in tables]
    clear_compile_cache()
    sims = [RTLSimulator(module, engine="compiled") for module in modules]
    assert compile_module(modules[0]).source == \
        compile_module(modules[1]).source
    assert compile_cache_stats()["compiles"] == 1
    for sim, values in zip(sims, tables):
        assert [sim.step({"index": i})["data"] for i in range(4)] == values


def _chain_module(length):
    """``length`` single-use ops in a chain, from an input and a register
    back to that register."""
    module = HWModule("chain")
    value = module.add_input("a", 8)
    reg = Operation("seq.compreg", [value], [(8, None)], {"name": "r"})
    module.body.append(reg)
    kinds = ("comb.xor", "comb.add", "comb.not", "comb.sub", "comb.mul")
    for step in range(length):
        kind = kinds[step % len(kinds)]
        operands = [value] if kind == "comb.not" else [value, reg.result]
        op = Operation(kind, operands, [(8, None)])
        module.body.append(op)
        value = op.result
    reg.set_operand(0, value)
    module.add_output("r", reg.result)
    return module


def test_long_single_use_chain_compiles_and_matches_interp():
    """Inlining stops under the parser's nesting limit, and the chain
    still runs cycle for cycle like the interpreter."""
    module = _chain_module(1000)
    assert crosscheck_engines(module, cycles=12, seed=4) is None
    assert RTLSimulator(module, engine="compiled").engine == "compiled"


@pytest.mark.parametrize("inner, outer", [
    ("comb.xor", "comb.and"), ("comb.or", "comb.xor"),
    ("comb.add", "comb.mul"), ("comb.sub", "comb.shl")])
def test_inlined_operands_keep_their_grouping(inner, outer):
    """``(a ^ b) & c`` and friends: an inlined operand stays grouped."""
    module = HWModule("grouping")
    a, b, c = (module.add_input(name, 8) for name in "abc")
    first = Operation(inner, [a, b], [(8, None)])
    module.body.append(first)
    second = Operation(outer, [first.result, c], [(8, None)])
    module.body.append(second)
    module.add_output("y", second.result)
    assert crosscheck_engines(module, cycles=64, seed=1) is None
