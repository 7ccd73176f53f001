"""Compiled-vs-interpreted RTL-simulation engine equivalence.

The compiled engine (:mod:`repro.sim.compile`) must be bit-identical to
the interpreting engine on every module the toolchain can produce: all 8
benchmark ISAXes on every host core, plus randomly generated fuzz
programs.  The same comparison runs in every fuzz campaign inside the
``batchsim`` oracle; these tests pin it down deterministically.
"""

import pytest

from repro import compile_isax
from repro.dialects.hw import HWModule
from repro.fuzz import run_oracles
from repro.fuzz.generator import generate_program
from repro.ir.core import IRError, Operation
from repro.isaxes import ALL_ISAXES
from repro.scaiev.cores import CORES, EXPERIMENTAL_CORES
from repro.sim import RTLSimulator, compile_module, crosscheck_engines
from repro.sim.compile import random_stimulus

ALL_CORES = CORES + EXPERIMENTAL_CORES

XOR_ISAX = '''import "RV32I.core_desc"

InstructionSet rep extends RV32I {
  instructions {
    repx {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: {
        X[rd] = (unsigned<32>) (X[rs1] ^ X[rs2]);
      }
    }
  }
}
'''


@pytest.mark.parametrize("core", ALL_CORES)
@pytest.mark.parametrize("isax", sorted(ALL_ISAXES))
def test_engines_agree_on_benchmark_isaxes(isax, core):
    """Identical output traces and register counts on every
    (benchmark ISAX, core) module."""
    artifact = compile_isax(ALL_ISAXES[isax], core)
    for name, functionality in artifact.functionalities.items():
        mismatch = crosscheck_engines(
            functionality.module, cycles=24, seed=11,
            engines=("interp", "compiled"))
        assert mismatch is None, f"{isax}/{name}@{core}: {mismatch}"


@pytest.mark.parametrize("seed", range(25))
def test_engines_agree_on_fuzz_programs(seed):
    """Identical traces on randomly generated (well-typed) programs."""
    program = generate_program(seed)
    artifact = compile_isax(program.source, "VexRiscv")
    for name, functionality in artifact.functionalities.items():
        mismatch = crosscheck_engines(
            functionality.module, cycles=16, seed=seed,
            engines=("interp", "compiled"))
        assert mismatch is None, f"seed {seed}/{name}: {mismatch}"


def test_full_trace_and_register_state_identical():
    """run() traces compare equal element-by-element, not just per-cycle."""
    artifact = compile_isax(ALL_ISAXES["sqrt_tightly"], "VexRiscv")
    functionality = next(iter(artifact.functionalities.values()))
    module = functionality.module
    stimulus = random_stimulus(module, 64, seed=7)
    interp = RTLSimulator(module, engine="interp")
    compiled = RTLSimulator(module, engine="compiled")
    assert interp.engine == "interp" and compiled.engine == "compiled"
    assert interp.run(stimulus) == compiled.run(stimulus)
    assert interp.register_state() == compiled.register_state()
    assert interp.register_count == compiled.register_count


def test_auto_uses_compiled_with_interp_fallback(monkeypatch):
    artifact = compile_isax(ALL_ISAXES["dotprod"], "VexRiscv")
    module = artifact.artifact("dotp").module
    assert RTLSimulator(module).engine == "compiled"
    # A module with an op the compiler cannot handle falls back to interp.
    import repro.sim.rtl_sim as rtl_sim

    def broken(module):
        raise IRError("no compilation rule")

    monkeypatch.setattr(rtl_sim, "compile_module", broken)
    assert RTLSimulator(module, engine="auto").engine == "interp"
    with pytest.raises(IRError):
        RTLSimulator(module, engine="compiled")


def test_invalid_engine_rejected():
    artifact = compile_isax(ALL_ISAXES["dotprod"], "VexRiscv")
    module = artifact.artifact("dotp").module
    with pytest.raises(IRError):
        RTLSimulator(module, engine="verilator")


def test_batched_is_the_retired_name_of_compiled():
    """Benchmark configs, server payloads and stored fuzz configs still
    say ``batched``; it selects the compiled engine."""
    artifact = compile_isax(ALL_ISAXES["dotprod"], "VexRiscv")
    module = artifact.artifact("dotp").module
    assert RTLSimulator(module, engine="batched").engine == "compiled"


def test_compiled_source_is_straight_line():
    """The generated step is one straight-line function: locals, literal
    masks, a single outputs literal — no per-op dict traffic."""
    artifact = compile_isax(ALL_ISAXES["dotprod"], "VexRiscv")
    module = artifact.artifact("dotp").module
    compiled = compile_module(module)
    assert compiled.source.startswith("def _step(inputs, regs):")
    assert "_outputs = {" in compiled.source
    assert "evaluate" not in compiled.source


def test_simengine_is_a_fuzz_oracle(monkeypatch):
    """A compiled-engine miscompile must surface in the standard oracle
    stack as a 'batchsim' failure (the oracle that took over the retired
    'simengine' interpreter-vs-compiled check)."""
    import repro.sim.rtl_sim as rtl_sim
    from repro.sim.compile import CompiledModule
    from repro.sim.compile import compile_module as real_compile

    def miscompiled(module):
        compiled = real_compile(module)
        real_step = compiled.step

        def bad_step(inputs, regs):
            outputs = real_step(inputs, regs)
            return {name: value ^ 1 for name, value in outputs.items()}

        return CompiledModule(compiled.source, bad_step,
                              compiled.register_ops)

    monkeypatch.setattr(rtl_sim, "compile_module", miscompiled)
    report = run_oracles(XOR_ISAX, cores=("VexRiscv",), trials=2,
                         sim_engine="interp")
    assert not report.ok
    assert "batchsim" in report.kinds


def test_counter_module_semantics_match_interp():
    """Registers, enables and reset behave identically in both engines on
    a handwritten module (not just generated ones)."""
    def make_counter():
        module = HWModule("counter")
        enable = module.add_input("en", 1)
        one = Operation("comb.constant", [], [(8, None)], {"value": 1})
        module.body.append(one)
        reg = Operation("seq.compreg", [one.result, enable], [(8, None)],
                        {"name": "count"})
        module.body.append(reg)
        add = Operation("comb.add", [reg.result, one.result], [(8, None)])
        module.body.append(add)
        reg.set_operand(0, add.result)
        module.add_output("value", reg.result)
        return module

    sim = RTLSimulator(make_counter(), engine="compiled")
    assert [sim.step({"en": 1})["value"] for _ in range(5)] == [0, 1, 2, 3, 4]
    assert [sim.step({"en": 0})["value"] for _ in range(3)] == [5, 5, 5]
    sim.reset()
    assert sim.cycle == 0
    assert sim.step({"en": 1})["value"] == 0
    with pytest.raises(IRError):
        sim.step({"bogus": 1})
