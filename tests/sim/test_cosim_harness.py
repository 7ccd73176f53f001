"""The full verification matrix: every Table 3 ISAX co-simulated (RTL vs
golden model) on every host core — the library-level equivalent of the
paper's Section 5.3 functional verification."""

import pytest

from repro import compile_isax
from repro.isaxes import ALL_ISAXES, AUTOINC, IJMP, ZOL
from repro.opt.equiv import architectural_trace
from repro.scaiev import CORES
from repro.scaiev.cores import EXPERIMENTAL_CORES
from repro.sim import ArchState
from repro.sim.cosim import cosim_always, cosim_instruction, verify_artifact


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("name", sorted(ALL_ISAXES))
def test_cosim_matrix(core, name):
    artifact = compile_isax(ALL_ISAXES[name], core)
    report = verify_artifact(artifact, trials=3, seed=42)
    assert report.passed, "\n".join(
        f"{f.functionality}: "
        + "; ".join(f"{m.kind}: {m.detail}" for m in f.mismatches)
        for f in report.failures
    )


class TestTargetedCosim:
    def test_autoinc_load_effects(self):
        """lw_ai: the RTL must read MEM[ADDR], write it to rd, and write
        back ADDR+4 — all three effects compared against the golden model."""
        artifact = compile_isax(AUTOINC, "VexRiscv")
        state = ArchState(artifact.isa)
        state.write_custom("ADDR", 0x200)
        state.write_mem(0x200, 0xCAFEBABE, 4)
        result = cosim_instruction(artifact, "lw_ai", state, {"rd": 7})
        assert result.matches, result.mismatches
        gpr = next(e for e in result.golden_effects if e.kind == "gpr")
        assert gpr.value == 0xCAFEBABE
        custom = next(e for e in result.golden_effects if e.kind == "custom")
        assert custom.value == 0x204

    def test_autoinc_store_effects(self):
        artifact = compile_isax(AUTOINC, "VexRiscv")
        state = ArchState(artifact.isa)
        state.write_custom("ADDR", 0x80)
        state.write_x(9, 0x12345678)
        result = cosim_instruction(artifact, "sw_ai", state, {"rs2": 9})
        assert result.matches, result.mismatches

    def test_ijmp_pc_redirect(self):
        artifact = compile_isax(IJMP, "VexRiscv")
        state = ArchState(artifact.isa)
        state.write_x(5, 0x400)
        state.write_mem(0x400, 0xBEEF0, 4)
        result = cosim_instruction(artifact, "ijmp", state, {"rs1": 5})
        assert result.matches, result.mismatches
        pc = next(e for e in result.golden_effects if e.kind == "pc")
        assert pc.value == 0xBEEF0

    def test_zol_always_redirect_and_idle(self):
        artifact = compile_isax(ZOL, "VexRiscv")
        state = ArchState(artifact.isa)
        state.write_custom("START_PC", 0x100)
        state.write_custom("END_PC", 0x140)
        state.write_custom("COUNT", 3)
        state.pc = 0x140
        firing = cosim_always(artifact, "zol", state)
        assert firing.matches, firing.mismatches
        assert any(e.kind == "pc" for e in firing.golden_effects)

        state.pc = 0x120  # not at the loop end: no write, valids low
        idle = cosim_always(artifact, "zol", state)
        assert idle.matches, idle.mismatches
        assert not idle.golden_effects

    def test_mismatch_detection(self):
        """The harness actually detects divergence: corrupt the RTL by
        flipping a constant and expect a reported mismatch."""
        artifact = compile_isax(ALL_ISAXES["sbox"], "VexRiscv")
        module = artifact.artifact("sbox").module
        rom = next(op for op in module.body.operations
                   if op.name == "comb.rom")
        values = list(rom.attr("values"))
        values[0] ^= 0xFF
        rom.attributes["values"] = values
        state = ArchState(artifact.isa)
        state.write_x(3, 0)  # selects SBOX[0], which we corrupted
        result = cosim_instruction(artifact, "sbox", state,
                                   {"rs1": 3, "rd": 5})
        assert not result.matches
        assert any(m.kind == "gpr" for m in result.mismatches)


TABWALK = '''import "RV32I.core_desc"

InstructionSet tabwalk extends RV32I {
  architectural_state {
    register unsigned<32> TAB[4];
    register unsigned<32> IDX;
  }
  instructions {
    set_idx {
      encoding: 12'd0 :: rs1[4:0] :: 3'b000 :: 5'd0 :: 7'b0001011;
      behavior: {
        IDX = X[rs1];
      }
    }
  }
  always {
    tabwalk {
      unsigned<32> t = TAB[IDX[1:0]];
      if (t != 0) {
        PC = t;
      }
    }
  }
}
'''


@pytest.mark.parametrize("engine", ["interp", "compiled", "batched"])
def test_always_block_indexed_register_read(engine):
    """An always-block reading ``TAB[IDX[1:0]]`` needs the addressed
    element fed back on ``rdTAB_data``, exactly like an instruction; a
    harness that only feeds back instruction reads sees element 0 and
    reports false mismatches."""
    artifact = compile_isax(TABWALK, "VexRiscv")
    outputs = {p.name for p in artifact.artifact("tabwalk").module.outputs}
    assert "rdTAB_addr_0" in outputs
    report = verify_artifact(artifact, trials=8, seed=1, sim_engine=engine)
    assert report.passed, [str(f) for f in report.failures]

    state = ArchState(artifact.isa)
    for element, value in enumerate((0, 0x100, 0x200, 0x300)):
        state.write_custom("TAB", value, element)
    state.write_custom("IDX", 6)                 # IDX[1:0] = 2
    result = cosim_always(artifact, "tabwalk", state, sim_engine=engine)
    assert result.matches, result.mismatches
    assert result.rtl_inputs["rdTAB_data_0"] == 0x200
    pc = next(e for e in result.golden_effects if e.kind == "pc")
    assert pc.value == 0x200


@pytest.mark.parametrize("core", CORES + EXPERIMENTAL_CORES)
@pytest.mark.parametrize("name", ["autoinc", "ijmp"])
def test_read_feedback_runs_on_lanes(core, name):
    """Memory loads and indexed reads need read feedback; under the
    batched engine every trial still runs as a lane, with traces equal to
    the scalar engines'."""
    artifact = compile_isax(ALL_ISAXES[name], core)
    trials = 6
    report = verify_artifact(artifact, trials=trials, seed=4,
                             sim_engine="batched")
    assert report.passed, [str(f) for f in report.failures]
    assert report.batched_trials == trials * len(artifact.functionalities)
    assert report.scalar_fallbacks == 0
    traces = {engine: architectural_trace(artifact, trials=trials, seed=4,
                                          sim_engine=engine)
              for engine in ("interp", "compiled", "batched")}
    assert traces["batched"] == traces["interp"] == traces["compiled"]
