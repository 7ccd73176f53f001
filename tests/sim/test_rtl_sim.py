"""RTL simulator tests, including co-simulation of generated ISAX modules
against the CoreDSL golden interpreter (the reproduction's equivalent of the
paper's Section 5.3 functional verification)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects.hw import HWModule
from repro.hls import compile_isax
from repro.ir.core import IRError
from repro.isaxes import DOTPROD, SBOX, SPARKLE, SQRT_TIGHTLY
from repro.sim import (ArchState, BatchedSimulator, CoreDSLInterpreter,
                       RTLSimulator)
from repro.utils.bits import to_signed, to_unsigned


def make_counter_module():
    """8-bit counter with enable: reg <= en ? reg + 1 : reg."""
    module = HWModule("counter")
    from repro.ir.core import Operation

    enable = module.add_input("en", 1)
    one = Operation("comb.constant", [], [(8, None)], {"value": 1})
    module.body.append(one)
    # Create register with a placeholder data operand, then wire the loop.
    reg = Operation("seq.compreg", [one.result, enable], [(8, None)],
                    {"name": "count"})
    module.body.append(reg)
    add = Operation("comb.add", [reg.result, one.result], [(8, None)])
    module.body.append(add)
    reg.set_operand(0, add.result)
    module.add_output("value", reg.result)
    return module


class TestBasics:
    def test_counter_counts(self):
        sim = RTLSimulator(make_counter_module())
        values = [sim.step({"en": 1})["value"] for _ in range(5)]
        assert values == [0, 1, 2, 3, 4]

    def test_enable_low_holds(self):
        sim = RTLSimulator(make_counter_module())
        sim.step({"en": 1})
        sim.step({"en": 1})
        held = [sim.step({"en": 0})["value"] for _ in range(3)]
        assert held == [2, 2, 2]

    def test_reset(self):
        sim = RTLSimulator(make_counter_module())
        for _ in range(3):
            sim.step({"en": 1})
        sim.reset()
        assert sim.step({"en": 1})["value"] == 0

    def test_unknown_input_rejected(self):
        sim = RTLSimulator(make_counter_module())
        with pytest.raises(IRError):
            sim.step({"bogus": 1})

    def test_inputs_masked_to_width(self):
        sim = RTLSimulator(make_counter_module())
        out = sim.step({"en": 0xFF})  # masked to 1 bit
        assert out["value"] == 0


def make_out_of_order_module():
    """y = a + 1, with the constant placed after the add that reads it."""
    from repro.ir.core import Operation

    module = HWModule("out_of_order")
    a = module.add_input("a", 8)
    one = Operation("comb.constant", [], [(8, None)], {"value": 1})
    add = Operation("comb.add", [a, one.result], [(8, None)])
    module.body.append(add)
    module.body.append(one)
    module.add_output("y", add.result)
    return module


class TestBlockOrder:
    """Every engine simulates the body in block order and rejects a
    non-register op that reads a value defined after it."""

    @pytest.mark.parametrize("engine", ["interp", "compiled"])
    def test_rtl_simulator_rejects_operand_defined_later(self, engine):
        with pytest.raises(IRError, match="not defined before"):
            RTLSimulator(make_out_of_order_module(), engine=engine)

    def test_batched_simulator_rejects_operand_defined_later(self):
        with pytest.raises(IRError, match="not defined before"):
            BatchedSimulator(make_out_of_order_module())


def run_module_steady(module, inputs, cycles):
    """Drive constant inputs until the pipeline is full; return outputs."""
    sim = RTLSimulator(module)
    out = None
    for _ in range(cycles):
        out = sim.step(inputs)
    return out


def drive(module, **values):
    inputs = {}
    for port in module.inputs:
        for prefix, value in values.items():
            if port.name.startswith(prefix):
                inputs[port.name] = value
    return inputs


class TestCoSimulation:
    """Generated RTL vs the CoreDSL golden interpreter."""

    def cosim_r_type(self, artifact, instr_name, a, b=None, rd=5):
        isa = artifact.isa
        enc = isa.instructions[instr_name].encoding
        fields = {"rd": rd}
        if "rs1" in enc.fields:
            fields["rs1"] = 3
        if "rs2" in enc.fields:
            fields["rs2"] = 4
        word = enc.encode(fields)

        state = ArchState(isa)
        state.write_x(3, a)
        if b is not None:
            state.write_x(4, b)
        interp = CoreDSLInterpreter(isa)
        interp.execute_instruction(state, instr_name, word)
        golden = state.read_x(rd)

        module = artifact.artifact(instr_name).module
        inputs = drive(module, rs1_data=a, instr_word=word)
        if b is not None:
            inputs.update(drive(module, rs2_data=b))
        depth = artifact.artifact(instr_name).schedule.makespan + 2
        out = run_module_steady(module, inputs, depth)
        data_port = next(p.name for p in module.outputs
                         if p.name.startswith("wrrd_data"))
        valid_port = next(p.name for p in module.outputs
                          if p.name.startswith("wrrd_valid"))
        assert out[valid_port] == 1
        return golden, out[data_port]

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    def test_dotprod_cosim(self, a, b):
        artifact = compile_isax(DOTPROD, "VexRiscv")
        golden, rtl = self.cosim_r_type(artifact, "dotp", a, b)
        assert golden == rtl

    def test_dotprod_reference_value(self):
        artifact = compile_isax(DOTPROD, "VexRiscv")
        a, b = 0x01020304, 0xFF020304

        def ref(x, y):
            total = 0
            for i in range(4):
                xa = to_signed((x >> (8 * i)) & 0xFF, 8)
                xb = to_signed((y >> (8 * i)) & 0xFF, 8)
                total += xa * xb
            return to_unsigned(total, 32)

        golden, rtl = self.cosim_r_type(artifact, "dotp", a, b)
        assert golden == rtl == ref(a, b)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_sbox_cosim(self, a):
        artifact = compile_isax(SBOX, "VexRiscv")
        golden, rtl = self.cosim_r_type(artifact, "sbox", a)
        assert golden == rtl

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    def test_sparkle_cosim(self, a, b):
        artifact = compile_isax(SPARKLE, "VexRiscv")
        for instr in ("alzette_x", "alzette_y"):
            golden, rtl = self.cosim_r_type(artifact, instr, a, b)
            assert golden == rtl

    @settings(deadline=None, max_examples=8)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_sqrt_cosim(self, a):
        artifact = compile_isax(SQRT_TIGHTLY, "VexRiscv")
        golden, rtl = self.cosim_r_type(artifact, "fsqrt", a)
        assert golden == rtl

    def test_sqrt_matches_math(self):
        import math

        artifact = compile_isax(SQRT_TIGHTLY, "VexRiscv")
        for value in (0, 1, 2, 4, 100, 65536, 2 ** 31):
            golden, rtl = self.cosim_r_type(artifact, "fsqrt", value)
            assert golden == rtl
            expected = math.isqrt(value << 32)
            assert golden == expected

    def test_pipeline_with_stalls_still_correct(self):
        """Stalling the pipeline must hold values, not corrupt them."""
        artifact = compile_isax(DOTPROD, "VexRiscv")
        module = artifact.artifact("dotp").module
        isa = artifact.isa
        enc = isa.instructions["dotp"].encoding
        a, b = 0x11223344, 0x55667788
        word = enc.encode({"rs1": 3, "rs2": 4, "rd": 5})

        state = ArchState(isa)
        state.write_x(3, a)
        state.write_x(4, b)
        CoreDSLInterpreter(isa).execute_instruction(state, "dotp", word)
        golden = state.read_x(5)

        sim = RTLSimulator(module)
        inputs = drive(module, rs1_data=a, rs2_data=b, instr_word=word)
        stall_ports = [p.name for p in module.inputs
                       if p.name.startswith("stall_in")]
        out = None
        for cycle in range(30):
            vector = dict(inputs)
            # Stall everything on every other cycle.
            if cycle % 2 == 0:
                for port in stall_ports:
                    vector[port] = 1
            out = sim.step(vector)
        data_port = next(p.name for p in module.outputs
                         if p.name.startswith("wrrd_data"))
        assert out[data_port] == golden
