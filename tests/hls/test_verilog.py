"""Unit tests for the SystemVerilog printer."""

import re

import pytest

from repro.dialects.hw import HWModule
from repro.hls.verilog import emit_module
from repro.ir.core import IRError, Operation


def wire(module, name, operands, result_types, attrs=None):
    op = Operation(name, operands, result_types, attrs or {})
    module.body.append(op)
    return op


class TestExpressions:
    def emit_unary_module(self, op_name, width=8, attrs=None, operands=1):
        module = HWModule("m")
        values = [module.add_input(f"i{k}", width) for k in range(operands)]
        op = wire(module, op_name, values, [(width, None)], attrs)
        module.add_output("o", op.result)
        return emit_module(module)

    def test_add(self):
        text = self.emit_unary_module("comb.add", operands=2)
        assert "i0 + i1" in text

    def test_signed_division(self):
        text = self.emit_unary_module("comb.divs", operands=2)
        assert "$signed(i0) / $signed(i1)" in text

    def test_arithmetic_shift(self):
        text = self.emit_unary_module("comb.shrs", operands=2)
        assert ">>>" in text

    def test_not(self):
        text = self.emit_unary_module("comb.not")
        assert "~i0" in text

    def test_icmp_unsigned_vs_signed(self):
        module = HWModule("m")
        a = module.add_input("a", 8)
        b = module.add_input("b", 8)
        ult = wire(module, "comb.icmp", [a, b], [(1, None)],
                   {"predicate": "ult"})
        slt = wire(module, "comb.icmp", [a, b], [(1, None)],
                   {"predicate": "slt"})
        module.add_output("u", ult.result)
        module.add_output("s", slt.result)
        text = emit_module(module)
        assert "a < b" in text
        assert "$signed(a) < $signed(b)" in text

    def test_mux(self):
        module = HWModule("m")
        c = module.add_input("c", 1)
        a = module.add_input("a", 8)
        b = module.add_input("b", 8)
        mux = wire(module, "comb.mux", [c, a, b], [(8, None)])
        module.add_output("o", mux.result)
        assert "c ? a : b" in emit_module(module)

    def test_extract_single_bit(self):
        module = HWModule("m")
        a = module.add_input("a", 8)
        bit = wire(module, "comb.extract", [a], [(1, None)], {"low": 3})
        module.add_output("o", bit.result)
        assert "a[3]" in emit_module(module)

    def test_extract_range(self):
        module = HWModule("m")
        a = module.add_input("a", 16)
        part = wire(module, "comb.extract", [a], [(8, None)], {"low": 4})
        module.add_output("o", part.result)
        assert "a[11:4]" in emit_module(module)

    def test_concat_and_replicate(self):
        module = HWModule("m")
        a = module.add_input("a", 4)
        b = module.add_input("b", 4)
        cat = wire(module, "comb.concat", [a, b], [(8, None)])
        rep = wire(module, "comb.replicate", [b], [(12, None)])
        module.add_output("c", cat.result)
        module.add_output("r", rep.result)
        text = emit_module(module)
        assert "{a, b}" in text
        assert "{{3{b}}}" in text

    def test_constant(self):
        module = HWModule("m")
        const = wire(module, "comb.constant", [], [(12, None)], {"value": 42})
        module.add_output("o", const.result)
        assert "12'd42" in emit_module(module)

    def test_rom_localparam(self):
        module = HWModule("m")
        index = module.add_input("i", 2)
        rom = wire(module, "comb.rom", [index], [(8, None)],
                   {"values": [1, 2, 3, 4], "name": "T"})
        module.add_output("o", rom.result)
        text = emit_module(module)
        assert "localparam logic [7:0] rom_T [0:3]" in text
        assert "rom_T[i]" in text


class TestNetlistSemantics:
    """The netlist defines x/0, x%0 and ROM reads past the table (see
    ``comb.evaluate``); IEEE 1800-2017 makes all three x (sections 11.4.2
    and 7.4.6), so the printer spells the netlist's results out."""

    @pytest.mark.parametrize("kind, expr", [
        ("comb.divu", "b == 0 ? '1 : a / b"),
        ("comb.modu", "b == 0 ? a : a % b"),
        ("comb.divs", "b == 0 ? '1 : $unsigned($signed(a) / $signed(b))"),
        ("comb.mods", "b == 0 ? a : $unsigned($signed(a) % $signed(b))"),
    ])
    def test_division_by_zero_is_guarded(self, kind, expr):
        module = HWModule("m")
        a = module.add_input("a", 8)
        b = module.add_input("b", 8)
        op = wire(module, kind, [a, b], [(8, None)])
        module.add_output("o", op.result)
        assert f"  assign w1 = {expr};" in emit_module(module)

    def rom_text(self, entries):
        module = HWModule("m")
        index = module.add_input("i", 8)
        rom = wire(module, "comb.rom", [index], [(8, None)],
                   {"values": list(range(entries)), "name": "T"})
        module.add_output("o", rom.result)
        return emit_module(module)

    def test_short_rom_reads_zero_past_the_table(self):
        assert "  assign w1 = i < 4 ? rom_T[i] : '0;" in self.rom_text(4)

    def test_rom_covering_every_index_is_unguarded(self):
        assert "  assign w1 = rom_T[i];" in self.rom_text(256)


class TestStructure:
    def test_width_one_ports_have_no_range(self):
        module = HWModule("m")
        a = module.add_input("a", 1)
        module.add_output("o", a)
        text = emit_module(module)
        assert "input  logic a" in text
        assert "[0:0]" not in text

    def test_clock_only_with_registers(self):
        module = HWModule("m")
        a = module.add_input("a", 8)
        module.add_output("o", a)
        assert "clk" not in emit_module(module)

        reg = wire(module, "seq.compreg", [a], [(8, None)], {"name": "r"})
        module.add_output("q", reg.result)
        text = emit_module(module)
        assert "input  logic clk" in text
        assert "r <= a;" in text

    def test_register_with_enable(self):
        module = HWModule("m")
        a = module.add_input("a", 8)
        en = module.add_input("en", 1)
        reg = wire(module, "seq.compreg", [a, en], [(8, None)], {"name": "r"})
        module.add_output("q", reg.result)
        assert "r <= en ? a : r;" in emit_module(module)

    def test_module_name_sanitized(self):
        module = HWModule("weird name!")
        a = module.add_input("a", 1)
        module.add_output("o", a)
        assert emit_module(module).startswith("module weird_name_(")

    def test_undriven_output_rejected_by_verify(self):
        module = HWModule("m")
        module.add_input("a", 8)
        module.ports.append(
            type(module.ports[0])("ghost", "out", 8)
        )
        with pytest.raises(IRError, match="not driven"):
            module.verify()

    def test_emitted_text_is_balanced(self):
        module = HWModule("m")
        a = module.add_input("a", 8)
        b = module.add_input("b", 8)
        add = wire(module, "comb.add", [a, b], [(8, None)])
        module.add_output("o", add.result)
        text = emit_module(module)
        assert text.count("module ") == 1
        assert text.strip().endswith("endmodule")
        assert text.count("(") == text.count(")")
