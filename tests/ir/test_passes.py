"""Tests for canonicalization: constant folding, dedup, DCE."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.dialects  # noqa: F401
from repro.dialects import comb
from repro.ir.builder import Builder
from repro.ir.core import Graph, Operation
from repro.ir.passes import canonicalize, dedupe_constants
from repro.utils.bits import to_signed, to_unsigned


def make_graph():
    graph = Graph("test")
    return graph, Builder.at(graph)


def keep(builder, value):
    """Anchor a value with a side-effecting consumer so DCE keeps it."""
    pred = builder.create("comb.constant", [], [(1, None)], {"value": 1}).result
    wide = value
    if value.width != 32:
        pad = builder.create(
            "comb.constant", [], [(32 - value.width, None)], {"value": 0}
        ).result
        wide = builder.create("comb.concat", [pad, value], [(32, None)]).result
    builder.create("lil.write_rd", [wide, pred], [])


class TestFolding:
    def test_add_folds(self):
        graph, builder = make_graph()
        a = builder.constant(3, 8)
        b = builder.constant(4, 8)
        add = builder.create("comb.add", [a, b], [(8, None)])
        keep(builder, add.result)
        canonicalize(graph)
        constants = [op for op in graph.operations if op.name == "comb.constant"]
        values = {op.attr("value") for op in constants}
        assert 7 in values
        assert not any(op.name == "comb.add" for op in graph.operations)

    def test_wrap_around(self):
        graph, builder = make_graph()
        a = builder.constant(255, 8)
        b = builder.constant(2, 8)
        add = builder.create("comb.add", [a, b], [(8, None)])
        keep(builder, add.result)
        canonicalize(graph)
        values = {op.attr("value") for op in graph.operations
                  if op.name == "comb.constant"}
        assert 1 in values

    def test_mux_constant_condition(self):
        graph, builder = make_graph()
        cond = builder.constant(1, 1)
        a = builder.create("comb.constant", [], [(8, None)], {"value": 10}).result
        b = builder.create("comb.constant", [], [(8, None)], {"value": 20}).result
        mux = builder.create("comb.mux", [cond, a, b], [(8, None)])
        keep(builder, mux.result)
        canonicalize(graph)
        assert not any(op.name == "comb.mux" for op in graph.operations)

    def test_add_zero_identity(self):
        graph, builder = make_graph()
        x = builder.create("lil.read_rs1", [], [(32, None)])
        zero = builder.constant(0, 32)
        add = builder.create("comb.add", [x.result, zero], [(32, None)])
        pred = builder.constant(1, 1)
        builder.create("lil.write_rd", [add.result, pred], [])
        canonicalize(graph)
        assert not any(op.name == "comb.add" for op in graph.operations)
        write = next(op for op in graph.operations if op.name == "lil.write_rd")
        assert write.operands[0] is x.result

    def test_mux_same_arms(self):
        graph, builder = make_graph()
        x = builder.create("lil.read_rs1", [], [(32, None)])
        cond = builder.create("lil.read_rs2", [], [(32, None)])
        cond_bit = builder.create("comb.extract", [cond.result], [(1, None)],
                                  {"low": 0})
        mux = builder.create("comb.mux", [cond_bit.result, x.result, x.result],
                             [(32, None)])
        pred = builder.constant(1, 1)
        builder.create("lil.write_rd", [mux.result, pred], [])
        canonicalize(graph)
        assert not any(op.name == "comb.mux" for op in graph.operations)

    def test_dedupe_constants(self):
        graph, builder = make_graph()
        a = builder.create("comb.constant", [], [(8, None)], {"value": 7})
        b = builder.create("comb.constant", [], [(8, None)], {"value": 7})
        add = builder.create("comb.add", [a.result, b.result], [(8, None)])
        removed = dedupe_constants(graph)
        assert removed == 1
        assert add.operands[0] is add.operands[1]

    def test_first_equal_constant_survives_even_if_it_died(self):
        # add(2, 3) folds to 5 and dies with the mux; the later add(1, 4)
        # folds to 5 too.  Dedup runs before DCE and keeps the first 5, so
        # the survivor stays ahead of the marker (wire names follow block
        # order).  Erasing the dead 5 with the mux would keep the later 5.
        graph, builder = make_graph()
        dead = builder.create("comb.add", [builder.constant(2, 32),
                                           builder.constant(3, 32)],
                              [(32, None)])
        other = builder.create("lil.read_rs1", [], [(32, None)]).result
        mux = builder.create("comb.mux", [builder.constant(0, 1),
                                          dead.result, other], [(32, None)])
        marker = builder.create("lil.read_rs2", [], [(32, None)])
        mixed = builder.create("comb.xor", [marker.result, mux.result],
                               [(32, None)])
        live = builder.create("comb.add", [builder.constant(1, 32),
                                           builder.constant(4, 32)],
                              [(32, None)])
        out = builder.create("comb.add", [mixed.result, live.result],
                             [(32, None)])
        builder.create("lil.write_rd", [out.result, builder.constant(1, 1)],
                       [])
        canonicalize(graph)
        fives = [op for op in graph.operations if op.name == "comb.constant"
                 and op.attr("value") == 5]
        assert len(fives) == 1
        assert out.operands[1] is fives[0].result
        assert graph.operations.index(fives[0]) \
            < graph.operations.index(marker)

    def test_interface_ops_never_folded(self):
        graph, builder = make_graph()
        read = builder.create("lil.read_rs1", [], [(32, None)])
        keep(builder, read.result)
        canonicalize(graph)
        assert any(op.name == "lil.read_rs1" for op in graph.operations)


class TestEvaluation:
    """comb evaluation semantics, shared by folder and RTL simulator."""

    def eval_binary(self, name, a, b, width):
        graph, builder = make_graph()
        va = builder.constant(a, width)
        vb = builder.constant(b, width)
        op = builder.create(name, [va, vb], [(width, None)])
        return comb.evaluate(op, [a, b])

    def test_sub_wraps(self):
        assert self.eval_binary("comb.sub", 0, 1, 8) == 0xFF

    def test_divu_by_zero_all_ones(self):
        assert self.eval_binary("comb.divu", 10, 0, 8) == 0xFF

    def test_divs_negative(self):
        a = to_unsigned(-7, 8)
        b = to_unsigned(2, 8)
        result = self.eval_binary("comb.divs", a, b, 8)
        assert to_signed(result, 8) == -3  # truncating division

    def test_mods_sign_follows_dividend(self):
        a = to_unsigned(-7, 8)
        result = self.eval_binary("comb.mods", a, 2, 8)
        assert to_signed(result, 8) == -1

    def test_shl_overshift_is_zero(self):
        assert self.eval_binary("comb.shl", 0xFF, 9, 8) == 0

    def test_shrs_fills_sign(self):
        a = to_unsigned(-128, 8)
        assert to_signed(self.eval_binary("comb.shrs", a, 3, 8), 8) == -16

    def test_shru_zero_fill(self):
        assert self.eval_binary("comb.shru", 0x80, 3, 8) == 0x10

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_add_matches_python(self, a, b):
        assert self.eval_binary("comb.add", a, b, 8) == (a + b) & 0xFF

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_icmp_slt(self, a, b):
        graph, builder = make_graph()
        va = builder.constant(a, 8)
        vb = builder.constant(b, 8)
        op = builder.create("comb.icmp", [va, vb], [(1, None)],
                            {"predicate": "slt"})
        expected = int(to_signed(a, 8) < to_signed(b, 8))
        assert comb.evaluate(op, [a, b]) == expected

    def test_concat_msb_first(self):
        graph, builder = make_graph()
        hi = builder.constant(0xA, 4)
        lo = builder.constant(0x5, 4)
        op = builder.create("comb.concat", [hi, lo], [(8, None)])
        assert comb.evaluate(op, [0xA, 0x5]) == 0xA5

    def test_replicate(self):
        graph, builder = make_graph()
        bit = builder.constant(1, 1)
        op = builder.create("comb.replicate", [bit], [(4, None)])
        assert comb.evaluate(op, [1]) == 0xF

    def test_rom_lookup(self):
        graph, builder = make_graph()
        index = builder.constant(2, 4)
        op = builder.create("comb.rom", [index], [(8, None)],
                            {"values": [10, 20, 30, 40]})
        assert comb.evaluate(op, [2]) == 30
        assert comb.evaluate(op, [9]) == 0  # out of range reads as 0
