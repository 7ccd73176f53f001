"""Tests for the mini-MLIR IR infrastructure."""

import pytest

import repro.dialects  # noqa: F401  (registers all operations)
from repro.ir.builder import Builder
from repro.ir.core import Graph, IRError, OpDef, Operation, lookup_op, register_op
from repro.ir.printer import print_graph


def make_graph():
    graph = Graph("test")
    builder = Builder.at(graph)
    return graph, builder


class TestRegistry:
    def test_lookup_registered(self):
        assert lookup_op("comb.add").name == "comb.add"

    def test_lookup_unknown(self):
        with pytest.raises(IRError):
            lookup_op("bogus.op")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(IRError):
            register_op(OpDef("comb.add"))


class TestDefUse:
    def test_uses_tracked(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        b = builder.constant(2, 8)
        add = builder.create("comb.add", [a, b], [(8, None)])
        assert a.uses == [add]
        assert b.uses == [add]

    def test_replace_all_uses(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        b = builder.constant(2, 8)
        c = builder.constant(3, 8)
        add = builder.create("comb.add", [a, b], [(8, None)])
        a.replace_all_uses_with(c)
        assert add.operands[0] is c
        assert not a.uses
        assert c.uses == [add]

    def test_erase_with_uses_rejected(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        builder.create("comb.not", [a], [(8, None)])
        with pytest.raises(IRError):
            a.owner.erase()

    def test_erase_removes_operand_uses(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        nt = builder.create("comb.not", [a], [(8, None)])
        nt.erase()
        assert not a.uses
        assert nt not in graph.operations


class TestBuilder:
    def test_constant_uniquing(self):
        graph, builder = make_graph()
        a = builder.constant(5, 8)
        b = builder.constant(5, 8)
        c = builder.constant(5, 16)
        assert a is b
        assert a is not c

    def test_value_width_validation(self):
        graph, builder = make_graph()
        with pytest.raises(IRError):
            builder.create("comb.constant", [], [(0, None)], {"value": 0})


class TestGraph:
    def test_topological_order(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        b = builder.constant(2, 8)
        add = builder.create("comb.add", [a, b], [(8, None)])
        order = graph.topological_order()
        assert order.index(a.owner) < order.index(add)
        assert order.index(b.owner) < order.index(add)

    def test_dead_code_elimination(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        b = builder.constant(2, 8)
        builder.create("comb.add", [a, b], [(8, None)])  # dead
        removed = graph.remove_dead_code()
        assert removed == 3
        assert len(graph.operations) == 0

    def test_dce_keeps_side_effects(self):
        graph, builder = make_graph()
        value = builder.constant(1, 32)
        pred = builder.constant(1, 1)
        builder.create("lil.write_rd", [value, pred], [])
        removed = graph.remove_dead_code()
        assert removed == 0
        assert len(graph.operations) == 3


class TestFreeze:
    def test_every_edit_raises_before_changing_anything(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        b = builder.constant(2, 8)
        table = [10, 20, 30, 40]
        rom = builder.create("comb.rom", [a], [(8, None)], {"values": table})
        mul = builder.create("comb.mul", [a, rom.result], [(8, None)],
                             {"op_widths": [8, 8]})
        # A second graph shares the list, as hwgen's ROMs share the front
        # end's: freezing one graph must leave the other alone.
        other, other_builder = make_graph()
        shared = other_builder.create("comb.rom", [other_builder.constant(
            0, 8)], [(8, None)], {"values": table})
        text = print_graph(graph)

        graph.freeze()
        ops = list(graph.operations)
        operands = [list(op.operands) for op in ops]
        uses = [set(op.result.uses) for op in ops]
        attributes = [dict(op.attributes) for op in ops]
        edits = [
            lambda: graph.append(
                Operation("comb.constant", [], [(8, None)], {"value": 3})),
            lambda: graph.block.insert_before(
                mul, Operation("comb.constant", [], [(8, None)],
                               {"value": 3})),
            lambda: mul.set_operand(0, b),
            lambda: mul.append_operand(b),
            lambda: mul.erase(),            # unused: would otherwise go
            lambda: mul.attributes.__setitem__("op_widths", (4, 4)),
            lambda: mul.attributes.__delitem__("op_widths"),
        ]
        for edit in edits:
            with pytest.raises(IRError):
                edit()

        assert graph.operations == ops
        assert [list(op.operands) for op in ops] == operands
        assert [set(op.result.uses) for op in ops] == uses
        assert [dict(op.attributes) for op in ops] == attributes
        assert rom.attributes["values"] == (10, 20, 30, 40)
        assert mul.attr("op_widths") == (8, 8)
        assert shared.attributes["values"] is table
        assert table == [10, 20, 30, 40]
        assert print_graph(graph) == text


class TestVerifiers:
    def test_comb_width_mismatch(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        b = builder.constant(2, 16)
        op = builder.create("comb.add", [a, b], [(16, None)])
        with pytest.raises(IRError):
            op.verify()

    def test_icmp_bad_predicate(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        op = builder.create("comb.icmp", [a, a], [(1, None)],
                            {"predicate": "bogus"})
        with pytest.raises(IRError):
            op.verify()

    def test_extract_out_of_range(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        op = builder.create("comb.extract", [a], [(4, None)], {"low": 6})
        with pytest.raises(IRError):
            op.verify()

    def test_concat_width_checked(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        op = builder.create("comb.concat", [a, a], [(17, None)])
        with pytest.raises(IRError):
            op.verify()

    def test_mux_condition_width(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        op = builder.create("comb.mux", [a, a, a], [(8, None)])
        with pytest.raises(IRError):
            op.verify()

    def test_valid_graph_verifies(self):
        graph, builder = make_graph()
        a = builder.constant(200, 8)
        b = builder.constant(100, 8)
        builder.create("comb.add", [a, b], [(8, None)]).verify()
