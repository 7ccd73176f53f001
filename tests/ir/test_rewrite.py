"""Tests for the worklist rewrite driver (repro.ir.rewrite).

The driver must leave every pass at its own fixpoint after one drain:
the pass manager's dirty tracking relies on it, and no pass sweeps the
graph again to confirm it.
"""

import pytest

import repro.dialects  # noqa: F401
import repro.ir.passes as ir_passes
import repro.lowering.coredsl_to_lil as coredsl_to_lil
from repro.frontend.elaboration import elaborate
from repro.fuzz import generate_program
from repro.ir.builder import Builder
from repro.ir.core import Graph
from repro.ir.passes import _CLEANUP_RULES, canonicalize
from repro.ir.rewrite import apply_rules
from repro.isaxes import ALL_ISAXES
from repro.lowering import convert_to_lil, lower_isa
from repro.opt.narrow import range_narrow_pass
from repro.opt.passes import (
    canonicalize_pass,
    cse_pass,
    dce_pass,
    propagate_pass,
    share_pass,
    strength_pass,
)

#: The 13-program fuzz corpus of the benchmark's fuzz workload
#: (``benchmarks/cosim_parity.py::fuzz_corpus()``).
FUZZ_SEEDS = (1146844354, 1043081815, 452446389, 864493874, 381758556,
              1578682735, 1612713187, 871051978, 396919452, 1186138235,
              48429379, 1081558175, 1942424956)
SOURCES = (*sorted(ALL_ISAXES), *FUZZ_SEEDS)


def lowered_graphs(source):
    """Every lil graph of one ISAX name or fuzz seed, after the -O0
    cleanup in ``convert_to_lil``."""
    text = (ALL_ISAXES[source] if isinstance(source, str)
            else generate_program(source).source)
    isa = elaborate(text)
    lowered = lower_isa(isa)
    containers = [*lowered.instructions.values(),
                  *lowered.always_blocks.values()]
    return [convert_to_lil(isa, container) for container in containers]


def make_graph():
    graph = Graph("test")
    return graph, Builder.at(graph)


def read(builder, name="lil.read_rs1"):
    return builder.create(name, [], [(32, None)]).result


def extract(builder, value, low, width):
    return builder.create("comb.extract", [value], [(width, None)],
                          {"low": low}).result


def sink(builder, value):
    pred = builder.constant(1, 1)
    if value.width != 32:
        pad = builder.constant(0, 32 - value.width)
        value = builder.create("comb.concat", [pad, value],
                               [(32, None)]).result
    return builder.create("lil.write_rd", [value, pred], [])


class TestFixpoint:
    @pytest.mark.parametrize("source", SOURCES)
    def test_lowering_cleanup_leaves_nothing_to_fold(self, source):
        for graph in lowered_graphs(source):
            assert apply_rules(graph, _CLEANUP_RULES) == 0, graph.name

    @pytest.mark.parametrize("source", SOURCES)
    def test_second_call_of_each_pass_is_quiet(self, source):
        checked = (canonicalize_pass, propagate_pass, strength_pass,
                   share_pass)
        for graph in lowered_graphs(source):
            for run in (canonicalize_pass, propagate_pass, cse_pass,
                        strength_pass, range_narrow_pass, share_pass,
                        dce_pass):
                run(graph)
                if run in checked:
                    assert run(graph) == (0, 0), (graph.name, run.__name__)


class TestNotifications:
    def test_inserted_ops_are_visited(self):
        # or(hi, lo) of zero-padded halves becomes concat(x[15:8], x[7:0]);
        # that new concat merges into one extract only if the driver
        # visits it.  No use was lost on its operands, because ``hi`` and
        # ``lo`` stay alive through the mul, and its user is no concat
        # that would flatten it.
        graph, builder = make_graph()
        x = read(builder)
        zero = builder.constant(0, 8)
        hi = builder.create("comb.concat", [extract(builder, x, 8, 8), zero],
                            [(16, None)])
        lo = builder.create("comb.concat", [zero, extract(builder, x, 0, 8)],
                            [(16, None)])
        both = builder.create("comb.or", [hi.result, lo.result], [(16, None)])
        mul = builder.create("comb.mul", [hi.result, lo.result], [(16, None)])
        out = builder.create("comb.xor", [both.result, mul.result],
                             [(16, None)])
        sink(builder, out.result)
        canonicalize_pass(graph)
        joined = out.operands[0].owner
        assert joined.name == "comb.extract"
        assert joined.operands[0] is x and joined.attr("low") == 0
        assert canonicalize_pass(graph) == (0, 0)

    def test_users_of_a_replaced_op_are_visited(self):
        # 3 << 2 becomes concat(extract(3), 0).  Each fold replaces an op
        # whose user was already visited: the concat, then the sink's pad
        # concat fold only if the driver visits an op whose operand changed.
        graph, builder = make_graph()
        shl = builder.create("comb.shl", [builder.constant(3, 8),
                                          builder.constant(2, 8)],
                             [(8, None)])
        write = sink(builder, shl.result)
        canonicalize(graph)
        assert {op.name for op in graph.operations} == {
            "comb.constant", "lil.write_rd"}
        assert write.operands[0].owner.attr("value") == 12

    def test_users_of_a_value_that_lost_a_use_are_visited(self):
        # ``wide`` spans both halves of ``cat``; it splits only once
        # ``cat`` has one use.  ``other`` dies when the mux folds away,
        # deep in the mux's dead feeder tree, after ``wide`` was visited.
        graph, builder = make_graph()
        keep = extract(builder, read(builder, "lil.read_pc"), 0, 16)
        hi = extract(builder, read(builder), 0, 16)
        lo = extract(builder, read(builder, "lil.read_rs2"), 0, 16)
        cat = builder.create("comb.concat", [hi, lo], [(32, None)])
        wide = extract(builder, cat.result, 8, 16)
        other = extract(builder, cat.result, 4, 16)
        mux = builder.create("comb.mux", [builder.constant(1, 1), keep, other],
                             [(16, None)])
        both = builder.create("comb.concat", [wide, mux.result], [(32, None)])
        sink(builder, both.result)
        canonicalize_pass(graph)
        assert cat.parent is None
        assert canonicalize_pass(graph) == (0, 0)


class TestListener:
    def test_cleared_after_drain(self):
        graph, builder = make_graph()
        add = builder.create("comb.add", [builder.constant(1, 8),
                                          builder.constant(2, 8)],
                             [(8, None)])
        sink(builder, add.result)
        assert apply_rules(graph, _CLEANUP_RULES) >= 1
        assert graph.block.listener is None

    def test_cleared_when_a_rule_raises(self):
        graph, builder = make_graph()
        sink(builder, read(builder))

        def broken(graph, op):
            raise RuntimeError("rule failed")

        with pytest.raises(RuntimeError):
            apply_rules(graph, {"lil.write_rd": (broken,)})
        assert graph.block.listener is None


class TestLinearWork:
    def test_sqrt_cleanup_simplifies_each_op_at_most_twice(self, monkeypatch):
        # A sweep-until-quiet cleanup calls the algebraic simplifier about
        # 3.9 times per op of sqrt_tightly's fsqrt.  One drain plus one
        # drain after constant dedup stays under 2; a reseed loop would not.
        calls = []
        sizes = []
        simplify = ir_passes._simplify_algebraic
        cleanup = coredsl_to_lil.canonicalize

        def counted_simplify(op):
            calls.append(op)
            return simplify(op)

        def sized_cleanup(graph):
            if graph.name == "fsqrt":
                sizes.append(len(graph.operations))
                calls.clear()
                cleanup(graph)
                sizes.append(len(calls))
            else:
                cleanup(graph)

        monkeypatch.setattr(ir_passes, "_simplify_algebraic",
                            counted_simplify)
        monkeypatch.setattr(coredsl_to_lil, "canonicalize", sized_cleanup)
        lowered_graphs("sqrt_tightly")
        ops_before, simplify_calls = sizes
        assert ops_before > 900
        assert simplify_calls <= 2 * ops_before
