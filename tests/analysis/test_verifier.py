"""Positive and negative tests for every IVxxx verifier check."""

import pytest

import repro.dialects  # noqa: F401  (registers all operations)
from repro.analysis.verifier import (
    IR_CHECKS,
    IRVerifyError,
    ir_verify_enabled,
    require_valid,
    verify_graph,
    verify_module,
    verify_schedule,
)
from repro.dialects.hw import HWModule
from repro.hls.longnail import compile_isax
from repro.ir.builder import Builder
from repro.ir.core import Graph, Operation
from repro.isaxes import DOTPROD
from repro.scheduling.problem import LongnailProblem, OperatorType
from repro.scheduling.scheduler import ScheduleResult
from repro.utils.diagnostics import Diagnostic, Severity
from tests.sim.test_rtl_sim import make_counter_module


def make_graph(name="g"):
    graph = Graph(name)
    return graph, Builder.at(graph)


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestRegistry:
    def test_all_checks_present(self):
        assert set(IR_CHECKS) == {f"IV{n:03d}" for n in range(1, 10)}
        for check in IR_CHECKS.values():
            assert check.description


class TestSSA:
    def test_positive_foreign_value(self):
        other, other_b = make_graph("other")
        foreign = other_b.constant(1, 8)
        graph, builder = make_graph()
        builder.create("comb.not", [foreign], [(8, None)])
        assert "IV001" in codes(verify_graph(graph))

    def test_negative_local_values(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        builder.create("comb.not", [a], [(8, None)])
        assert verify_graph(graph) == []

    def test_positive_operand_defined_later(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        add = builder.create("comb.add", [a, a], [(8, None)])
        late = builder.constant(2, 8)
        add.set_operand(1, late)
        found = verify_graph(graph)
        # Out of block order, but acyclic: no comb cycle to name.
        assert codes(found) == ["IV001"]
        assert "defined later" in found[0].message


class TestOpInvariant:
    def test_positive_width_mismatch(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        b = builder.constant(1, 16)
        builder.create("comb.add", [a, b], [(8, None)])
        assert "IV002" in codes(verify_graph(graph))

    def test_negative_consistent_widths(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        b = builder.constant(2, 8)
        builder.create("comb.add", [a, b], [(8, None)])
        assert verify_graph(graph) == []


class TestConstantRange:
    def test_positive_out_of_range_constant(self):
        graph, builder = make_graph()
        value = builder.constant(3, 8)
        # Seeded invariant break: corrupt the constant after construction
        # (a rewrite bug the op builder can no longer catch).
        value.owner.attributes["value"] = 999
        found = verify_graph(graph)
        assert codes(found) == ["IV003"]
        assert "999" in found[0].message
        assert "8-bit" in found[0].message

    def test_positive_rom_value_too_wide(self):
        graph, builder = make_graph()
        index = builder.constant(0, 4)
        rom = builder.create("lil.rom", [index], [(8, None)],
                             {"reg": "SBOX", "values": [1, 2, 300, 4],
                              "count": 1})
        assert rom is not None
        found = verify_graph(graph)
        assert "IV003" in codes(found)
        assert any("300" in d.message and "index 2" in d.message
                   for d in found)

    def test_negative_in_range(self):
        graph, builder = make_graph()
        builder.constant(255, 8)
        index = builder.constant(0, 4)
        builder.create("lil.rom", [index], [(8, None)],
                       {"reg": "SBOX", "values": [0, 255], "count": 1})
        assert verify_graph(graph) == []


class TestCombCycle:
    def test_positive_cycle(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        x = builder.create("comb.add", [a, a], [(8, None)])
        y = builder.create("comb.add", [x.result, a], [(8, None)])
        # Close the loop: x now depends on y.
        x.set_operand(1, y.result)
        assert "IV004" in codes(verify_graph(graph))

    def test_negative_dag(self):
        graph, builder = make_graph()
        a = builder.constant(1, 8)
        x = builder.create("comb.add", [a, a], [(8, None)])
        builder.create("comb.add", [x.result, a], [(8, None)])
        assert verify_graph(graph) == []

    def test_negative_register_breaks_the_loop(self):
        # The counter's register comes before the add that feeds it: a
        # feedback loop, but not a combinational one.
        assert verify_module(make_counter_module()) == []

    def test_register_loop_beside_a_late_operand_is_no_cycle(self):
        # IV001 reports the constant placed after its reader, which makes
        # IV004 look for a cycle; the counter's register loop is none.
        module = make_counter_module()
        late = Operation("comb.constant", [], [(8, None)], {"value": 3})
        masked = Operation("comb.and", [module.registers()[0].result,
                                        late.result], [(8, None)])
        module.body.append(masked)
        module.body.append(late)
        assert codes(verify_module(module)) == ["IV001"]


def toy_schedule(start_a=0, start_b=1, latency=1, latest=10,
                 chain_breaker=False, drop_start=False):
    graph = Graph("sched")
    problem = LongnailProblem()
    problem.add_operator_type(OperatorType("op", latency=latency,
                                           incoming_delay=0.1,
                                           outgoing_delay=0.1,
                                           earliest=0, latest=latest))
    problem.add_operation("a", "op")
    problem.add_operation("b", "op")
    problem.add_dependence("a", "b", is_chain_breaker=chain_breaker)
    problem.start_time = {"a": start_a, "b": start_b}
    if drop_start:
        del problem.start_time["b"]
    return ScheduleResult(graph=graph, problem=problem, engine="test",
                          cycle_time_ns=1.0, chain_breakers=0)


class TestSchedulePrecedence:
    def test_positive_dependence_violated(self):
        # Seeded invariant break: b starts before a finishes.
        found = verify_schedule(toy_schedule(start_a=0, start_b=0))
        assert codes(found) == ["IV005"]
        assert "'a'" in found[0].message and "'b'" in found[0].message

    def test_positive_chain_breaker_needs_extra_cycle(self):
        found = verify_schedule(toy_schedule(start_a=0, start_b=1,
                                             chain_breaker=True))
        assert codes(found) == ["IV005"]

    def test_positive_missing_start_time(self):
        found = verify_schedule(toy_schedule(drop_start=True))
        assert codes(found) == ["IV005"]
        assert "no start time" in found[0].message

    def test_negative_legal_schedule(self):
        assert verify_schedule(toy_schedule(start_a=0, start_b=1)) == []


class TestScheduleWindow:
    def test_positive_start_after_latest(self):
        found = verify_schedule(toy_schedule(start_a=0, start_b=20,
                                             latest=10))
        assert codes(found) == ["IV006"]
        assert "[0, 10]" in found[0].message

    def test_negative_inside_window(self):
        assert verify_schedule(toy_schedule(start_a=0, start_b=5,
                                            latest=10)) == []


class TestModulePorts:
    def test_positive_undriven_output(self):
        module = HWModule("m")
        a = module.add_input("a", 8)
        module.add_output("out", a)
        # Seeded break: drop the hw.output op that drives the port.
        for op in list(module.body.operations):
            if op.name == "hw.output":
                op.erase()
        found = verify_module(module)
        assert codes(found) == ["IV007"]
        assert "'out'" in found[0].message

    def test_negative_all_driven(self):
        module = HWModule("m")
        a = module.add_input("a", 8)
        module.add_output("out", a)
        assert verify_module(module) == []


class TestShiftAlwaysFlushed:
    def _shift(self, amount_bits):
        graph, builder = make_graph()
        data = builder.constant(1, 8)
        # Non-constant amount (comb.or owner) with a proven interval.
        amount = builder.create(
            "comb.or",
            [builder.constant(amount_bits, 8), builder.constant(0, 8)],
            [(8, None)])
        builder.create("comb.shl", [data, amount.result], [(8, None)])
        return graph

    def test_positive_amount_proven_at_or_above_width(self):
        found = verify_graph(self._shift(12))
        assert codes(found) == ["IV008"]
        assert found[0].severity is Severity.WARNING
        assert "[12, 12]" in found[0].message

    def test_negative_amount_can_stay_below_width(self):
        assert verify_graph(self._shift(2)) == []

    def test_negative_constant_amount_is_not_iv008(self):
        # Constant flushes are LN002 / fold territory, not this check.
        graph, builder = make_graph()
        data = builder.constant(1, 8)
        builder.create("comb.shl", [data, builder.constant(12, 8)],
                       [(8, None)])
        assert "IV008" not in codes(verify_graph(graph))


class TestRomIndexOutOfRange:
    def _rom(self, index_bits):
        graph, builder = make_graph()
        index = builder.create(
            "comb.or",
            [builder.constant(index_bits, 3), builder.constant(0, 3)],
            [(3, None)])
        builder.create("comb.rom", [index.result], [(8, None)],
                       {"values": [1, 2, 3, 4]})
        return graph

    def test_positive_index_proven_past_table(self):
        found = verify_graph(self._rom(4))
        assert codes(found) == ["IV009"]
        assert found[0].severity is Severity.WARNING
        assert "4-entry" in found[0].message

    def test_negative_index_can_hit_table(self):
        assert verify_graph(self._rom(2)) == []


class TestRangeFindingsNeverFailRequireValid:
    def test_warning_findings_pass(self):
        # IV008/IV009 are warnings: require_valid must not raise on them.
        graph, builder = make_graph()
        data = builder.constant(1, 8)
        amount = builder.create(
            "comb.or",
            [builder.constant(12, 8), builder.constant(0, 8)],
            [(8, None)])
        builder.create("comb.shl", [data, amount.result], [(8, None)])
        found = verify_graph(graph)
        assert codes(found) == ["IV008"]
        require_valid("test:range", found)


class TestRequireValid:
    def test_raises_with_stage_and_findings(self):
        bad = Diagnostic("IV003", Severity.ERROR, "constant out of range")
        with pytest.raises(IRVerifyError) as excinfo:
            require_valid("lower:dotp", [bad])
        err = excinfo.value
        assert err.stage == "lower:dotp"
        assert err.diagnostics == [bad]
        assert "lower:dotp" in str(err)
        assert "constant out of range" in str(err)

    def test_no_errors_no_raise(self):
        require_valid("x", [])
        require_valid("x", [Diagnostic("LN005", Severity.WARNING, "w")])


class TestEnvGate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_IR_VERIFY", raising=False)
        assert not ir_verify_enabled()

    def test_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_IR_VERIFY", "1")
        assert ir_verify_enabled()


class TestRealArtifactIsClean:
    def test_compiled_isax_verifies(self):
        from repro.analysis.verifier import verify_artifact_ir
        artifact = compile_isax(DOTPROD, "VexRiscv")
        assert verify_artifact_ir(artifact) == []
