"""Scheduler tests: the Figure 7 ILP, chain breaking, engines, and the
Figure 6 end-to-end example."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import elaborate
from repro.lowering import convert_to_lil, lower_isa
from repro.scaiev import core_datasheet
from repro.scheduling import (
    LongnailProblem,
    LongnailScheduler,
    OperatorType,
    ScheduleError,
    compute_chain_breakers,
    solve_problem,
    uniform_delay_model,
)
from repro.scheduling import ilp
from repro.scheduling.chaining import compute_start_times_in_cycle

ADDI = '''
import "RV32I.core_desc"
InstructionSet addi_only extends RV32I {
  instructions {
    ADDI {
      encoding: imm[11:0] :: rs1[4:0] :: 3'b000 :: rd[4:0] :: 7'b0010011;
      behavior: { X[rd] = (unsigned<32>) (X[rs1] + (signed) imm); }
    }
  }
}
'''


def addi_graph():
    isa = elaborate(ADDI)
    lowered = lower_isa(isa)
    return convert_to_lil(isa, lowered.instructions["ADDI"])


def find(graph, name):
    return next(op for op in graph.operations if op.name == name)


class TestFigure6:
    """Scheduling ADDI for the 5-stage VexRiscv at 3.5 ns (paper Figure 6)."""

    def schedule(self, engine="milp"):
        graph = addi_graph()
        scheduler = LongnailScheduler(
            core_datasheet("VexRiscv"), cycle_time_ns=3.5, engine=engine,
            delay_model=uniform_delay_model(),
        )
        return graph, scheduler.schedule(graph)

    def test_write_rd_pushed_to_stage_3(self):
        graph, result = self.schedule()
        write = find(graph, "lil.write_rd")
        assert result.stage_of(write) == 3

    def test_reads_at_native_stages(self):
        graph, result = self.schedule()
        assert result.stage_of(find(graph, "lil.instr_word")) == 1
        assert result.stage_of(find(graph, "lil.read_rs1")) == 2

    def test_chain_breakers_present(self):
        _, result = self.schedule()
        assert result.chain_breakers >= 1

    def test_solution_verifies(self):
        _, result = self.schedule()
        result.problem.verify()  # does not raise

    def test_asap_engine_agrees_on_feasibility(self):
        graph, result = self.schedule(engine="asap")
        assert result.engine == "asap"
        result.problem.verify()

    def test_milp_objective_not_worse_than_asap(self):
        _, milp_result = self.schedule(engine="milp")
        _, asap_result = self.schedule(engine="asap")
        assert milp_result.objective <= asap_result.objective


class TestEngines:
    def small_problem(self):
        problem = LongnailProblem()
        problem.add_operator_type(OperatorType("read", earliest=2, latest=4))
        problem.add_operator_type(OperatorType("logic"))
        problem.add_operator_type(
            OperatorType("write", earliest=2, latest=float("inf"))
        )
        problem.add_operation("r", "read")
        problem.add_operation("c", "logic")
        problem.add_operation("w", "write")
        problem.add_dependence("r", "c")
        problem.add_dependence("c", "w")
        return problem

    def test_asap_respects_earliest(self):
        problem = self.small_problem()
        start = ilp.solve_asap(problem)
        assert start["r"] == 2
        assert start["c"] >= 2 and start["w"] >= start["c"]

    def test_milp_matches_asap_when_lifetimes_trivial(self):
        problem = self.small_problem()
        asap = ilp.solve_asap(problem)
        problem2 = self.small_problem()
        exact = ilp.solve_milp(problem2)
        assert sum(exact.values()) <= sum(asap.values())

    def test_infeasible_window_detected(self):
        problem = LongnailProblem()
        problem.add_operator_type(OperatorType("late", latency=3,
                                               incoming_delay=0.0,
                                               outgoing_delay=0.0))
        problem.add_operator_type(OperatorType("narrow", earliest=0, latest=1))
        problem.add_operation("a", "late")
        problem.add_operation("b", "narrow")
        problem.add_dependence("a", "b")
        with pytest.raises(ScheduleError):
            ilp.solve_asap(problem)
        with pytest.raises(ScheduleError):
            ilp.solve_milp(problem)

    def test_unknown_engine(self):
        with pytest.raises(ScheduleError):
            solve_problem(LongnailProblem(), engine="quantum")

    def test_empty_problem(self):
        problem = LongnailProblem()
        assert ilp.solve_milp(problem) == {}

    @settings(deadline=None, max_examples=25)
    @given(st.integers(1, 6), st.integers(0, 3))
    def test_milp_feasible_on_random_chains(self, length, earliest):
        problem = LongnailProblem()
        problem.add_operator_type(OperatorType("src", earliest=earliest,
                                               latest=earliest + 2))
        problem.add_operator_type(OperatorType("logic"))
        problem.add_operation("s", "src")
        previous = "s"
        for i in range(length):
            problem.add_operation(f"n{i}", "logic")
            problem.add_dependence(previous, f"n{i}")
            previous = f"n{i}"
        start = ilp.solve_milp(problem)
        problem.start_time = start
        compute_start_times_in_cycle(problem)
        problem.verify()


class TestChainBreaking:
    def chain_problem(self, n, delay, cycle_time):
        problem = LongnailProblem()
        problem.add_operator_type(OperatorType(
            "logic", incoming_delay=delay, outgoing_delay=delay
        ))
        previous = None
        for i in range(n):
            problem.add_operation(f"n{i}", "logic")
            if previous is not None:
                problem.add_dependence(previous, f"n{i}")
            previous = f"n{i}"
        return problem

    def test_no_breakers_when_chain_fits(self):
        problem = self.chain_problem(3, 1.0, 10.0)
        assert compute_chain_breakers(problem, 10.0) == []

    def test_breakers_split_long_chain(self):
        problem = self.chain_problem(10, 1.0, 2.5)
        breakers = compute_chain_breakers(problem, 2.5)
        # 2 ops fit per 2.5ns cycle; 10 ops need 5 cycles -> 4+ breakers.
        assert len(breakers) >= 4

    def test_operator_slower_than_cycle_rejected(self):
        problem = self.chain_problem(2, 3.0, 2.0)
        with pytest.raises(ScheduleError, match="exceeds"):
            compute_chain_breakers(problem, 2.0)

    def test_schedule_distributes_chain(self):
        problem = self.chain_problem(10, 1.0, 2.5)
        for src, dst in compute_chain_breakers(problem, 2.5):
            problem.add_dependence(src, dst, is_chain_breaker=True)
        problem.start_time = ilp.solve_milp(problem)
        compute_start_times_in_cycle(problem)
        problem.verify()
        spread = max(problem.start_time.values())
        assert spread >= 4


class TestAlwaysScheduling:
    ZOL = '''
    import "RV32I.core_desc"
    InstructionSet zol extends RV32I {
      architectural_state { register unsigned<32> START_PC, END_PC, COUNT; }
      always {
        zol {
          if (COUNT != 0 && END_PC == PC) {
            PC = START_PC;
            --COUNT;
          }
        }
      }
    }
    '''

    def test_always_all_in_stage_zero(self):
        isa = elaborate(self.ZOL)
        lowered = lower_isa(isa)
        graph = convert_to_lil(isa, lowered.always_blocks["zol"])
        scheduler = LongnailScheduler(core_datasheet("VexRiscv"),
                                      cycle_time_ns=10.0)
        result = scheduler.schedule(graph)
        for op in graph.operations:
            if op.name == "lil.sink":
                continue
            assert result.stage_of(op) == 0

    def test_always_too_slow_rejected(self):
        isa = elaborate(self.ZOL)
        lowered = lower_isa(isa)
        graph = convert_to_lil(isa, lowered.always_blocks["zol"])
        scheduler = LongnailScheduler(
            core_datasheet("VexRiscv"),
            cycle_time_ns=1.0,
            delay_model=uniform_delay_model(0.9),
        )
        with pytest.raises(ScheduleError, match="exceeds the cycle time"):
            scheduler.schedule(graph)
