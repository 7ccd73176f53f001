"""Tests for the Problem/ChainingProblem/LongnailProblem hierarchy
(paper Table 2)."""

import pytest

from repro.scheduling.problem import (
    ChainingProblem,
    LongnailProblem,
    OperatorType,
    Problem,
    ScheduleError,
)


def two_op_problem(cls=Problem, latency=0):
    problem = cls()
    problem.add_operator_type(OperatorType("op", latency=latency,
                                           incoming_delay=1.0,
                                           outgoing_delay=1.0))
    problem.add_operation("a", "op")
    problem.add_operation("b", "op")
    problem.add_dependence("a", "b")
    return problem


class TestOperatorType:
    def test_negative_latency_rejected(self):
        with pytest.raises(ScheduleError):
            OperatorType("x", latency=-1)

    def test_zero_latency_needs_equal_delays(self):
        with pytest.raises(ScheduleError):
            OperatorType("x", latency=0, incoming_delay=1.0, outgoing_delay=2.0)

    def test_multicycle_delays_may_differ(self):
        OperatorType("x", latency=2, incoming_delay=1.0, outgoing_delay=2.0)

    def test_invalid_window_rejected(self):
        with pytest.raises(ScheduleError):
            OperatorType("x", earliest=3, latest=1)

    def test_defaults(self):
        lot = OperatorType("x")
        assert lot.earliest == 0
        assert lot.latest == float("inf")


class TestBaseProblem:
    def test_unknown_operator_type(self):
        problem = Problem()
        with pytest.raises(ScheduleError):
            problem.add_operation("a", "nope")

    def test_unregistered_dependence_endpoint(self):
        problem = Problem()
        problem.add_operator_type(OperatorType("op"))
        problem.add_operation("a", "op")
        problem.add_dependence("a", "ghost")
        with pytest.raises(ScheduleError):
            problem.check()

    def test_cycle_detected(self):
        problem = two_op_problem()
        problem.add_dependence("b", "a")
        with pytest.raises(ScheduleError, match="cycle"):
            problem.check()

    def test_dependence_against_operation_order_rejected(self):
        # Acyclic, but operations must be listed in dependence order.
        problem = Problem()
        problem.add_operator_type(OperatorType("op"))
        problem.add_operation("a", "op")
        problem.add_operation("b", "op")
        problem.add_dependence("b", "a")
        with pytest.raises(ScheduleError, match="operation order"):
            problem.check()

    def test_precedence_verified(self):
        problem = two_op_problem(latency=1)
        problem.start_time = {"a": 0, "b": 0}
        with pytest.raises(ScheduleError, match="precedence"):
            problem.verify()
        problem.start_time = {"a": 0, "b": 1}
        problem.verify()

    def test_chain_breaker_adds_one(self):
        problem = two_op_problem(latency=0)
        problem.dependences[0] = type(problem.dependences[0])(
            "a", "b", is_chain_breaker=True
        )
        problem.start_time = {"a": 0, "b": 0}
        with pytest.raises(ScheduleError):
            problem.verify()
        problem.start_time = {"a": 0, "b": 1}
        problem.verify()

    def test_conflicting_operator_type_redefinition(self):
        problem = Problem()
        problem.add_operator_type(OperatorType("op", latency=1,
                                               incoming_delay=1.0,
                                               outgoing_delay=1.0))
        with pytest.raises(ScheduleError):
            problem.add_operator_type(OperatorType("op", latency=2))


class TestChainingProblem:
    def test_same_cycle_chaining_violation(self):
        problem = two_op_problem(ChainingProblem)
        problem.start_time = {"a": 0, "b": 0}
        problem.start_time_in_cycle = {"a": 0.0, "b": 0.5}
        with pytest.raises(ScheduleError, match="chaining"):
            problem.verify()

    def test_same_cycle_chaining_ok(self):
        problem = two_op_problem(ChainingProblem)
        problem.start_time = {"a": 0, "b": 0}
        problem.start_time_in_cycle = {"a": 0.0, "b": 1.0}
        problem.verify()

    def test_cycle_boundary_outgoing_delay(self):
        problem = ChainingProblem()
        problem.add_operator_type(OperatorType("slow", latency=1,
                                               incoming_delay=0.5,
                                               outgoing_delay=2.0))
        problem.add_operator_type(OperatorType("fast", incoming_delay=0.5,
                                               outgoing_delay=0.5))
        problem.add_operation("a", "slow")
        problem.add_operation("b", "fast")
        problem.add_dependence("a", "b")
        problem.start_time = {"a": 0, "b": 1}
        problem.start_time_in_cycle = {"a": 0.0, "b": 0.0}
        with pytest.raises(ScheduleError, match="boundary"):
            problem.verify()
        problem.start_time_in_cycle = {"a": 0.0, "b": 2.0}
        problem.verify()


class TestLongnailProblem:
    def test_interface_window_enforced(self):
        """The Table 2 solution constraint:
        earliest <= startTime <= latest."""
        problem = LongnailProblem()
        problem.add_operator_type(OperatorType("iface", earliest=2, latest=4))
        problem.add_operation("read", "iface")
        problem.start_time = {"read": 1}
        problem.start_time_in_cycle = {"read": 0.0}
        with pytest.raises(ScheduleError, match="interface"):
            problem.verify()
        problem.start_time = {"read": 5}
        with pytest.raises(ScheduleError, match="interface"):
            problem.verify()
        problem.start_time = {"read": 3}
        problem.verify()

    def test_makespan(self):
        problem = LongnailProblem()
        problem.add_operator_type(OperatorType("op", latency=2,
                                               incoming_delay=0.0,
                                               outgoing_delay=0.0))
        problem.add_operation("a", "op")
        problem.start_time = {"a": 3}
        assert problem.makespan() == 5
