"""Property-based tests of chain breaking on random dataflow DAGs.

The invariant chain breaking guarantees: in the resulting schedule, no
combinational path within any single time step accumulates more delay than
the cycle time.  And the in-cycle start times computed for any legal
schedule satisfy the chaining constraints, which is why a certified
schedule skips ``verify_chaining``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    LongnailProblem,
    OperatorType,
    compute_chain_breakers,
    compute_start_times_in_cycle,
)
from repro.scheduling import chaining, ilp
from repro.scheduling.problem import ScheduleError


@st.composite
def random_dag_problem(draw):
    """A random acyclic dataflow problem with mixed operator delays."""
    node_count = draw(st.integers(3, 18))
    cycle_time = draw(st.sampled_from([1.0, 1.5, 2.5, 4.0]))
    problem = LongnailProblem()
    delays = [0.0, 0.2, 0.4, 0.8]
    for delay in delays:
        problem.add_operator_type(OperatorType(
            f"d{delay}", incoming_delay=delay, outgoing_delay=delay
        ))
    nodes = []
    for index in range(node_count):
        delay = draw(st.sampled_from(delays))
        name = f"n{index}"
        problem.add_operation(name, f"d{delay}")
        # Edges only to earlier nodes: acyclic by construction.
        if nodes:
            predecessor_count = draw(st.integers(0, min(3, len(nodes))))
            chosen = draw(st.permutations(nodes))[:predecessor_count]
            for pred in chosen:
                problem.add_dependence(pred, name)
        nodes.append(name)
    return problem, cycle_time


def max_step_delay(problem: LongnailProblem) -> float:
    """Longest accumulated combinational path within any single step."""
    worst = 0.0
    for op in problem.operations:
        lot = problem.linked_operator_type(op)
        finish = problem.start_time_in_cycle[op] + lot.outgoing_delay
        worst = max(worst, finish)
    return worst


@settings(max_examples=60, deadline=None)
@given(random_dag_problem())
def test_chain_breaking_bounds_step_delay(case):
    problem, cycle_time = case
    problem.check()
    for src, dst in compute_chain_breakers(problem, cycle_time):
        problem.add_dependence(src, dst, is_chain_breaker=True)
    problem.start_time = ilp.solve_asap(problem)
    compute_start_times_in_cycle(problem)
    problem.verify()
    assert max_step_delay(problem) <= cycle_time + 1e-9


@settings(max_examples=30, deadline=None)
@given(random_dag_problem())
def test_milp_also_respects_breakers(case):
    problem, cycle_time = case
    problem.check()
    for src, dst in compute_chain_breakers(problem, cycle_time):
        problem.add_dependence(src, dst, is_chain_breaker=True)
    problem.start_time = ilp.solve_milp(problem)
    compute_start_times_in_cycle(problem)
    problem.verify()


@settings(max_examples=30, deadline=None)
@given(random_dag_problem())
def test_breakers_monotone_in_cycle_time(case):
    """A more relaxed clock never needs more chain breakers."""
    problem, cycle_time = case
    tight = len(compute_chain_breakers(problem, cycle_time))
    relaxed = len(compute_chain_breakers(problem, cycle_time * 2))
    assert relaxed <= tight


# -- in-cycle start times ------------------------------------------------------

@st.composite
def random_chaining_problem(draw):
    """A random chaining problem with start times that respect every
    dependence: zero-latency chains inside a step, sequential
    predecessors that often end exactly at their successor's step, and
    chain breakers."""
    node_count = draw(st.integers(2, 16))
    problem = LongnailProblem()
    kinds = []
    for latency in (0, 1, 2):
        for delay in (0.0, 0.3, 0.7):
            name = f"l{latency}d{delay}"
            problem.add_operator_type(OperatorType(
                name, latency=latency, incoming_delay=delay,
                outgoing_delay=delay))
            kinds.append((name, latency))
    names, start = [], {}
    for index in range(node_count):
        kind, _ = draw(st.sampled_from(kinds))
        name = f"n{index}"
        problem.add_operation(name, kind)
        earliest = 0
        if names:
            count = draw(st.integers(0, min(3, len(names))))
            for pred in draw(st.permutations(names))[:count]:
                breaker = draw(st.booleans()) and draw(st.booleans())
                problem.add_dependence(pred, name, is_chain_breaker=breaker)
                finish = (start[pred]
                          + problem.linked_operator_type(pred).latency
                          + breaker)
                earliest = max(earliest, finish)
        start[name] = earliest + draw(st.sampled_from((0, 0, 0, 1)))
        names.append(name)
    problem.start_time = start
    return problem


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(random_chaining_problem())
def check_in_cycle_times(problem):
    chaining.compute_start_times_in_cycle(problem)
    problem.verify_chaining()
    problem.verify()


def test_in_cycle_times_pass_verify_chaining():
    # LongnailScheduler.schedule runs no verify_chaining after a
    # certified solve; this property is why it need not.
    check_in_cycle_times()


def _without_sequential_predecessors(problem):
    """``compute_start_times_in_cycle`` with its ``latency > 0`` branch
    dropped: a result leaving a register at the start of a step adds no
    delay."""
    lots = problem.linked_types
    preds = chaining._predecessors(problem)
    start = [problem.start_time[op] for op in problem.operations]
    in_cycle = []
    for v, at in enumerate(start):
        begin = 0.0
        for u in preds[v]:
            if lots[u].latency == 0 and start[u] == at:
                begin = max(begin, in_cycle[u] + lots[u].outgoing_delay)
        in_cycle.append(begin)
    problem.start_time_in_cycle.update(zip(problem.operations, in_cycle))


def test_planted_fault_fails_the_property(monkeypatch):
    monkeypatch.setattr(chaining, "compute_start_times_in_cycle",
                        _without_sequential_predecessors)
    with pytest.raises(ScheduleError, match="cycle boundary"):
        check_in_cycle_times()
