"""Property-based tests of chain breaking on random dataflow DAGs.

The invariant chain breaking guarantees: in the resulting schedule, no
combinational path within any single time step accumulates more delay than
the cycle time.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling import (
    LongnailProblem,
    OperatorType,
    compute_chain_breakers,
    compute_start_times_in_cycle,
)
from repro.scheduling import ilp


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
