"""Operator-chaining support (paper Section 4.2/4.3).

Zero-latency operator types let arbitrarily long combinational chains end up
in one time step.  Following CIRCT's utilities, we (1) pre-compute
*chain-breaker* edges that force over-long chains apart (consumed by the
ILP's C5 constraints), and (2) post-compute the ``startTimeInCycle``
property for a solved problem.  Both walk the problem's operations in
their listed order, which is dependence order
(:meth:`~repro.scheduling.problem.Problem.check`).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.scheduling.problem import ChainingProblem, Problem, ScheduleError


def _adjacency(problem: Problem) -> Dict[Hashable, List[Hashable]]:
    preds: Dict[Hashable, List[Hashable]] = {op: [] for op in problem.operations}
    for dep in problem.dependences:
        if not dep.is_chain_breaker:
            preds[dep.target].append(dep.source)
    return preds


def compute_chain_breakers(problem: ChainingProblem,
                           cycle_time: float) -> List[Tuple[Hashable, Hashable]]:
    """Determine edges that must be separated by at least one time step so
    no combinational path exceeds ``cycle_time``.

    Performs an ASAP-with-chaining pass: every operation is provisionally
    placed in a (cycle, in-cycle finish time) slot; an operation whose chain
    would overrun the cycle time moves to the next cycle.  Every
    zero-latency dependence that crosses a provisional cycle boundary
    becomes a chain-breaker edge (the ILP's C5 constraints), which keeps the
    heuristic placement feasible for the exact solver while bounding the
    combinational depth of every time step.
    """
    preds = _adjacency(problem)
    cycle: Dict[Hashable, int] = {}
    finish: Dict[Hashable, float] = {}
    for op in problem.operations:
        lot = problem.linked_operator_type(op)
        delay = lot.incoming_delay
        if delay > cycle_time:
            raise ScheduleError(
                f"operator type '{lot.name}' delay {delay} ns exceeds the "
                f"cycle time {cycle_time} ns"
            )
        c, t = 0, 0.0
        for pred in preds[op]:
            pred_lot = problem.linked_operator_type(pred)
            if pred_lot.latency > 0:
                # Result comes out of a register at the start of the cycle
                # after the predecessor finishes.
                pc = cycle[pred] + pred_lot.latency
                pt = pred_lot.outgoing_delay
            else:
                pc = cycle[pred]
                pt = finish[pred]
            if pc > c:
                c, t = pc, pt
            elif pc == c:
                t = max(t, pt)
        if t + delay > cycle_time:
            c, t = c + 1, 0.0
        cycle[op] = c
        finish[op] = t + delay
    breakers: List[Tuple[Hashable, Hashable]] = []
    for dep in problem.dependences:
        if dep.is_chain_breaker:
            continue
        pred_lot = problem.linked_operator_type(dep.source)
        if pred_lot.latency == 0 and cycle[dep.target] > cycle[dep.source]:
            breakers.append((dep.source, dep.target))
    return breakers


def compute_start_times_in_cycle(problem: ChainingProblem) -> None:
    """Fill the ``startTimeInCycle`` property for a problem whose
    ``startTime`` values are already computed (CIRCT utility equivalent)."""
    preds = _adjacency(problem)
    for op in problem.operations:
        lot = problem.linked_operator_type(op)
        start = 0.0
        for pred in preds[op]:
            pred_lot = problem.linked_operator_type(pred)
            if pred_lot.latency == 0:
                if problem.start_time[pred] == problem.start_time[op]:
                    start = max(
                        start,
                        problem.start_time_in_cycle[pred]
                        + pred_lot.outgoing_delay,
                    )
            elif (problem.start_time[pred] + pred_lot.latency
                  == problem.start_time[op]):
                start = max(start, pred_lot.outgoing_delay)
        problem.start_time_in_cycle[op] = start
