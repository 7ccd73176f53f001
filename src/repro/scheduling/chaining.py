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

from typing import Hashable, List, Tuple

from repro.scheduling.problem import ChainingProblem, Problem, ScheduleError


def _predecessors(problem: Problem) -> List[List[int]]:
    """Each operation's data predecessors, by position; chain breakers
    add no data path."""
    position = problem.position
    preds: List[List[int]] = [[] for _ in problem.operations]
    for source, target, is_chain_breaker in problem.dependences:
        if not is_chain_breaker:
            preds[position[target]].append(position[source])
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
    lots = problem.linked_types
    preds = _predecessors(problem)
    cycle: List[int] = []
    finish: List[float] = []
    for v, lot in enumerate(lots):
        delay = lot.incoming_delay
        if delay > cycle_time:
            raise ScheduleError(
                f"operator type '{lot.name}' delay {delay} ns exceeds the "
                f"cycle time {cycle_time} ns"
            )
        c, t = 0, 0.0
        for u in preds[v]:
            pred_lot = lots[u]
            if pred_lot.latency > 0:
                # Result comes out of a register at the start of the cycle
                # after the predecessor finishes.
                pc = cycle[u] + pred_lot.latency
                pt = pred_lot.outgoing_delay
            else:
                pc = cycle[u]
                pt = finish[u]
            if pc > c:
                c, t = pc, pt
            elif pc == c and pt > t:
                t = pt
        if t + delay > cycle_time:
            c, t = c + 1, 0.0
        cycle.append(c)
        finish.append(t + delay)
    position = problem.position
    breakers: List[Tuple[Hashable, Hashable]] = []
    for source, target, is_chain_breaker in problem.dependences:
        if is_chain_breaker:
            continue
        u = position[source]
        if lots[u].latency == 0 and cycle[position[target]] > cycle[u]:
            breakers.append((source, target))
    return breakers


def compute_start_times_in_cycle(problem: ChainingProblem) -> None:
    """Fill the ``startTimeInCycle`` property for a problem whose
    ``startTime`` values are already computed (CIRCT utility equivalent)."""
    lots = problem.linked_types
    preds = _predecessors(problem)
    start = [problem.start_time[op] for op in problem.operations]
    in_cycle: List[float] = []
    for v, at in enumerate(start):
        begin = 0.0
        for u in preds[v]:
            pred_lot = lots[u]
            if pred_lot.latency == 0:
                if start[u] == at:
                    begin = max(begin, in_cycle[u] + pred_lot.outgoing_delay)
            elif start[u] + pred_lot.latency == at:
                begin = max(begin, pred_lot.outgoing_delay)
        in_cycle.append(begin)
    problem.start_time_in_cycle.update(zip(problem.operations, in_cycle))
