"""The ILP formulation of the LongnailProblem (paper Figure 7).

Decision variables: a start time ``t_i`` per operation and a lifetime
``l_ij`` per dependence edge.  The multi-criteria objective minimizes the sum
of all start times (overall latency) plus all lifetimes (pipeline registers
in the ISAX module):

    minimize    sum_i t_i  +  sum_{i->j} l_ij
    subject to  t_i + latency_i          <= t_j      (C1, precedence)
                l_ij                     >= t_j - t_i (C2, lifetimes)
                earliest_i <= t_i <= latest_i         (C3, interfaces)
                t_i, l_ij integer, >= 0               (C4, domains)
                t_i + latency_i + 1      <= t_j      (C5, chain breakers)

The paper solves this with Cbc via OR-Tools; we use ``scipy.optimize.milp``
(HiGHS).  Because the constraint matrix is a network (difference-constraint)
matrix, the LP relaxation is integral, so any exact solver produces the same
optimum.  A pure-Python ASAP longest-path engine is provided as the
heuristic baseline for the scheduler ablation bench.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from repro.scheduling.problem import (
    INFINITY,
    LongnailProblem,
    ScheduleError,
)


#: Lifetime weights are multiples of 1/32 of a word; scaling by this makes
#: them, and the collapsed objective's node costs, integers.
WEIGHT_SCALE = 32


def _lifetime_weight(source: Hashable) -> float:
    """Width-proportional weight of a dependence edge's lifetime (bits
    carried across a cycle boundary), normalized to a 32-bit word."""
    results = getattr(source, "results", None)
    if results:
        return max(0.03125, results[0].width / 32.0)
    return 1.0


def solve_asap(problem: LongnailProblem) -> Dict[Hashable, int]:
    """Heuristic engine: as-soon-as-possible longest-path schedule honoring
    earliest bounds and chain breakers; raises if a latest bound cannot be
    met (ASAP is componentwise minimal, so failure implies infeasibility).
    Operations are listed in dependence order, so one forward pass
    suffices."""
    return dict(zip(problem.operations, asap_times(problem)))


def asap_times(problem: LongnailProblem) -> List[int]:
    """:func:`solve_asap`'s start times, aligned with
    ``problem.operations``."""
    lots, position = problem.linked_types, problem.position
    preds: List[List[Tuple[int, int]]] = [[] for _ in lots]
    for source, target, is_chain_breaker in problem.dependences:
        u = position[source]
        preds[position[target]].append(
            (u, lots[u].latency + (1 if is_chain_breaker else 0)))

    start: List[int] = []
    for v, lot in enumerate(lots):
        time = lot.earliest
        for u, gap in preds[v]:
            if start[u] + gap > time:
                time = start[u] + gap
        if time > lot.latest:
            raise ScheduleError(
                f"infeasible: {problem.operations[v]} cannot start before "
                f"{time} but its window closes at {lot.latest}"
            )
        start.append(time)
    return start


def solve_milp(problem: LongnailProblem) -> Dict[Hashable, int]:
    """Exact engine: the Figure 7 ILP via scipy's HiGHS-based MILP solver.
    Imports numpy and scipy, so that runs without a MILP solve skip them."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    ops = problem.operations
    deps = problem.dependences
    n, m = len(ops), len(deps)
    if n == 0:
        return {}
    lots, index = problem.linked_types, problem.position

    # Objective: sum of start times plus sum of lifetimes.  Lifetimes are
    # weighted by the carried value's width: the objective minimizes
    # pipeline register *bits* in the ISAX module, which is the quantity
    # Figure 7's lifetime term stands for.
    cost = np.ones(n + m)
    for k, dep in enumerate(deps):
        cost[n + k] = _lifetime_weight(dep.source)

    # A finite horizon keeps the solver comfortable.
    horizon = sum(lot.latency + 1 for lot in lots) + max(
        (lot.earliest for lot in lots), default=0
    )

    lower = np.zeros(n + m)
    upper = np.full(n + m, float(horizon))
    for i, (op, lot) in enumerate(zip(ops, lots)):
        lower[i] = lot.earliest
        if lot.latest != INFINITY:
            upper[i] = min(upper[i], lot.latest)
        if lower[i] > upper[i]:
            raise ScheduleError(f"infeasible bounds for {op}")

    # Constraint rows: (C1/C5) t_i - t_j <= -(latency_i [+1]);
    #                  (C2)    t_j - t_i - l_ij <= 0.
    matrix = lil_matrix((2 * m, n + m))
    bound = np.zeros(2 * m)
    for k, dep in enumerate(deps):
        i, j = index[dep.source], index[dep.target]
        latency = lots[i].latency + (1 if dep.is_chain_breaker else 0)
        matrix[2 * k, i] = 1.0
        matrix[2 * k, j] = -1.0
        bound[2 * k] = -float(latency)
        matrix[2 * k + 1, j] = 1.0
        matrix[2 * k + 1, i] = -1.0
        matrix[2 * k + 1, n + k] = -1.0
        bound[2 * k + 1] = 0.0

    constraints = LinearConstraint(matrix.tocsr(), -np.inf, bound)
    result = milp(
        c=cost,
        constraints=constraints,
        bounds=Bounds(lower, upper),
        integrality=np.ones(n + m),
    )
    if not result.success:
        raise ScheduleError(f"ILP solver failed: {result.message}")
    values = result.x
    return {op: int(round(values[i])) for i, op in enumerate(ops)}


def objective_value(problem: LongnailProblem) -> int:
    """Figure 7 objective of the current solution: sum of start times plus
    sum of (non-negative) lifetimes."""
    total = sum(problem.start_time[op] for op in problem.operations)
    for dep in problem.dependences:
        total += max(
            0, problem.start_time[dep.target] - problem.start_time[dep.source]
        )
    return total


def weighted_objective_of(problem: LongnailProblem,
                          start_time: Dict[Hashable, int]) -> float:
    """Weighted objective of an explicit solution (start times plus
    width-weighted lifetimes, i.e. pipeline-register bits / 32)."""
    total = float(sum(start_time[op] for op in problem.operations))
    for dep in problem.dependences:
        lifetime = max(
            0, start_time[dep.target] - start_time[dep.source]
        )
        total += _lifetime_weight(dep.source) * lifetime
    return total


def weighted_objective_value(problem: LongnailProblem) -> float:
    """The objective the exact engines actually minimize, evaluated on the
    problem's current solution."""
    return weighted_objective_of(problem, problem.start_time)

