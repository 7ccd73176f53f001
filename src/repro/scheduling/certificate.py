"""Optimality certificates for Figure 7 schedules.

The fast path (:mod:`repro.scheduling.fastpath`) returns, with each
schedule, the min-cost flow it solved: a non-negative integer flow on
the constraint arcs of the problem.  :func:`check_certificate` proves the
schedule optimal from that flow alone, in O(n + m) integer arithmetic,
without trusting the solver or sharing its code (this module imports
nothing from ``fastpath``).  Four checks:

* **feasibility** — the start times meet every C1/C5 dependence
  ``t_v - t_u >= latency_u (+1 for a chain breaker)`` and every C3/C4
  window ``0 <= earliest_i <= t_i <= latest_i``;
* **nonnegativity** — every arc carries a non-negative integer flow;
* **slackness** — flow is positive only on constraint arcs that the
  schedule makes tight;
* **conservation** — at each operation, inflow minus outflow equals the
  scaled node cost ``c_i = 32 + w_in(i) - w_out(i)`` of the collapsed
  objective ``sum_i c_i * t_i``.

Why they suffice: with ``t_ROOT = 0``, conservation gives, for *any*
schedule ``t'``, ``sum_i c_i t'_i = sum_arcs y_a (t'_head - t'_tail)``.
If ``t'`` is feasible, each term is ``>= y_a * gap_a`` (nonnegativity),
and by slackness ``t`` meets that bound with equality, so ``t``
minimizes ``sum_i c_i t_i``.  Every latency is >= 0, so C1 keeps every
lifetime ``t_v - t_u`` non-negative and Figure 7's objective at its
optimal lifetimes equals ``sum_i c_i t_i / 32``; the certified schedule
is therefore optimal for Figure 7 itself (docs/scheduling.md,
"Certificate").

A flow is a sequence of ``(u, v, units)`` arcs.  ``u`` and ``v`` index
``problem.operations``; :data:`ROOT` stands for the virtual node pinned at
time 0, so ``(ROOT, i)`` is the bound ``t_i >= earliest_i`` and
``(i, ROOT)`` the bound ``t_i <= latest_i``.  Arcs absent from the flow
carry none.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.scheduling.ilp import WEIGHT_SCALE, _lifetime_weight
from repro.scheduling.problem import INFINITY, LongnailProblem

#: The virtual time-zero node of a flow arc.
ROOT = -1

Flow = Tuple[Tuple[int, int, int], ...]


def check_certificate(problem: LongnailProblem,
                      start_time: Mapping[Hashable, int],
                      flow: Sequence[Tuple[int, int, int]]) -> Optional[str]:
    """``None`` if ``flow`` proves ``start_time`` optimal for ``problem``,
    else which of the four checks failed, and where."""
    ops = problem.operations
    count = len(ops)
    lots = problem.linked_types
    times = [start_time.get(op) for op in ops]
    for op, time, lot in zip(ops, times, lots):
        if type(time) is not int:
            return f"feasibility: {op} has no integer start time"
        if not 0 <= lot.earliest <= time <= lot.latest:
            return (f"feasibility: {op} starts at {time}, outside its "
                    f"window [{lot.earliest}, {lot.latest}]")
    weights: List[int] = []
    for op in ops:
        weight = _lifetime_weight(op) * WEIGHT_SCALE
        if weight != int(weight):
            return (f"conservation: lifetime weight of {op} is not a "
                    f"multiple of 1/{WEIGHT_SCALE}")
        weights.append(int(weight))

    position = problem.position
    gaps: Dict[Tuple[int, int], int] = {}
    balance = [WEIGHT_SCALE] * count
    for source, target, is_chain_breaker in problem.dependences:
        u, v = position[source], position[target]
        gap = lots[u].latency + (1 if is_chain_breaker else 0)
        if times[v] - times[u] < gap:
            return (f"feasibility: {target} starts {times[v] - times[u]} "
                    f"cycle(s) after {source}, needs {gap}")
        if gaps.get((u, v), -1) < gap:
            gaps[(u, v)] = gap
        balance[v] += weights[u]
        balance[u] -= weights[u]

    for u, v, units in flow:
        if type(units) is not int or units < 0:
            return f"nonnegativity: arc ({u}, {v}) carries {units!r}"
        if units == 0:
            continue
        if u == ROOT and 0 <= v < count:
            slack = times[v] - lots[v].earliest
        elif v == ROOT and 0 <= u < count and lots[u].latest != INFINITY:
            slack = int(lots[u].latest) - times[u]
        elif (u, v) in gaps:
            slack = times[v] - times[u] - gaps[(u, v)]
        else:
            return f"slackness: arc ({u}, {v}) is not a constraint"
        if slack:
            return (f"slackness: arc ({u}, {v}) carries {units} unit(s) "
                    f"but has {slack} cycle(s) of slack")
        if v != ROOT:
            balance[v] -= units
        if u != ROOT:
            balance[u] += units

    for i, rest in enumerate(balance):
        if rest:
            return (f"conservation: {ops[i]} misses its node cost by "
                    f"{rest} unit(s)")
    return None
