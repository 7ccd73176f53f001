"""LP-free exact engine for the LongnailProblem (the scheduler fast path).

The Figure 7 formulation has far more structure than a generic MILP.  Every
lifetime variable appears only as ``l_ij >= t_j - t_i`` with a positive
width weight, and precedence already forces ``t_j >= t_i``, so any optimum
makes C2 tight: ``l_ij = t_j - t_i``.  Substituting collapses the
objective to a per-operation linear form

    minimize  sum_i c_i * t_i,    c_i = 1 + w_in(i) - w_out(i)

over a pure difference-constraint system (C1/C3/C5).  Its constraint
matrix is a graph incidence matrix — totally unimodular — so the LP
optimum is integral and no branch-and-bound is ever needed.  Minimizing a
linear form over a difference-constraint polyhedron is the LP dual of an
uncapacitated min-cost flow, which this module solves exactly:

* the ASAP longest-path schedule is the componentwise-minimal feasible
  point and doubles as a dual-feasible initial potential function,
* at ASAP the tight constraints span an arborescence from the virtual
  root, so a bottom-up pass over it (:func:`_warm_start`) serves the
  bulk of the flow demand in linear time before any search runs,
* the remainder drains through primal-dual phases
  (:func:`_solve_flow`): flow is pushed away from operations with
  ``c_i < 0`` — ones whose outgoing values are wider than what they
  consume plus their own start-time cost — i.e. the algorithm *delays
  groups of operations exactly while the width-weighted register-bit
  saving exceeds the start-time cost*,
* on termination the node potentials are an optimal integral schedule
  whose weighted objective equals :func:`solve_milp`'s (complementary
  slackness + strong duality); the flow is returned with the schedule as
  its certificate, and :func:`repro.scheduling.certificate.check_certificate`
  proves each returned schedule optimal from it,
* a final longest-path pass over the flow-tight arcs canonicalizes the
  answer to the componentwise-earliest *optimal* schedule, which makes
  the engine deterministic and cache-friendly.

All arithmetic is integer: lifetime weights are multiples of 1/32
(width-proportional, one 32-bit word == 1.0), so scaling the node costs
by 32 keeps every flow supply integral.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional, Tuple

from repro.scheduling.certificate import ROOT, Flow
from repro.scheduling.ilp import WEIGHT_SCALE, _lifetime_weight, solve_asap
from repro.scheduling.problem import (
    INFINITY,
    LongnailProblem,
    ScheduleError,
)


def scaled_weight(op: Hashable) -> int:
    """``_lifetime_weight`` as an exact integer (bits, clamped to >= 1)."""
    return round(_lifetime_weight(op) * WEIGHT_SCALE)


def _constraint_arcs(problem: LongnailProblem,
                     index: Dict[Hashable, int],
                     root: int) -> Dict[Tuple[int, int], int]:
    """All difference constraints ``t_v - t_u >= gap`` as a (u, v) -> gap
    map.  Parallel dependence edges only constrain through their largest
    gap; window bounds become arcs to/from the virtual root (pinned at 0).
    """
    gaps: Dict[Tuple[int, int], int] = {}
    for dep in problem.dependences:
        u, v = index[dep.source], index[dep.target]
        gap = problem.latency(dep.source) + (1 if dep.is_chain_breaker else 0)
        if gaps.get((u, v), -1) < gap:
            gaps[(u, v)] = gap
    for op, i in index.items():
        lot = problem.linked_operator_type(op)
        gaps[(root, i)] = lot.earliest
        if lot.latest != INFINITY:
            gaps[(i, root)] = -int(lot.latest)
    return gaps


def solve_fastpath(problem: LongnailProblem
                   ) -> Tuple[Dict[Hashable, int], Flow]:
    """Exact engine without an LP solver; matches ``solve_milp``'s weighted
    objective.  Returns the componentwise-earliest optimal schedule and,
    as its certificate, the flow-carrying constraint arcs in the format of
    :mod:`repro.scheduling.certificate`."""
    ops = problem.operations
    if not ops:
        return {}, ()
    # ASAP validates feasibility (window conflicts raise here with a
    # readable message) and seeds the dual potentials below.
    asap = solve_asap(problem)

    n = len(ops)
    root = n
    index = {op: i for i, op in enumerate(ops)}

    # Node costs of the collapsed objective, scaled to integers.  The
    # virtual root absorbs the balance so supplies sum to zero.
    node_cost = [WEIGHT_SCALE] * n + [0]
    for dep in problem.dependences:
        w = scaled_weight(dep.source)
        node_cost[index[dep.target]] += w
        node_cost[index[dep.source]] -= w
    node_cost[root] = -sum(node_cost[:n])

    gaps = _constraint_arcs(problem, index, root)

    # Residual network (standard paired-arc layout: arc a and a ^ 1 are
    # each other's reverses).  Constraint arcs are uncapacitated.
    head: List[int] = []
    cost: List[int] = []
    cap: List[float] = []
    adj: List[List[int]] = [[] for _ in range(n + 1)]
    arc_id: Dict[Tuple[int, int], int] = {}

    for (u, v), gap in gaps.items():
        arc_id[(u, v)] = len(head)
        adj[u].append(len(head))
        head.append(v)
        cost.append(-gap)
        cap.append(float("inf"))
        adj[v].append(len(head))
        head.append(u)
        cost.append(gap)
        cap.append(0)

    # Dual supplies: node k must ship -c_k units.  Potentials from any
    # feasible primal point are dual-feasible; use ASAP (root pinned at 0).
    excess = [-c for c in node_cost]
    pot = [0] * (n + 1)
    for op, i in index.items():
        pot[i] = -asap[op]

    _warm_start(excess, pot, gaps, arc_id, cap, root)
    _solve_flow(excess, pot, head, cost, cap, adj)

    # Flow on a constraint arc shows up as capacity on its reverse.
    flow = tuple((ROOT if u == root else u, ROOT if v == root else v,
                  int(cap[a ^ 1]))
                 for (u, v), a in arc_id.items() if cap[a ^ 1] > 0)
    return (_earliest_optimal(problem, index, root, gaps, head, cap, adj),
            flow)


def _warm_start(excess: List[int], pot: List[int],
                gaps: Dict[Tuple[int, int], int],
                arc_id: Dict[Tuple[int, int], int],
                cap: List[float], root: int) -> None:
    """Serve the bulk of the demand without any shortest-path search.

    At ASAP, every operation is tight on at least one incoming constraint
    — a critical predecessor or its ``earliest`` bound — so the tight
    (zero reduced-cost) arcs contain a spanning arborescence rooted at the
    virtual root.  Aggregating each subtree's net demand bottom-up and
    pushing it down the tree is an admissible pseudo-flow that satisfies
    every deficit in O(n + m); only subtrees with a clamped *surplus*
    (wide producers whose savings must flow against the tree) are left
    for the successive-shortest-path loop, which is usually none.
    """
    total = len(excess)
    parent = [-1] * total
    parent_arc = [-1] * total
    for (u, v), gap in gaps.items():
        # Tightness in potential form: reduced cost 0 <=> the constraint
        # t_v - t_u >= gap holds with equality at ASAP (pot = -asap).
        if v != root and parent[v] < 0 and pot[u] - pot[v] == gap:
            parent[v] = u
            parent_arc[v] = arc_id[(u, v)]
    children: List[List[int]] = [[] for _ in range(total)]
    for v in range(total):
        if v != root:
            assert parent[v] >= 0, "ASAP left a node with no tight arc"
            children[parent[v]].append(v)

    order: List[int] = []
    stack = [root]
    while stack:
        u = stack.pop()
        order.append(u)
        stack.extend(children[u])

    pushed_up = [0] * total     # demand each node forwards to its parent
    for v in reversed(order):
        if v == root:
            continue
        demand = -excess[v] + pushed_up[v]
        if demand > 0:
            a = parent_arc[v]
            cap[a ^ 1] += demand    # forward cap is infinite; flow shows
            pushed_up[parent[v]] += demand  # up as reverse capacity
            excess[v] = 0
        else:
            excess[v] = -demand     # clamped surplus, handled by SSP
    excess[root] -= pushed_up[root]


def _solve_flow(excess: List[int], pot: List[int], head: List[int],
                cost: List[int], cap: List[float],
                adj: List[List[int]]) -> None:
    """Drain all remaining excess with primal-dual phases: one multi-source
    Dijkstra prices every node at once, then a blocking-flow pass pushes
    along *all* the zero-reduced-cost shortest paths it uncovered, so many
    source/deficit pairs settle per shortest-path computation instead of
    one.  A phase whose DFS finds nothing (possible, since it skips arcs
    closing zero-cost cycles) falls back to a single classic augmentation,
    which guarantees progress and hence termination."""
    total = len(adj)
    while True:
        sources = [v for v in range(total) if excess[v] > 0]
        if not sources:
            return
        dist: List[Optional[int]] = [None] * total
        finalized = [False] * total
        heap: List[Tuple[int, int]] = [(0, s) for s in sources]
        for s in sources:
            dist[s] = 0
        heapq.heapify(heap)
        while heap:
            d, u = heapq.heappop(heap)
            if finalized[u]:
                continue
            finalized[u] = True
            for a in adj[u]:
                if cap[a] <= 0:
                    continue
                v = head[a]
                if finalized[v]:
                    continue
                nd = d + cost[a] + pot[u] - pot[v]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        if not any(finalized[v] and excess[v] < 0 for v in range(total)):
            # pragma: no cover - guarded by ASAP feasibility
            raise ScheduleError(
                "fast-path scheduler: no augmenting path (internal "
                "error, the problem should be bounded)"
            )
        horizon = max(d for d, f in zip(dist, finalized) if f)
        for v in range(total):
            dv = dist[v]
            pot[v] += dv if finalized[v] and dv is not None else horizon
        if _blocking_flow(sources, excess, pot, head, cost, cap, adj) == 0:
            # pragma: no cover - cycle-skipping starved the DFS
            for s in sources:
                if excess[s] > 0:
                    _augment(s, excess, pot, head, cost, cap, adj)
                    break


def _blocking_flow(sources: List[int], excess: List[int], pot: List[int],
                   head: List[int], cost: List[int], cap: List[float],
                   adj: List[List[int]]) -> int:
    """Push as much excess as an iterative DFS finds through the admissible
    (zero reduced-cost, positive-capacity) arcs; current-arc pointers make
    the pass near-linear.  Arcs leading back onto the active path (zero
    reduced-cost 2-cycles between an arc and its pushed reverse) are
    skipped, which may leave flow for the next phase — never wrong, at
    worst one extra Dijkstra."""
    total_pushed = 0
    ptr = [0] * len(adj)
    onpath = [False] * len(adj)
    for s in sources:
        exhausted = False
        while excess[s] > 0 and not exhausted:
            path: List[int] = []
            onpath[s] = True
            u = s
            while True:
                if excess[u] < 0:
                    amount = min(excess[s], -excess[u])
                    for a in path:
                        if cap[a] < amount:
                            amount = int(cap[a])
                    for a in path:
                        cap[a] -= amount
                        cap[a ^ 1] += amount
                        onpath[head[a]] = False
                    onpath[s] = False
                    excess[s] -= amount
                    excess[u] += amount
                    total_pushed += amount
                    break
                advanced = False
                while ptr[u] < len(adj[u]):
                    a = adj[u][ptr[u]]
                    v = head[a]
                    if (cap[a] > 0 and not onpath[v]
                            and cost[a] + pot[u] - pot[v] == 0):
                        path.append(a)
                        onpath[v] = True
                        u = v
                        advanced = True
                        break
                    ptr[u] += 1
                if advanced:
                    continue
                if u == s:
                    onpath[s] = False
                    exhausted = True
                    break
                a = path.pop()
                onpath[u] = False
                u = head[a ^ 1]
                ptr[u] += 1
    return total_pushed


def _augment(source: int, excess: List[int], pot: List[int],
             head: List[int], cost: List[int], cap: List[float],
             adj: List[List[int]]) -> int:
    """One successive-shortest-path augmentation from ``source`` to the
    nearest node with a deficit; returns that node (or -1)."""
    total = len(adj)
    dist: List[Optional[int]] = [None] * total
    parent_arc = [-1] * total
    finalized = [False] * total
    dist[source] = 0
    heap: List[Tuple[int, int]] = [(0, source)]
    target = -1
    while heap:
        d, u = heapq.heappop(heap)
        if finalized[u]:
            continue
        finalized[u] = True
        if excess[u] < 0:
            target = u
            break
        for a in adj[u]:
            if cap[a] <= 0:
                continue
            v = head[a]
            if finalized[v]:
                continue
            nd = d + cost[a] + pot[u] - pot[v]
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                parent_arc[v] = a
                heapq.heappush(heap, (nd, v))
    if target < 0:
        return -1
    reach = dist[target]
    assert reach is not None
    # Keep all residual reduced costs non-negative for the next round.
    for v in range(total):
        dv = dist[v]
        pot[v] += reach if dv is None or dv > reach else dv

    # Bottleneck: the source's excess, the target's deficit, and any
    # reverse (finite) residual capacity along the path.
    amount = min(excess[source], -excess[target])
    v = target
    while v != source:
        a = parent_arc[v]
        amount = min(amount, cap[a])
        v = head[a ^ 1]
    amount = int(amount)
    v = target
    while v != source:
        a = parent_arc[v]
        cap[a] -= amount
        cap[a ^ 1] += amount
        v = head[a ^ 1]
    excess[source] -= amount
    excess[target] += amount
    return target


def _earliest_optimal(problem: LongnailProblem, index: Dict[Hashable, int],
                      root: int, gaps: Dict[Tuple[int, int], int],
                      head: List[int], cap: List[float],
                      adj: List[List[int]]) -> Dict[Hashable, int]:
    """Canonicalize the optimum: by complementary slackness the optimal
    face is exactly the feasible points that keep every flow-carrying arc
    tight, so adding the matching equalities and taking longest paths from
    the root yields the componentwise-earliest optimal schedule."""
    total = len(adj)
    relaxation: List[Tuple[int, int, int]] = [
        (u, v, gap) for (u, v), gap in gaps.items()
    ]
    for u in range(total):
        for a in adj[u]:
            # Even arc ids are the forward constraint arcs; flow on one
            # shows up as capacity on its odd-id reverse.
            if a % 2 == 0 and cap[a ^ 1] > 0:
                (cu, cv) = (u, head[a])
                relaxation.append((cv, cu, -gaps[(cu, cv)]))

    dist: List[float] = [float("-inf")] * total
    dist[root] = 0
    for _ in range(total + 1):
        changed = False
        for u, v, gap in relaxation:
            if dist[u] != float("-inf") and dist[u] + gap > dist[v]:
                dist[v] = dist[u] + gap
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - the face is non-empty by construction
        raise ScheduleError(
            "fast-path scheduler: optimal face has no earliest point "
            "(internal error)"
        )
    return {op: int(dist[i]) for op, i in index.items()}
