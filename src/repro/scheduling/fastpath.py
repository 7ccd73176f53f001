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
  bulk of the flow demand in linear time before any search runs; when it
  leaves no surplus, ASAP is optimal and, as the least feasible point,
  already the earliest optimum,
* the remainder drains through primal-dual phases
  (:func:`_solve_flow`): flow is pushed away from operations with
  ``c_i < 0`` — ones whose outgoing values are wider than what they
  consume plus their own start-time cost — i.e. the algorithm *delays
  groups of operations exactly while the width-weighted register-bit
  saving exceeds the start-time cost*.  Each phase prices nodes with a
  bucket queue (:func:`_distances`) that stops at the last deficit,
* on termination the node potentials are an optimal integral schedule
  whose weighted objective equals :func:`solve_milp`'s (complementary
  slackness + strong duality); the flow is returned with the schedule as
  its certificate, and :func:`repro.scheduling.certificate.check_certificate`
  proves each returned schedule optimal from it,
* one more bucket-queue pass over every residual arc's slack
  (:func:`_earliest_optimal`) canonicalizes the answer to the
  componentwise-earliest *optimal* schedule, which makes the engine
  deterministic and cache-friendly.

All arithmetic is integer: lifetime weights are multiples of 1/32
(width-proportional, one 32-bit word == 1.0), so scaling the node costs
by 32 keeps every flow supply integral.  The engine reads the problem's
index (``problem.position``, ``problem.linked_types``) and works on
integer arrays over operation positions, the virtual root being node
``n``.  docs/scheduling.md ("Why no LP solver is needed") has the
arguments in full.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.scheduling.certificate import ROOT, Flow
from repro.scheduling.ilp import WEIGHT_SCALE, _lifetime_weight, asap_times
from repro.scheduling.problem import (
    INFINITY,
    LongnailProblem,
    ScheduleError,
)

#: Residual capacity of an uncapacitated constraint arc.
UNBOUNDED = 1 << 62


def scaled_weight(op: Hashable) -> int:
    """``_lifetime_weight`` as an exact integer (bits, clamped to >= 1)."""
    return round(_lifetime_weight(op) * WEIGHT_SCALE)


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
    asap = asap_times(problem)

    n = len(ops)
    root = n
    lots, position = problem.linked_types, problem.position

    # Node costs of the collapsed objective, scaled to integers, and the
    # difference constraints t_v - t_u >= gap: parallel dependence edges
    # only constrain through their largest gap.  The virtual root
    # absorbs the balance so supplies sum to zero.
    weights = [scaled_weight(op) for op in ops]
    node_cost = [WEIGHT_SCALE] * n + [0]
    gaps: Dict[Tuple[int, int], int] = {}
    for source, target, is_chain_breaker in problem.dependences:
        u, v = position[source], position[target]
        node_cost[v] += weights[u]
        node_cost[u] -= weights[u]
        gap = lots[u].latency + (1 if is_chain_breaker else 0)
        if gaps.get((u, v), -1) < gap:
            gaps[(u, v)] = gap
    node_cost[root] = -sum(node_cost[:n])

    # Constraint arcs: the dependences, then the window bounds as arcs
    # from and to the virtual root (pinned at 0).
    tails = [u for u, _ in gaps]
    heads = [v for _, v in gaps]
    lengths = list(gaps.values())
    bounded = [i for i, lot in enumerate(lots) if lot.latest != INFINITY]
    tails += [root] * n + bounded
    heads += list(range(n)) + [root] * len(bounded)
    lengths += [lot.earliest for lot in lots]
    lengths += [-int(lots[i].latest) for i in bounded]

    # Residual network in the paired-arc layout: arc 2k is constraint k,
    # uncapacitated, and arc 2k + 1 its reverse, whose capacity is the
    # flow on constraint k.
    head = [0] * (2 * len(lengths))
    head[0::2] = heads
    head[1::2] = tails
    cost = head[:]
    cost[0::2] = [-gap for gap in lengths]
    cost[1::2] = lengths
    cap = [UNBOUNDED, 0] * len(lengths)

    # Dual supplies: node k must ship -c_k units.  Potentials from any
    # feasible primal point are dual-feasible; use ASAP (root pinned at 0).
    excess = [-c for c in node_cost]
    pot = [-t for t in asap] + [0]

    if _warm_start(excess, pot, head, cost, cap):
        start = asap
    else:
        adj: List[List[int]] = [[] for _ in range(n + 1)]
        for k, (tail, v) in enumerate(zip(tails, heads)):
            adj[tail].append(2 * k)
            adj[v].append(2 * k + 1)
        _solve_flow(excess, pot, head, cost, cap, adj)
        start = _earliest_optimal(pot, head, cost, cap, adj)

    flow = tuple((ROOT if tail == root else tail, ROOT if v == root else v,
                  units)
                 for tail, v, units in zip(tails, heads, cap[1::2])
                 if units > 0)
    return dict(zip(ops, start)), flow


def _warm_start(excess: List[int], pot: List[int], head: List[int],
                cost: List[int], cap: List[int]) -> bool:
    """Serve the bulk of the demand without any shortest-path search;
    True if no surplus is left, i.e. the ASAP potentials are optimal.

    At ASAP, every operation is tight on at least one incoming constraint
    — a critical predecessor or its ``earliest`` bound — so the tight
    (zero reduced-cost) arcs contain a spanning arborescence rooted at the
    virtual root.  Aggregating each subtree's net demand bottom-up and
    pushing it down the tree is an admissible pseudo-flow that satisfies
    every deficit in O(n + m); only subtrees with a clamped *surplus*
    (wide producers whose savings must flow against the tree) are left
    for the primal-dual phases.  Every tree arc points from a lower
    position (or the root) to a higher one, so descending positions is a
    bottom-up order.
    """
    root = len(excess) - 1
    parent_arc = [-1] * root
    for a in range(0, len(head), 2):
        # Tightness in potential form: reduced cost 0 <=> the constraint
        # t_v - t_u >= gap holds with equality at ASAP (pot = -asap).
        v = head[a]
        if (v != root and parent_arc[v] < 0
                and cost[a] + pot[head[a + 1]] - pot[v] == 0):
            parent_arc[v] = a
    pushed_up = [0] * (root + 1)    # demand each node forwards to its parent
    balanced = True
    for v in range(root - 1, -1, -1):
        a = parent_arc[v]
        assert a >= 0, "ASAP left a node with no tight arc"
        demand = -excess[v] + pushed_up[v]
        if demand > 0:
            cap[a + 1] += demand    # forward cap is unbounded; flow shows
            pushed_up[head[a + 1]] += demand    # up as reverse capacity
            excess[v] = 0
        else:
            excess[v] = -demand     # clamped surplus, left to the phases
            balanced = balanced and demand == 0
    excess[root] -= pushed_up[root]
    return balanced


def _solve_flow(excess: List[int], pot: List[int], head: List[int],
                cost: List[int], cap: List[int],
                adj: List[List[int]]) -> None:
    """Drain all remaining excess with primal-dual phases: one multi-source
    bucket-queue Dijkstra prices the nodes up to the last deficit, then a
    blocking-flow pass pushes along *all* the zero-reduced-cost paths it
    uncovered, so many source/deficit pairs settle per shortest-path
    computation instead of one.

    Pricing stops once every deficit is finalized, at distance ``D``.
    Finalized nodes take ``dist - D`` onto their potentials, the others
    keep theirs, which is Johnson's update shifted by the constant ``-D``:
    an arc from a finalized ``u`` to an unfinalized ``v`` has
    ``dist(u) + c̄ >= D``, so every reduced cost stays >= 0, and the
    shortest-path tree into each deficit becomes admissible.
    """
    total = len(adj)
    while True:
        sources = [v for v in range(total) if excess[v] > 0]
        if not sources:
            return
        dist, priced = _distances(sources, pot, head, cost, cap, adj, excess)
        reach = dist[priced[-1]]
        for u in priced:
            pot[u] += dist[u] - reach
        if not _blocking_flow(sources, excess, pot, head, cost, cap, adj):
            # pragma: no cover - the shortest-path tree into a deficit is
            # admissible, so the first search of a phase finds a path
            raise ScheduleError(
                "fast-path scheduler: a phase pushed no flow (internal "
                "error)")


def _distances(sources: List[int], pot: List[int], head: List[int],
               cost: List[int], cap: List[int], adj: List[List[int]],
               excess: Optional[List[int]] = None
               ) -> Tuple[List[int], List[int]]:
    """Dijkstra over reduced costs from ``sources`` (at distance 0).

    Reduced costs are small non-negative integers, so a bucket queue
    indexed by distance replaces the heap.  With ``excess``, the search
    stops as soon as every node with a deficit is finalized, the last one
    as soon as it is reached at the distance being scanned; without it,
    it runs until every reachable node is.  Returns the tentative
    distances (-1 for unseen nodes) and the finalized nodes in order of
    distance."""
    total = len(adj)
    dist = [-1] * total
    done = [False] * total
    priced: List[int] = []
    left = -1
    if excess is not None:
        left = sum(1 for e in excess if e < 0)
    for s in sources:
        dist[s] = 0
    buckets: Dict[int, List[int]] = {0: list(sources)}
    d = 0
    while buckets:
        bucket = buckets.get(d)
        if bucket is None:
            d = min(buckets)
            continue
        # Zero reduced-cost arcs append to the bucket being scanned, and
        # the loop reaches what they append.
        for u in bucket:
            if done[u] or dist[u] != d:
                continue
            done[u] = True
            priced.append(u)
            if left > 0 and excess[u] < 0:     # type: ignore[index]
                left -= 1
                if left == 0:
                    return dist, priced
            base = d + pot[u]
            for a in adj[u]:
                if cap[a] > 0:
                    v = head[a]
                    nd = base + cost[a] - pot[v]
                    if not done[v] and (dist[v] < 0 or nd < dist[v]):
                        dist[v] = nd
                        if nd != d:
                            buckets.setdefault(nd, []).append(v)
                        elif left == 1 and excess[v] < 0:  # type: ignore[index]
                            # The last deficit, reached at the level being
                            # scanned: no node is closer, so it is final.
                            priced.append(v)
                            return dist, priced
                        else:
                            bucket.append(v)
        del buckets[d]
    if left > 0:
        # pragma: no cover - guarded by ASAP feasibility
        raise ScheduleError(
            "fast-path scheduler: no augmenting path (internal "
            "error, the problem should be bounded)"
        )
    return dist, priced


def _blocking_flow(sources: List[int], excess: List[int], pot: List[int],
                   head: List[int], cost: List[int], cap: List[int],
                   adj: List[List[int]]) -> int:
    """Push as much excess as an iterative DFS finds through the admissible
    (zero reduced-cost, positive-capacity) arcs; current-arc pointers make
    the pass near-linear.  After a push the search retreats only past the
    first arc the push saturated, or stays at a deficit it filled,
    instead of starting over at the source.  Arcs leading back onto the
    active path (zero reduced-cost 2-cycles between an arc and its pushed
    reverse) are skipped, which may leave flow for the next phase — never
    wrong, at worst one extra pricing."""
    total_pushed = 0
    ptr = [0] * len(adj)
    onpath = [False] * len(adj)
    for s in sources:
        path: List[int] = []
        onpath[s] = True
        u = s
        while excess[s] > 0:
            if excess[u] < 0:
                amount = min(excess[s], -excess[u])
                for a in path:
                    if cap[a] < amount:
                        amount = cap[a]
                cut = -1
                for k, a in enumerate(path):
                    cap[a] -= amount
                    cap[a ^ 1] += amount
                    if cut < 0 and cap[a] == 0:
                        cut = k
                excess[s] -= amount
                excess[u] += amount
                total_pushed += amount
                if cut >= 0:
                    # Retreat to the tail of the first saturated arc.
                    for a in path[cut:]:
                        onpath[head[a]] = False
                    u = head[path[cut] ^ 1]
                    del path[cut:]
                continue
            edges = adj[u]
            k, end, level = ptr[u], len(edges), pot[u]
            while k < end:
                a = edges[k]
                v = head[a]
                if cap[a] > 0 and not onpath[v] and cost[a] + level == pot[v]:
                    break
                k += 1
            ptr[u] = k
            if k == end:
                if u == s:
                    break
                a = path.pop()
                onpath[u] = False
                u = head[a ^ 1]
                ptr[u] += 1
                continue
            path.append(a)
            onpath[v] = True
            u = v
        for a in path:
            onpath[head[a]] = False
        onpath[s] = False
    return total_pushed


def _earliest_optimal(pot: List[int], head: List[int], cost: List[int],
                      cap: List[int], adj: List[List[int]]) -> List[int]:
    """Canonicalize the optimum.  By complementary slackness the optimal
    face is exactly the feasible points that keep every flow-carrying arc
    tight, so its earliest point is the longest root path in the graph of
    the constraint arcs plus the equality reversals of flow-carrying arcs
    — the residual arcs with capacity.  The potentials give an optimal
    schedule ``t = pot[root] - pot``; along any root path, the arc
    lengths add up to ``t_v`` minus the slacks ``t_head - t_tail - gap``,
    which are the residual reduced costs and so are >= 0.  The longest
    path to ``v`` is therefore ``t_v`` minus the shortest slack path,
    one bucket-queue pass from the root."""
    root = len(adj) - 1
    slack, _ = _distances([root], pot, head, cost, cap, adj)
    top = pot[root]
    return [top - pot[v] - slack[v] for v in range(root)]
