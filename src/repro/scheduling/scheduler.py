"""The Longnail scheduler: lil graph + virtual datasheet -> solved
LongnailProblem (paper Sections 4.2-4.4).

Building the problem:

* every lil interface operation is linked to an operator type whose
  ``earliest``/``latest``/``latency`` come from the core's virtual
  datasheet.  For the WrRD, RdMem and WrMem operator types ``latest`` is
  lifted to infinity, which is what later unlocks the tightly-coupled or
  decoupled variants (Section 4.2),
* non-interface (comb) operations get default windows [0, inf) and
  zero latency with propagation delays from a delay model (by default the
  paper's "uniform delays" assumption),
* chain-breaker edges computed against the core's cycle time split overly
  long combinational chains (Section 4.2),
* for always-blocks, all interface constraints are pinned to stage 0, so
  solving merely checks the behavior executes in a single clock cycle
  (Section 4.4).
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable, Dict, Hashable, List, Optional, Tuple, Union

from repro.dialects import comb, lil
from repro.ir.core import Graph, Operation
from repro.scaiev.datasheet import INFINITY, VirtualDatasheet
from repro.scheduling import ilp
from repro.scheduling.cache import (
    ScheduleCache,
    global_schedule_cache,
    schedule_fingerprint,
)
from repro.scheduling.certificate import ROOT, Flow, check_certificate
from repro.scheduling.chaining import (
    compute_chain_breakers,
    compute_start_times_in_cycle,
)
from repro.scheduling.fastpath import solve_fastpath
from repro.scheduling.problem import (
    Dependence,
    LongnailProblem,
    OperatorType,
    ScheduleError,
)

DelayModel = Callable[[Operation], float]

#: Sub-interfaces whose 'latest' is lifted to infinity so the scheduler may
#: push them past their native window (Section 4.2).
LIFTED_INTERFACES = ("WrRD", "RdMem", "WrMem")

#: Clock-to-Q plus setup margin reserved out of every cycle (ns); matches
#: the sequential overhead the evaluation's timing analysis charges.
CLOCK_MARGIN_NS = 0.08


def uniform_delay_model(delay_ns: float = 1.25) -> DelayModel:
    """The paper's current simplification: uniform delays for logic and
    non-combinational sub-interface operations (Section 4.2)."""

    def model(op: Operation) -> float:
        if op.name in comb.WIRING_OPS or op.name == "lil.sink":
            return 0.0
        return delay_ns

    return model


def default_delay_model() -> DelayModel:
    """Real technology delays (the library Section 4.2 says Longnail is
    intended to consume); the default for the scheduler and the driver."""
    from repro.eval.tech import TechLibrary  # deferred: avoids an import cycle

    return TechLibrary().delay_model()


@dataclasses.dataclass
class SolveStats:
    """Per-graph solver instrumentation (surfaced in the batch metrics)."""

    engine: str                 # engine that actually ran
    operations: int
    dependences: int
    components: int             # weakly connected components solved
    cache_hits: int = 0         # components served from the schedule cache
    cache_misses: int = 0
    solve_seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "operations": self.operations,
            "dependences": self.dependences,
            "components": self.components,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "solve_seconds": round(self.solve_seconds, 6),
        }


@dataclasses.dataclass
class ScheduleResult:
    """A solved schedule for one lil graph."""

    graph: Graph
    problem: LongnailProblem
    engine: str
    cycle_time_ns: float
    chain_breakers: int
    stats: Optional[SolveStats] = None

    @property
    def start_times(self) -> Dict[Operation, int]:
        return self.problem.start_time

    def stage_of(self, op: Operation) -> int:
        return self.problem.start_time[op]

    @property
    def makespan(self) -> int:
        return self.problem.makespan()

    @property
    def objective(self) -> int:
        return ilp.objective_value(self.problem)

    def interface_schedule(self) -> List[tuple]:
        """(interface name, operation, stage) for every interface op."""
        entries = []
        for op in self.graph.operations:
            name = lil.interface_name(op)
            if name is not None:
                entries.append((name, op, self.problem.start_time[op]))
        return entries


def _interface_operator_type(op: Operation, datasheet: VirtualDatasheet,
                             delay: float, always: bool) -> OperatorType:
    interface = lil.interface_name(op)
    assert interface is not None
    if op.name in ("lil.read_custreg", "lil.write_custreg"):
        timing = datasheet.custom_register_timing(
            write=op.name == "lil.write_custreg"
        )
    else:
        timing = datasheet.timing(interface)
    earliest, latest, latency = timing.earliest, timing.latest, timing.latency
    base = lil.INTERFACE_OF.get(op.name)
    if base in LIFTED_INTERFACES or op.name == "lil.write_custreg":
        latest = INFINITY
    if op.attr("spawn"):
        # Decoupled operations commit whenever they are ready.
        latest = INFINITY
    if always:
        # Always-blocks execute continuously in a single cycle (Section 4.4).
        earliest, latest, latency = 0, 0, 0
    # Multi-cycle sub-interfaces (RdMem on a pipelined core, custom-register
    # files, ...) latch their request at the pipeline-stage boundary, so
    # they add no combinational depth to the chain computing their
    # operands; the interface's propagation delay is charged where it is
    # physically paid, on the result side.  Combinational sub-interfaces
    # keep the symmetric delay the chaining model requires.
    return OperatorType(
        name=f"iface_{interface}_{op.name}",
        latency=latency,
        incoming_delay=0.0 if latency > 0 else delay,
        outgoing_delay=delay,
        earliest=earliest,
        latest=latest,
    )


@functools.lru_cache(maxsize=4096)
def _logic_operator_type(name: str, width: int, delay: float,
                         always: bool) -> OperatorType:
    """The operator type of a non-interface operation, one shared object
    per (op name, result width, delay, block kind)."""
    earliest, latest = (0, 0) if always else (0, INFINITY)
    return OperatorType(
        name=f"{name}_{width}_d{delay:g}",
        latency=0,
        incoming_delay=delay,
        outgoing_delay=delay,
        earliest=earliest,
        latest=latest,
    )


def build_problem(graph: Graph, datasheet: VirtualDatasheet,
                  delay_model: Optional[DelayModel] = None,
                  cycle_time_ns: Optional[float] = None) -> LongnailProblem:
    """Construct the LongnailProblem for a lil graph (Table 2 modeling)."""
    delay_model = delay_model or default_delay_model()
    cycle_time = cycle_time_ns or datasheet.cycle_time_ns
    # Reserve the sequential overhead so scheduled stages meet timing.
    cycle_time = max(0.1, cycle_time - CLOCK_MARGIN_NS)
    always = graph.attributes.get("kind") == lil.KIND_ALWAYS
    problem = LongnailProblem()

    for op in graph.operations:
        if op.name == "lil.sink":
            continue
        delay = min(delay_model(op), cycle_time)
        if lil.is_interface_op(op):
            lot = _interface_operator_type(op, datasheet, delay, always)
        else:
            lot = _logic_operator_type(
                op.name, op.results[0].width if op.results else 0, delay,
                always)
        problem.add_operator_type(lot)
        problem.add_operation(op, lot.name)

    registered = problem.position
    for op in problem.operations:
        for operand in op.operands:
            producer = operand.owner
            if producer is not None and producer in registered:
                problem.add_dependence(producer, op)

    # Serialize loads before subsequent stores to the same address space:
    # each read is ordered before the first write that follows it, and the
    # writes are chained, which preserves the read-before-every-later-write
    # transitive ordering with O(reads + writes) edges instead of the
    # all-pairs O(reads x writes) blowup on memory-heavy ISAXes.
    pending_reads: List[Operation] = []
    previous_write: Optional[Operation] = None
    for op in graph.operations:
        if op.name == "lil.read_mem":
            pending_reads.append(op)
        elif op.name == "lil.write_mem":
            for read in pending_reads:
                problem.add_dependence(read, op)
            pending_reads.clear()
            if previous_write is not None:
                problem.add_dependence(previous_write, op)
            previous_write = op

    problem.check()

    breakers = compute_chain_breakers(problem, cycle_time)
    if always:
        # Always-blocks must execute within a single clock cycle; a chain
        # breaker means the combinational path exceeds the cycle time
        # (Section 4.4: solving "merely checks that the behavior can be
        # executed in a single clock cycle").
        if breakers:
            raise ScheduleError(
                f"always-block '{graph.name}': combinational path exceeds "
                f"the cycle time of {cycle_time:g} ns"
            )
    else:
        for src, dst in breakers:
            problem.add_dependence(src, dst, is_chain_breaker=True)
    return problem


def decompose(problem: LongnailProblem) -> List[LongnailProblem]:
    """Split a problem into its weakly connected components.

    The Figure 7 objective is a sum over operations and dependences, so
    components can be solved independently and merged; a wide CDFG (many
    parallel def-use trees) then pays per-component solver cost instead of
    the whole graph's.  Returns sub-problems preserving operation order;
    a single-component problem is returned as-is (no copy).
    """
    ops = problem.operations
    if not ops:
        return []
    position = problem.position
    parent = list(range(len(ops)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for source, target, _ in problem.dependences:
        a, b = find(position[source]), find(position[target])
        if a != b:
            parent[a] = b

    label = [find(i) for i in range(len(ops))]
    if label.count(label[0]) == len(label):
        return [problem]
    members: Dict[int, List[int]] = {}
    for i, root in enumerate(label):
        members.setdefault(root, []).append(i)
    deps_of: Dict[int, List[Dependence]] = {root: [] for root in members}
    for dep in problem.dependences:
        deps_of[label[position[dep.source]]].append(dep)
    return [problem.subproblem(members[root], deps_of[root])
            for root in sorted(members)]


def _resolve_cache(cache: Union[ScheduleCache, None, bool]
                   ) -> Optional[ScheduleCache]:
    if cache is False:
        return None
    if cache is None:
        return global_schedule_cache()
    return cache


def solve_problem(problem: LongnailProblem, engine: str = "auto",
                  cache: Union[ScheduleCache, None, bool] = None
                  ) -> SolveStats:
    """Solve a LongnailProblem in place; the scheduler's one engine
    dispatcher.

    ``engine="auto"`` (``"fastpath"``) runs the LP-free exact fast path
    per weakly connected component through the cross-sweep schedule
    cache, merges the components' flows into ``problem.flow`` and checks
    that certificate against the whole problem
    (:func:`repro.scheduling.certificate.check_certificate`): a cache hit
    whose certificate fails counts as a miss and is solved again, and a
    schedule that fails raises :class:`ScheduleError`.  ``"milp"`` runs
    the Figure 7 formulation per component with HiGHS and never touches
    the cache, so it stays an independent oracle; ``"asap"`` keeps the
    heuristic baseline (neither decomposed nor cached — it is already
    linear-time).  Neither gives a certificate: ``problem.flow`` is
    None.  ``cache`` may be a :class:`ScheduleCache`, ``None`` (the
    process-wide default) or ``False`` (disabled).
    """
    begin = time.perf_counter()
    resolved = "fastpath" if engine == "auto" else engine
    if resolved not in ("fastpath", "milp", "asap"):
        raise ScheduleError(f"unknown scheduler engine {engine!r}")

    components = decompose(problem)
    stats = SolveStats(
        engine=resolved,
        operations=len(problem.operations),
        dependences=len(problem.dependences),
        components=len(components),
    )
    problem.flow = None
    if resolved == "asap":
        problem.start_time = ilp.solve_asap(problem)
        stats.solve_seconds = time.perf_counter() - begin
        return stats

    merged: Dict[Hashable, int] = {}
    if resolved == "milp":
        for sub in components:
            merged.update(ilp.solve_milp(sub))
        problem.start_time = merged
        stats.solve_seconds = time.perf_counter() - begin
        return stats

    live_cache = _resolve_cache(cache)
    position = problem.position
    flow: List[Tuple[int, int, int]] = []
    certified = False
    for sub in components:
        entry = None
        if live_cache is not None:
            key = schedule_fingerprint(sub)
            entry = live_cache.get(
                key, lambda hit: check_certificate(
                    sub, dict(zip(sub.operations, hit.start_times)),
                    hit.flow) is None)
        if entry is not None:
            stats.cache_hits += 1
            start_time = dict(zip(sub.operations, entry.start_times))
            sub_flow = entry.flow
            # A hit is checked against its component on the way out of
            # the cache; a one-component problem needs no second check.
            certified = sub is problem
        else:
            start_time, sub_flow = solve_fastpath(sub)
            if live_cache is not None:
                stats.cache_misses += 1
                live_cache.put(key, [start_time[op] for op in sub.operations],
                               sub_flow)
        merged.update(start_time)
        flow.extend(sub_flow if sub is problem
                    else _reindex(sub_flow, sub.operations, position))
    failure = None if certified else check_certificate(problem, merged, flow)
    if failure is not None:
        raise ScheduleError(
            f"fast-path schedule failed its certificate: {failure}")
    problem.start_time = merged
    problem.flow = tuple(flow)
    stats.solve_seconds = time.perf_counter() - begin
    return stats


def _reindex(flow: Flow, ops: List[Hashable],
             position: Dict[Hashable, int]) -> List[Tuple[int, int, int]]:
    """A component's flow, its arcs renumbered from the component's
    operation order to the whole problem's."""
    return [(u if u == ROOT else position[ops[u]],
             v if v == ROOT else position[ops[v]], units)
            for u, v, units in flow]


class LongnailScheduler:
    """Schedules lil graphs against a core's virtual datasheet."""

    def __init__(self, datasheet: VirtualDatasheet,
                 delay_model: Optional[DelayModel] = None,
                 cycle_time_ns: Optional[float] = None,
                 engine: str = "auto",
                 schedule_cache: Union[ScheduleCache, None, bool] = None):
        self.datasheet = datasheet
        self.delay_model = delay_model or default_delay_model()
        self.cycle_time_ns = cycle_time_ns or datasheet.cycle_time_ns
        self.engine = engine
        self.schedule_cache = schedule_cache

    def schedule(self, graph: Graph) -> ScheduleResult:
        problem = build_problem(
            graph, self.datasheet, self.delay_model, self.cycle_time_ns
        )
        try:
            stats = solve_problem(problem, self.engine,
                                  cache=self.schedule_cache)
        except ScheduleError as err:
            if graph.attributes.get("kind") == lil.KIND_ALWAYS:
                raise ScheduleError(
                    f"always-block '{graph.name}' cannot execute in a single "
                    f"clock cycle of {self.cycle_time_ns:.2f} ns: {err}"
                ) from err
            raise
        compute_start_times_in_cycle(problem)
        if problem.flow is None:
            problem.verify()
        # A certified schedule needs no re-check: solve_problem has just
        # certified C1, C3 and C5 on its start times, and each in-cycle
        # time is the largest of the bounds ``verify_chaining`` checks
        # (property-tested in tests/scheduling/test_chaining_properties.py).
        breakers = sum(1 for d in problem.dependences if d.is_chain_breaker)
        return ScheduleResult(
            graph=graph,
            problem=problem,
            engine=stats.engine,
            cycle_time_ns=self.cycle_time_ns,
            chain_breakers=breakers,
            stats=stats,
        )
