"""Automated design-space exploration (paper Section 7, outlook).

"Since area minimization and performance metrics, such as instruction
latency, are often conflicting optimization goals, automated design space
exploration will be implemented to provide multiple trade-off points."

This module implements that exploration over two axes Longnail controls:

* the **target cycle time** handed to the scheduler (slower clocks pack more
  logic per stage: fewer pipeline registers, longer per-instruction latency
  in ns),
* the **initiation interval** of resource sharing (from the Section 7
  sharing analysis: fewer operator instances, the ISAX accepts a new
  operand set only every II cycles).

Every candidate is compiled through the real flow and measured with the
technology library; :func:`pareto_frontier` filters the non-dominated
(area, latency) points a user would choose from.

The sweep is one task per cycle-time candidate, run on the executor the
caller passes: a :class:`repro.service.executor.BatchExecutor` fans the
candidates out over worker processes and serves repeat sweeps from the
content-addressed artifact cache, and a
:class:`repro.server.client.RemoteExecutor` (``python -m repro.eval.dse
--server URL``) submits each candidate to a long-lived compile server,
sharing its warm caches and coalescing with identical concurrent sweeps.
The default executor is in-process and uncached.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

from repro.eval.area import module_area
from repro.eval.tech import TechLibrary
from repro.hls.longnail import compile_isax
from repro.hls.sharing import analyze_functionality
from repro.scaiev.cores import core_datasheet
from repro.scaiev.datasheet import VirtualDatasheet
from repro.service.executor import BatchExecutor, TaskSpec
from repro.service.jobs import digest

if TYPE_CHECKING:
    from repro.server.client import RemoteExecutor

#: Runner reference for one DSE cycle-time candidate.
DSE_RUNNER = "repro.eval.dse:_evaluate_candidate"

#: Part of every DSE cache key; bump when DesignPoint or the evaluation
#: changes shape.
_DSE_CACHE_VERSION = "dse-2"


@dataclasses.dataclass
class DesignPoint:
    """One evaluated implementation of one ISAX instruction."""

    instruction: str
    cycle_time_ns: float
    initiation_interval: int
    pipeline_stages: int
    area_um2: float
    latency_ns: float

    @property
    def throughput_per_us(self) -> float:
        """Accepted operand sets per microsecond."""
        return 1000.0 / (self.cycle_time_ns * self.initiation_interval)

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (area, latency): no worse in both, better in
        at least one."""
        no_worse = (self.area_um2 <= other.area_um2
                    and self.latency_ns <= other.latency_ns)
        better = (self.area_um2 < other.area_um2
                  or self.latency_ns < other.latency_ns)
        return no_worse and better


def _measure_candidate(
        source: str, datasheet: VirtualDatasheet, cycle: float,
        initiation_intervals: Sequence[int], instruction: Optional[str],
        tech: TechLibrary, engine: str = "auto") -> List[DesignPoint]:
    """Compile + measure one cycle-time candidate (all IIs)."""
    artifact = compile_isax(source, datasheet, cycle_time_ns=cycle,
                            engine=engine, delay_model=tech.delay_model())
    names = [n for n, f in artifact.functionalities.items()
             if f.kind == "instruction"]
    name = instruction or names[0]
    functionality = artifact.artifact(name)
    spatial_area = module_area(functionality.module, tech)
    report = analyze_functionality(
        functionality, tech, max_ii=max(initiation_intervals)
    )
    stages = functionality.schedule.makespan
    points: List[DesignPoint] = []
    for ii in initiation_intervals:
        shared_point = report.point(ii)
        datapath_delta = (report.spatial_point.total_area_um2
                          - shared_point.total_area_um2)
        area = max(0.0, spatial_area - datapath_delta)
        points.append(DesignPoint(
            instruction=name,
            cycle_time_ns=cycle,
            initiation_interval=ii,
            pipeline_stages=stages,
            area_um2=area,
            latency_ns=stages * cycle,
        ))
    return points


def _evaluate_candidate(payload: dict) -> dict:
    """Executor runner: one cycle-time candidate, JSON-able in and out so
    the result can fan out to worker processes and live in the artifact
    cache."""
    points = _measure_candidate(
        payload["source"],
        VirtualDatasheet.from_yaml(payload["datasheet"]),
        payload["cycle_time_ns"],
        [int(ii) for ii in payload["initiation_intervals"]],
        payload.get("instruction"),
        TechLibrary(),
        engine=payload.get("engine", "auto"),
    )
    return {"points": [dataclasses.asdict(point) for point in points]}


def explore(source: str,
            core: Union[str, VirtualDatasheet] = "VexRiscv",
            cycle_scales: Sequence[float] = (1.0, 1.5, 2.0, 3.0, 4.0),
            initiation_intervals: Sequence[int] = (1, 2, 4),
            instruction: Optional[str] = None,
            tech: Optional[TechLibrary] = None,
            executor: Union[BatchExecutor, RemoteExecutor, None] = None,
            engine: str = "auto") -> List[DesignPoint]:
    """Sweep the design space of one ISAX instruction on one core.

    ``cycle_scales`` multiply the core's native cycle time (a scale > 1
    means the ISAX internally runs at a divided clock / relaxed constraint,
    trading latency for area).

    Pass an ``executor`` (with workers and/or an artifact cache, or a
    :class:`~repro.server.client.RemoteExecutor`) to fan the candidates out
    in parallel and reuse results across sweeps.  A custom ``tech`` library
    cannot be shipped to workers, so it forces in-process evaluation.
    ``engine`` selects the scheduler engine per candidate; the in-process
    default additionally shares the cross-sweep schedule cache, so
    candidates whose chain-breaker sets coincide are never re-solved.
    """
    datasheet = core_datasheet(core) if isinstance(core, str) else core
    datasheet_yaml = datasheet.to_yaml()
    if tech is not None:
        # A custom library stays in-process: evaluate directly.
        points: List[DesignPoint] = []
        for scale in cycle_scales:
            points.extend(_measure_candidate(
                source, datasheet, datasheet.cycle_time_ns * scale,
                initiation_intervals, instruction, tech, engine=engine,
            ))
        return points

    specs = []
    for scale in cycle_scales:
        cycle = datasheet.cycle_time_ns * scale
        payload = {
            "source": source,
            "datasheet": datasheet_yaml,
            "cycle_time_ns": cycle,
            "initiation_intervals": [int(ii) for ii in initiation_intervals],
            "instruction": instruction,
            "engine": engine,
        }
        specs.append(TaskSpec(
            runner=DSE_RUNNER,
            payload=payload,
            key=digest(_DSE_CACHE_VERSION, source, datasheet_yaml,
                       repr(cycle), repr(tuple(initiation_intervals)),
                       repr(instruction), engine),
            label=f"dse@{cycle:g}ns",
        ))

    outcomes = (executor or BatchExecutor(workers=1)).run_specs(specs)
    points = []
    for outcome in outcomes:
        if not outcome.ok:
            raise RuntimeError(
                f"DSE candidate {outcome.spec.label} failed: {outcome.error}"
            )
        points.extend(DesignPoint(**entry)
                      for entry in outcome.result["points"])
    return points


def explore_discovered(kernel: str,
                       params: Optional[dict] = None,
                       core: str = "VexRiscv",
                       budget: int = 8,
                       trials: int = 3,
                       executor: Union[BatchExecutor, RemoteExecutor,
                                       None] = None,
                       **explore_kwargs):
    """Mine an ISAX from a registered kernel, then sweep its design space.

    Chains the two automation stages the paper's outlook describes:
    :func:`repro.discover.search.discover` finds and prices candidate
    instructions for *kernel* (see ``repro-longnail discover``), and the
    winning CoreDSL goes straight into :func:`explore` for the cycle-time
    x II sweep.  Returns ``(discovery_report, design_points)``; both
    stages run on ``executor``.
    """
    from repro.discover.search import DiscoveryConfig, discover

    config = DiscoveryConfig(
        kernel=kernel, params={k: int(v) for k, v in (params or {}).items()},
        core=core, budget=budget, trials=trials)
    report = discover(config, executor=executor)
    if report.winner is None or not report.winner.get("source"):
        raise ValueError(
            f"discovery found no verified candidate for kernel {kernel!r}")
    # Sweep the datapath instruction, not a setup shim: the `_step` op
    # carries the mined subgraph and hence all the area/latency trade-off.
    step = next((name for name in report.winner.get("instructions", [])
                 if name.endswith("_step")), None)
    points = explore(report.winner["source"], core=core, instruction=step,
                     executor=executor, **explore_kwargs)
    return report, points


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset, sorted by area."""
    frontier = [
        p for p in points
        if not any(q.dominates(p) for q in points if q is not p)
    ]
    return sorted(frontier, key=lambda p: (p.area_um2, p.latency_ns))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.eval.dse``: sweep one ISAX, locally or — with
    ``--server URL`` — as a client of a running compile server."""
    import argparse

    from repro.isaxes import ALL_ISAXES

    parser = argparse.ArgumentParser(
        prog="repro.eval.dse",
        description="design-space exploration over cycle time x II",
    )
    parser.add_argument("--isax", default="dotprod",
                        choices=sorted(ALL_ISAXES),
                        help="benchmark ISAX to sweep (default dotprod)")
    parser.add_argument("--core", default="VexRiscv")
    parser.add_argument("--cycle-scale", action="append", type=float,
                        default=[], metavar="S",
                        help="cycle-time scale (repeatable; default "
                             "1.0 1.5 2.0 3.0 4.0)")
    parser.add_argument("--ii", action="append", type=int, default=[],
                        help="initiation interval (repeatable; "
                             "default 1 2 4)")
    parser.add_argument("--engine", default="auto",
                        choices=("auto", "fastpath", "milp", "asap"))
    parser.add_argument("--server", default=None, metavar="URL",
                        help="run the sweep through a compile server "
                             "(e.g. http://127.0.0.1:8080)")
    parser.add_argument("--priority", default="batch",
                        choices=("interactive", "batch", "background"),
                        help="server queue priority (with --server)")
    parser.add_argument("--workers", type=int, default=1,
                        help="local executor workers (without --server)")
    parser.add_argument("--discover-kernel", default=None, metavar="KERNEL",
                        help="instead of a built-in ISAX, sweep the winner "
                             "mined from this kernel by `repro-longnail "
                             "discover` (overrides --isax)")
    parser.add_argument("--discover-param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="kernel parameter for --discover-kernel "
                             "(repeatable)")
    parser.add_argument("--discover-budget", type=int, default=8,
                        help="max priced variants for --discover-kernel")
    args = parser.parse_args(argv)

    if args.server is not None:
        from repro.server.client import RemoteExecutor

        executor: Union[BatchExecutor, RemoteExecutor] = RemoteExecutor(
            args.server, priority=args.priority)
    else:
        executor = BatchExecutor(workers=args.workers)
    sweep_kwargs = dict(
        core=args.core,
        cycle_scales=args.cycle_scale or (1.0, 1.5, 2.0, 3.0, 4.0),
        initiation_intervals=args.ii or (1, 2, 4),
        engine=args.engine,
        executor=executor,
    )
    if args.discover_kernel is not None:
        params = {}
        for item in args.discover_param:
            name, _, value = item.partition("=")
            params[name.strip()] = int(value, 0)
        report, points = explore_discovered(
            args.discover_kernel, params=params,
            budget=args.discover_budget, **sweep_kwargs)
        subject = (f"discovered {report.winner['label']} "
                   f"(speedup {report.winner['speedup']:.2f}x)")
    else:
        points = explore(ALL_ISAXES[args.isax], **sweep_kwargs)
        subject = args.isax
    via = f"server {args.server}" if args.server else "local executor"
    print(f"# {subject} on {args.core} via {via}: "
          f"{len(points)} design points")
    print(render_design_space(points))
    return 0


def render_design_space(points: Sequence[DesignPoint],
                        frontier: Optional[Sequence[DesignPoint]] = None) -> str:
    frontier = frontier if frontier is not None else pareto_frontier(points)
    chosen = {id(p) for p in frontier}
    lines = [f"{'cycle ns':>9} {'II':>3} {'stages':>7} {'area um2':>9} "
             f"{'latency ns':>11} {'pareto':>7}"]
    for point in sorted(points, key=lambda p: (p.cycle_time_ns,
                                               p.initiation_interval)):
        lines.append(
            f"{point.cycle_time_ns:>9.2f} {point.initiation_interval:>3} "
            f"{point.pipeline_stages:>7} {point.area_um2:>9.0f} "
            f"{point.latency_ns:>11.1f} "
            f"{'*' if id(point) in chosen else '':>7}"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
