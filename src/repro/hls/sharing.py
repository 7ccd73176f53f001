"""Resource-sharing analysis (paper Section 7, outlook).

The paper's Longnail "constructs fully spatial data paths" but is designed
to grow resource sharing "both within instructions itself and across
instruction boundaries", with "automated design space exploration ... to
provide multiple trade-off points" between area and performance.  This
module implements that analysis on scheduled modules:

* **within an instruction** — operator instances of the same kind and shape
  that execute in *different* time steps can time-multiplex one physical
  unit.  The floor is the maximum number of simultaneously active instances
  in any step; sharing below an initiation interval (II) of 1 additionally
  trades throughput (the unit is busy for several cycles per instruction).
* **across instructions** — instructions of one ISAX are issued one at a
  time in the MCU-class hosts, so same-shaped units in *different*
  instruction modules can also be pooled (the paper's packed-SIMD example).

The result is an area/II trade-off curve; the spatial point (II = 1, no
sharing) is what the generator currently emits, the other points are the
design-space the paper's outlook describes.  Sharing adds input-mux and
control overhead, which the estimate charges using the technology library.
"""

from __future__ import annotations

import dataclasses
import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.dialects.hw import HWModule
from repro.eval.tech import TechLibrary
from repro.hls.longnail import FunctionalityArtifact, IsaxArtifact
from repro.ir.core import Operation
from repro.opt.share import shape_of

#: Operation kinds worth sharing: real arithmetic operators.  Wiring, muxes
#: and bitwise gates are cheaper than the sharing muxes they would need.
SHAREABLE_OPS = (
    "comb.add", "comb.sub", "comb.mul",
    "comb.divu", "comb.divs", "comb.modu", "comb.mods",
    "comb.icmp",
)


@dataclasses.dataclass
class OperatorGroup:
    """All instances of one operator shape inside one scheduled module."""

    kind: str
    shape: Tuple
    instances: int
    per_step: Dict[int, int]
    unit_area: float
    input_bits: int

    @property
    def max_concurrent(self) -> int:
        return max(self.per_step.values(), default=0)

    def units_needed(self, initiation_interval: int) -> int:
        """Physical units needed when each step's work may be spread over
        ``initiation_interval`` cycles."""
        per_window = self.max_concurrent
        if initiation_interval > 1:
            per_window = math.ceil(self.max_concurrent / initiation_interval)
        return max(1, per_window) if self.instances else 0

    def shared_area(self, initiation_interval: int,
                    tech: TechLibrary) -> float:
        """Unit area plus the input muxes steering operands to the shared
        units."""
        units = self.units_needed(initiation_interval)
        if units == 0:
            return 0.0
        area = units * self.unit_area
        ways = math.ceil(self.instances / units)
        if ways > 1:
            mux_per_bit = tech.glue_area_per_bit["mux"]
            area += (ways - 1) * self.input_bits * mux_per_bit
        return area

    @property
    def spatial_area(self) -> float:
        return self.instances * self.unit_area


@dataclasses.dataclass
class SharingPoint:
    """One point of the area/performance trade-off curve."""

    initiation_interval: int
    area_um2: float
    units: Dict[str, int]
    controller_area_um2: float

    @property
    def total_area_um2(self) -> float:
        return self.area_um2 + self.controller_area_um2


@dataclasses.dataclass
class SharingReport:
    """Sharing analysis of one module (or a pooled set of modules)."""

    name: str
    groups: List[OperatorGroup]
    points: List[SharingPoint]
    other_area_um2: float

    @property
    def spatial_point(self) -> SharingPoint:
        return self.points[0]

    def point(self, initiation_interval: int) -> SharingPoint:
        for candidate in self.points:
            if candidate.initiation_interval == initiation_interval:
                return candidate
        raise KeyError(f"no II={initiation_interval} point computed")

    def saving_pct(self, initiation_interval: int) -> float:
        """Datapath area saved vs the fully spatial design."""
        spatial = self.spatial_point.total_area_um2 + self.other_area_um2
        shared = (self.point(initiation_interval).total_area_um2
                  + self.other_area_um2)
        if spatial <= 0:
            return 0.0
        return 100.0 * (1.0 - shared / spatial)

    def best_point(self) -> SharingPoint:
        return min(self.points, key=lambda p: p.total_area_um2)


def _collect_groups(views: List[Tuple[object, Dict[Operation, int]]],
                    tech: TechLibrary) -> Tuple[List[OperatorGroup], float]:
    """Group the scheduled shareable operators of the given
    (graph, op -> time step) views by shape."""
    grouped: Dict[Tuple, Dict] = {}
    for _graph, steps in views:
        for op, step in steps.items():
            key = shape_of(op)
            entry = grouped.setdefault(
                key, {"instances": 0, "per_step": defaultdict(int),
                      "area": tech.area_um2(op),
                      "input_bits": sum(o.width for o in op.operands)},
            )
            entry["instances"] += 1
            entry["per_step"][step] += 1
    groups = [
        OperatorGroup(
            kind=key[0], shape=key, instances=entry["instances"],
            per_step=dict(entry["per_step"]), unit_area=entry["area"],
            input_bits=entry["input_bits"],
        )
        for key, entry in grouped.items()
    ]
    groups.sort(key=lambda g: -g.spatial_area)
    return groups, 0.0


def _controller_area(groups: List[OperatorGroup], initiation_interval: int,
                     tech: TechLibrary) -> float:
    """ISAX-local controller for multiplexing shared datapaths (Section 7:
    'Longnail will then also infer ISAX-local controller circuits')."""
    if initiation_interval <= 1:
        return 0.0
    shared_groups = sum(
        1 for g in groups if g.units_needed(initiation_interval) < g.instances
    )
    if not shared_groups:
        return 0.0
    counter_bits = max(1, math.ceil(math.log2(initiation_interval + 1)))
    storage = tech.glue_area_per_bit["storage"]
    return counter_bits * storage + shared_groups * 4 * tech.gate_area * 8


def _functionality_view(functionality: FunctionalityArtifact,
                        tech: TechLibrary) -> Tuple[
                            "HWModule", Dict[Operation, int], float]:
    """(scheduled shareable ops + stages, other area) for one module.

    Shareable operators appear exactly once in the scheduled lil graph and
    once in the generated module (hardware generation never duplicates or
    removes them), so the graph carries both their stage and their shape;
    the rest of the module (wiring, muxes, pipeline registers, ROMs) is
    accounted as non-shareable area.
    """
    steps = {
        op: functionality.schedule.stage_of(op)
        for op in functionality.graph.operations
        if op.name in SHAREABLE_OPS
    }
    shareable_area = sum(tech.area_um2(op) for op in steps)
    module_area_total = sum(
        tech.area_um2(op) for op in functionality.module.body.operations
    )
    other = max(0.0, module_area_total - shareable_area)
    return functionality.graph, steps, other  # type: ignore[return-value]


def analyze_functionality(functionality: FunctionalityArtifact,
                          tech: Optional[TechLibrary] = None,
                          max_ii: int = 8) -> SharingReport:
    """Within-instruction sharing trade-off for one scheduled module."""
    tech = tech or TechLibrary()
    graph, steps, other = _functionality_view(functionality, tech)
    groups, _ = _collect_groups([(graph, steps)], tech)
    points = _tradeoff(groups, tech, max_ii)
    return SharingReport(functionality.name, groups, points, other)


def analyze_isax(artifact: IsaxArtifact,
                 tech: Optional[TechLibrary] = None,
                 max_ii: int = 8) -> SharingReport:
    """Cross-instruction sharing: pool same-shaped units over all
    instruction modules of one ISAX (instructions issue one at a time on
    the MCU-class hosts, Section 7's packed-SIMD argument)."""
    tech = tech or TechLibrary()
    views = []
    other_total = 0.0
    for functionality in artifact.functionalities.values():
        if functionality.kind != "instruction":
            continue
        graph, steps, other = _functionality_view(functionality, tech)
        views.append((graph, steps))
        other_total += other
    groups, _ = _collect_groups(views, tech)
    points = _tradeoff(groups, tech, max_ii)
    return SharingReport(artifact.name, groups, points, other_total)


def _tradeoff(groups: List[OperatorGroup], tech: TechLibrary,
              max_ii: int) -> List[SharingPoint]:
    points = []
    for initiation_interval in range(1, max_ii + 1):
        if initiation_interval == 1:
            area = sum(g.spatial_area for g in groups)
            units = {g.kind: g.instances for g in groups}
            controller = 0.0
        else:
            area = sum(g.shared_area(initiation_interval, tech)
                       for g in groups)
            units = {g.kind: g.units_needed(initiation_interval)
                     for g in groups}
            controller = _controller_area(groups, initiation_interval, tech)
        points.append(SharingPoint(
            initiation_interval=initiation_interval,
            area_um2=area, units=units, controller_area_um2=controller,
        ))
    return points


def render_tradeoff(report: SharingReport) -> str:
    """Human-readable area/II curve for one report."""
    lines = [f"resource-sharing trade-off for '{report.name}' "
             f"(non-shareable datapath: {report.other_area_um2:.0f} um2)"]
    lines.append(f"{'II':>4} {'datapath um2':>13} {'ctrl um2':>9} "
                 f"{'saving':>8}  units")
    for point in report.points:
        units = ", ".join(f"{k.split('.')[1]}x{v}"
                          for k, v in sorted(point.units.items()))
        lines.append(
            f"{point.initiation_interval:>4} {point.area_um2:>13.0f} "
            f"{point.controller_area_um2:>9.0f} "
            f"{report.saving_pct(point.initiation_interval):>7.1f}%  {units}"
        )
    return "\n".join(lines)
