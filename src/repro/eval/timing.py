"""Static timing analysis and integration-level frequency effects
(the place-and-route half of the ASIC model).

Captures the mechanisms behind the paper's Table 4 frequency columns:

* the ISAX module's internal critical path (register-to-register) directly
  limits the shared clock,
* on cores that forward results from the last stage back into the execute
  stage (ORCA, Section 5.4), any ISAX write scheduled into the last stage
  joins the forwarding path and lengthens it — the root cause of the
  dotprod/sparkle regressions the paper reports,
* interface arbitration muxes add a small payload delay,
* synthesis/P&R heuristics contribute small pseudo-random variation
  (Section 5.4 notes variations below 10% are noise); we model this with a
  deterministic hash so results are reproducible.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional

from repro.dialects.hw import HWModule
from repro.eval.area import module_area
from repro.eval.tech import TechLibrary
from repro.hls.longnail import IsaxArtifact
from repro.ir.core import Value
from repro.scaiev.datasheet import VirtualDatasheet
from repro.scaiev.integrate import IntegrationResult

#: Register clock-to-Q plus setup margin (ns).
_SEQUENTIAL_OVERHEAD = 0.08


def module_critical_path(module: HWModule,
                         tech: Optional[TechLibrary] = None) -> float:
    """Longest combinational path (ns) between sequential boundaries
    (inputs/registers -> outputs/register data pins)."""
    tech = tech or TechLibrary()
    arrival: Dict[Value, float] = {}
    critical = 0.0
    for op in module.body.operations:
        if op.name in ("hw.input", "seq.compreg"):
            for result in op.results:
                arrival[result] = 0.0
            if op.name == "seq.compreg":
                critical = max(critical, arrival.get(op.operands[0], 0.0))
            continue
        if op.name == "hw.output":
            critical = max(critical, arrival.get(op.operands[0], 0.0))
            continue
        start = max((arrival[o] for o in op.operands), default=0.0)
        finish = start + tech.delay_ns(op)
        for result in op.results:
            arrival[result] = finish
        critical = max(critical, finish)
    # Second pass for register data pins: a register may come before the
    # producer of its data in block order; by now every arrival is known.
    for op in module.body.operations:
        if op.name == "seq.compreg":
            critical = max(critical, arrival.get(op.operands[0], 0.0))
    return critical + _SEQUENTIAL_OVERHEAD if critical > 0 else 0.0


def _noise_fraction(key: str, amplitude: float = 0.02) -> float:
    """Deterministic pseudo-random fraction in [-amplitude, +amplitude],
    modeling the inherent randomness of synthesis and P&R heuristics."""
    digest = hashlib.md5(key.encode()).digest()
    raw = int.from_bytes(digest[:4], "little") / 0xFFFFFFFF
    return (2.0 * raw - 1.0) * amplitude


def output_arrival_times(module: HWModule,
                         tech: Optional[TechLibrary] = None) -> Dict[str, float]:
    """In-cycle arrival time (ns) of each output port's data."""
    tech = tech or TechLibrary()
    arrival: Dict[Value, float] = {}
    outputs: Dict[str, float] = {}
    for op in module.body.operations:
        if op.name in ("hw.input", "seq.compreg"):
            for result in op.results:
                arrival[result] = 0.0
            continue
        if op.name == "hw.output":
            outputs[op.attr("name")] = arrival.get(op.operands[0], 0.0)
            continue
        start = max((arrival[o] for o in op.operands), default=0.0)
        finish = start + tech.delay_ns(op)
        for result in op.results:
            arrival[result] = finish
    return outputs


def forwarding_path_cycle(datasheet: VirtualDatasheet,
                          artifacts: List[IsaxArtifact],
                          tech: Optional[TechLibrary] = None) -> float:
    """Required cycle time (ns) of the forwarding path once ISAX writes in
    the core's last stage join it (Section 5.4, ORCA).

    The forwarding net feeds the issue mux and the ALU input, which consume
    a large fraction of the base cycle; an ISAX result arriving late in the
    last stage (fresh out of combinational logic rather than a register)
    therefore stretches the path: required = write-data arrival + consumer
    fraction of the base cycle.
    """
    if not datasheet.forwarding_from_last_stage:
        return 0.0
    tech = tech or TechLibrary()
    base_cycle = datasheet.cycle_time_ns
    required = 0.0
    from repro.eval.area import module_area  # deferred: avoids a cycle

    for artifact in artifacts:
        for name, functionality in artifact.functionalities.items():
            # Only GPR results travel on the forwarding network.
            entry_late = any(
                entry.interface == "WrRD"
                and entry.mode == "in_pipeline"
                and entry.stage >= datasheet.writeback_stage
                for entry in functionality.functionality.schedule
            )
            if not entry_late:
                continue
            arrivals = output_arrival_times(functionality.module, tech)
            data_arrival = max(
                (t for port, t in arrivals.items()
                 if port.startswith("wrrd_data")),
                default=0.0,
            )
            # Result mux into the forwarding net plus the wire load of the
            # ISAX block hanging off it (scales with its footprint), plus
            # any combinational tail the result arrives through.
            area = module_area(functionality.module, tech)
            penalty = (0.04 + 0.006 * math.sqrt(max(0.0, area))
                       + 0.35 * data_arrival)
            required = max(
                required,
                penalty + tech.forwarding_consumer_fraction * base_cycle,
            )
    return required


def arbitration_mux_delay(integration: IntegrationResult) -> float:
    """Payload mux delay added in front of shared write interfaces."""
    worst = 0
    for mux in integration.arbitration.muxes:
        worst = max(worst, mux.ways)
    if worst <= 1:
        return 0.0
    return 0.022 * math.log2(worst) * 2


def extended_core_frequency(
    datasheet: VirtualDatasheet,
    artifacts: List[IsaxArtifact],
    integration: IntegrationResult,
    tech: Optional[TechLibrary] = None,
    extension_area: float = 0.0,
) -> float:
    """f_max (MHz) of the extended core.

    The clock must accommodate: the base core's critical path (lengthened by
    forwarding/arbitration effects), and every ISAX module's internal path.
    """
    tech = tech or TechLibrary()
    base_cycle = datasheet.cycle_time_ns
    cycle = base_cycle
    cycle = max(cycle, forwarding_path_cycle(datasheet, artifacts, tech))
    cycle += arbitration_mux_delay(integration)
    for artifact in artifacts:
        for functionality in artifact.functionalities.values():
            path = module_critical_path(functionality.module, tech)
            cycle = max(cycle, path)
    key = datasheet.core_name + ":" + "+".join(a.name for a in artifacts)
    cycle *= 1.0 + _noise_fraction(key)
    return 1000.0 / cycle
