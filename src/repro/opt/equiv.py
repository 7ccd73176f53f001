"""Optimized-vs-unoptimized equivalence by architectural trace comparison.

Two artifacts compiled from the same source at different -O levels must be
architecturally indistinguishable.  Port *names* are not comparable across
levels (they carry schedule-stage suffixes and the schedules legitimately
differ), so the trace normalizes RTL outputs to architectural roles — GPR
writeback, PC redirect, memory write/read request, custom-register traffic
— via the same prefix matching the cosim harness uses, and gates every
data/address field on its valid bit (a lane that is not written is a
don't-care and is recorded as ``-``).

Stimuli are drawn from a seed-keyed RNG by the same helper
``verify_artifact`` uses (:func:`repro.sim.cosim.draw_trials`), so both
artifacts see the exact same architectural states and operand values; the
resulting trace strings are required to be byte-identical.

This module imports the simulator and HLS layers — keep it out of
``repro.opt.__init__`` (``hls.longnail`` imports ``repro.opt.pipeline``).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.hls.longnail import IsaxArtifact
from repro.sim.cosim import _find_output, cosim_lanes, draw_trials


def _gated(outputs: Dict[str, int], data_prefix: str,
           valid_prefix: str) -> str:
    valid = _find_output(outputs, valid_prefix)
    data = _find_output(outputs, data_prefix)
    if not valid or data is None:
        return "-"
    return f"{data:x}"


def _trace_fields(outputs: Dict[str, int], regs: List[str]) -> List[str]:
    fields = []
    fields.append("rd=" + _gated(outputs, "wrrd_data", "wrrd_valid"))
    fields.append("pc=" + _gated(outputs, "wrpc_data", "wrpc_valid"))
    if _find_output(outputs, "mem_wvalid"):
        waddr = _find_output(outputs, "mem_waddr")
        wdata = _find_output(outputs, "mem_wdata")
        addr_text = "-" if waddr is None else f"{waddr:x}"
        data_text = "-" if wdata is None else f"{wdata:x}"
        fields.append(f"memw={addr_text}:{data_text}")
    else:
        fields.append("memw=-")
    raddr = _find_output(outputs, "mem_raddr")
    fields.append("memr=" + ("-" if raddr is None else f"{raddr:x}"))
    for reg in regs:
        fields.append(f"{reg}="
                      + _gated(outputs, f"wr{reg}_data", f"wr{reg}_valid"))
        read_addr = _find_output(outputs, f"rd{reg}_addr")
        if read_addr is not None:
            fields.append(f"{reg}.r={read_addr:x}")
    return fields


def architectural_trace(artifact: IsaxArtifact, trials: int = 4,
                        seed: int = 0, sim_engine: str = "auto") -> str:
    """One line per (functionality, trial): role-normalized RTL effects.

    The stimulus sequence depends only on the ISA, ``seed`` and ``trials``
    — never on the artifact's schedule or port names — so traces from
    different -O levels of the same source are directly comparable.
    """
    lines = []
    for name in sorted(artifact.functionalities):
        drawn = draw_trials(artifact, name, trials,
                            random.Random(f"{seed}:{name}"))
        results = cosim_lanes(artifact, name, drawn, sim_engine)
        for trial, ((state, _), result) in enumerate(zip(drawn, results)):
            regs = sorted(state.custom)
            parts = [f"{name} t{trial}", f"ok={int(result.matches)}"]
            parts.extend(_trace_fields(result.rtl_outputs, regs))
            lines.append(" ".join(parts))
    return "\n".join(lines)


def compare_artifacts(baseline: IsaxArtifact, optimized: IsaxArtifact,
                      trials: int = 4, seed: int = 0,
                      sim_engine: str = "auto") -> Optional[str]:
    """None when the traces are byte-identical, else the first difference."""
    base_trace = architectural_trace(baseline, trials, seed, sim_engine)
    opt_trace = architectural_trace(optimized, trials, seed, sim_engine)
    if base_trace == opt_trace:
        return None
    for base_line, opt_line in zip(base_trace.splitlines(),
                                   opt_trace.splitlines()):
        if base_line != opt_line:
            return f"baseline: {base_line!r} != optimized: {opt_line!r}"
    return (f"trace length differs: baseline "
            f"{len(base_trace.splitlines())} lines, optimized "
            f"{len(opt_trace.splitlines())} lines")
