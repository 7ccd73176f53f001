"""Data-hazard handling for decoupled results (paper Sections 2.5 / 3.2).

The decoupled mode requires "additional hardware resources for the
automatically created register data hazard handling that conditionally
stalls subsequent issue of dependent instructions" — a tailored, lightweight
scoreboard.  This module plans that hardware: which destinations must be
tracked, how many pending slots are needed, and which comparators the issue
stage gains.  The plan is consumed by the integration's area accounting
(:mod:`repro.scaiev.integrate`), and it can be disabled to reproduce Table
4's "without data-hazard handling" ablation row.  The core timing model
(:mod:`repro.sim.riscv.core_model`) does not read it: it stalls dependent
instructions with its own bookkeeping of pending decoupled results.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.scaiev.config import IsaxConfig
from repro.scaiev.datasheet import VirtualDatasheet
from repro.scaiev.interfaces import address_width


@dataclasses.dataclass
class ScoreboardEntry:
    """Tracking state for one decoupled write target."""

    target: str            # "rd" for GPR results, else custom register name
    address_width: int     # 5 for the GPR file, AW for custom registers
    data_width: int


@dataclasses.dataclass
class ScoreboardPlan:
    """The scoreboard SCAIE-V generates for one core+ISAX combination.

    ``storage_bits``: pending-destination registers (address + valid bit per
    entry).  ``comparators``: one per base-core read port and tracked entry,
    comparing issue-stage source registers against pending destinations.
    ``stall_fanout``: stages whose enable logic the scoreboard drives.
    """

    enabled: bool
    entries: List[ScoreboardEntry]
    read_ports: int
    stages: int

    #: In-flight decoupled results tracked simultaneously.
    depth: int = 4

    @property
    def storage_bits(self) -> int:
        """Pending-destination slots plus the result commit buffer that
        holds values waiting for a free write-back cycle."""
        if not self.enabled:
            return 0
        slots = sum((e.address_width + 1) * self.depth for e in self.entries)
        commit_buffer = sum((e.data_width + e.address_width) * 2
                            for e in self.entries)
        return slots + commit_buffer

    @property
    def comparator_bits(self) -> int:
        """Issue-stage source registers are compared against every pending
        destination slot, replicated per read port and checked in each stage
        that may issue."""
        if not self.enabled:
            return 0
        return sum(
            e.address_width * self.read_ports * self.depth * self.stages
            for e in self.entries
        )

    @property
    def stall_fanout(self) -> int:
        return 2 * self.stages if self.enabled and self.entries else 0


def plan_scoreboard(config: IsaxConfig, datasheet: VirtualDatasheet,
                    enabled: bool = True) -> ScoreboardPlan:
    """Build the scoreboard plan for the decoupled writes of one ISAX."""
    entries: List[ScoreboardEntry] = []
    seen = set()
    for func in config.functionalities:
        for entry in func.schedule:
            if entry.mode != "decoupled":
                continue
            if entry.interface == "WrRD":
                key = ("rd",)
                if key not in seen:
                    seen.add(key)
                    entries.append(ScoreboardEntry("rd", 5, 32))
            elif entry.interface.startswith("Wr") and entry.interface.endswith(".data"):
                reg_name = entry.interface[2:-len(".data")]
                reg = config.register(reg_name)
                if reg is None:
                    continue
                key = (reg_name,)
                if key not in seen:
                    seen.add(key)
                    entries.append(ScoreboardEntry(
                        reg_name, address_width(reg.elements), reg.width))
    return ScoreboardPlan(
        enabled=enabled,
        entries=entries,
        read_ports=2,
        stages=datasheet.stages,
    )
