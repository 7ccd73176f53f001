"""Arbitration between multiple ISAX modules (paper Section 3.3).

SCAIE-V multiplexes incoming payloads from different instructions based on
the current opcode processed in the pipeline, so an HLS tool can generate
modules for multiple instructions without worrying about multiplexing their
interfaces.  If multiple ISAXes want to write in the same clock cycle, a
static arbitration priority ensures a deterministic order.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

from repro.scaiev.config import IsaxConfig


@dataclasses.dataclass
class InterfaceMux:
    """One multiplexer in front of a core-side sub-interface port."""

    interface: str
    width: int
    users: List[str]                      # functionality names, priority order

    @property
    def ways(self) -> int:
        return len(self.users)


@dataclasses.dataclass
class ArbitrationPlan:
    muxes: List[InterfaceMux]
    #: Deterministic static priority over functionalities (Section 3.3).
    priority: List[str]

    def mux_for(self, interface: str) -> InterfaceMux:
        for mux in self.muxes:
            if mux.interface == interface:
                return mux
        raise KeyError(f"no users of sub-interface '{interface}'")


#: Payload widths of the write-side interfaces that need arbitration.
_WRITE_WIDTHS = {
    "WrRD": 32,
    "WrPC": 32,
    "WrMem": 64 + 1,     # address + data (+ strobe)
}


def _payload_width(interface: str, configs: List[IsaxConfig]) -> int:
    if interface in _WRITE_WIDTHS:
        return _WRITE_WIDTHS[interface]
    if interface.startswith("Wr") and interface.endswith(".data"):
        reg_name = interface[2:-len(".data")]
        for config in configs:
            reg = config.register(reg_name)
            if reg is not None:
                return reg.width
    if interface.startswith("Wr") and interface.endswith(".addr"):
        return 5
    return 32


def plan_arbitration(configs: List[IsaxConfig]) -> ArbitrationPlan:
    """Compute the interface muxing for a set of ISAXes on one core.

    Priority is static and deterministic: functionalities are ordered by
    (ISAX name, functionality name); decoupled writers rank *behind*
    in-pipeline writers of the same interface, matching SCAIE-V's behavior
    of delaying decoupled commits when the pipeline owns the resource.
    """
    users: Dict[str, List[Tuple[int, str, str]]] = {}
    for config in sorted(configs, key=lambda c: c.name):
        for func in config.functionalities:
            for entry in func.schedule:
                if not entry.interface.startswith("Wr"):
                    continue
                rank = 1 if entry.mode == "decoupled" else 0
                users.setdefault(entry.interface, []).append(
                    (rank, config.name, func.name)
                )
    muxes = []
    priority: List[str] = []
    for interface in sorted(users):
        entries = sorted(users[interface])
        names = [f"{isax}:{func}" for _rank, isax, func in entries]
        for name in names:
            if name not in priority:
                priority.append(name)
        if len(names) > 1:
            muxes.append(InterfaceMux(
                interface=interface,
                width=_payload_width(interface, configs),
                users=names,
            ))
    return ArbitrationPlan(muxes=muxes, priority=priority)
