"""Netlist area accounting (the synthesis half of the ASIC model)."""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.dialects.hw import HWModule
from repro.eval.tech import TechLibrary
from repro.scaiev.integrate import GlueItem, IntegrationResult


def module_area(module: HWModule, tech: Optional[TechLibrary] = None) -> float:
    """Cell area (µm²) of one generated ISAX module, including routing."""
    tech = tech or TechLibrary()
    total = sum(tech.area_um2(op) for op in module.body.operations)
    return total * tech.routing_factor


def glue_area(items: Iterable[GlueItem],
              tech: Optional[TechLibrary] = None) -> float:
    """Area (µm²) of the SCAIE-V-generated interface logic."""
    tech = tech or TechLibrary()
    total = 0.0
    for item in items:
        per_bit = tech.glue_area_per_bit.get(item.kind, tech.gate_area)
        total += per_bit * item.bits
    return total * tech.routing_factor


def area_breakdown(integration: IntegrationResult,
                   tech: Optional[TechLibrary] = None) -> Dict[str, float]:
    """Per-component area of one integrated core extension."""
    tech = tech or TechLibrary()
    breakdown: Dict[str, float] = {}
    for name, module in integration.modules.items():
        breakdown[f"module:{name}"] = module_area(module, tech)
    breakdown["glue"] = glue_area(integration.glue, tech)
    return breakdown
