"""The full "ASIC flow" estimate: compile, integrate, synthesize, analyze.

``evaluate_combination`` plays the role of the paper's commercial 22 nm
synthesis + place-and-route run for one core x ISAX(es) configuration
(Section 5.3): it compiles each ISAX with Longnail against the core's
virtual datasheet, integrates them with SCAIE-V, and reports the area and
frequency overheads relative to the unmodified core — the quantities of
Table 4.  ``measure_artifacts`` is its second half, for ISAXes that are
already compiled.

The timing-closure effect the paper discusses for sqrt on ORCA/Piccolo is
modeled explicitly: when an ISAX module's internal critical path exceeds the
core's cycle time, "the downstream ASIC synthesis has to put more effort to
achieve timing closure within the ISAX module, using more area in order to
satisfy the timing constraints" — we scale the module area by an effort
factor proportional to the overshoot.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Union

from repro.eval.area import glue_area, module_area
from repro.eval.tech import TechLibrary
from repro.eval.timing import extended_core_frequency, module_critical_path
from repro.hls.longnail import IsaxArtifact, compile_isax
from repro.scaiev.cores import CORES, core_datasheet
from repro.scaiev.datasheet import VirtualDatasheet
from repro.scaiev.integrate import IntegrationResult, integrate
from repro.scheduling.scheduler import uniform_delay_model

#: Maximum synthesis-effort area multiplier for timing-pressed modules.
_MAX_EFFORT = 1.8


@dataclasses.dataclass
class AsicResult:
    """One Table 4 cell pair: a core x ISAX(es) configuration."""

    core: str
    isaxes: List[str]
    base_area_um2: float
    base_freq_mhz: float
    extension_area_um2: float
    freq_mhz: float
    hazard_handling: bool = True
    integration: Optional[IntegrationResult] = None
    artifacts: List[IsaxArtifact] = dataclasses.field(default_factory=list)

    @property
    def area_overhead_pct(self) -> float:
        return 100.0 * self.extension_area_um2 / self.base_area_um2

    @property
    def freq_delta_pct(self) -> float:
        return 100.0 * (self.freq_mhz - self.base_freq_mhz) / self.base_freq_mhz

    @property
    def label(self) -> str:
        return "+".join(self.isaxes)


def evaluate_combination(
    core: Union[str, VirtualDatasheet],
    sources: Sequence[str],
    isax_names: Optional[Sequence[str]] = None,
    hazard_handling: bool = True,
    tech: Optional[TechLibrary] = None,
    schedule_delays: str = "tech",
    engine: str = "auto",
) -> AsicResult:
    """Run the full flow for one configuration and measure it.

    ``schedule_delays`` selects the delay model Longnail schedules with:
    ``"tech"`` (the technology library) or ``"uniform"`` (the paper's
    current simplification, Section 4.2) — the gap between the two is the
    Section 5.4 timing-closure story.
    """
    tech = tech or TechLibrary()
    datasheet = core_datasheet(core) if isinstance(core, str) else core
    if schedule_delays == "tech":
        delay_model = tech.delay_model()
    elif schedule_delays == "uniform":
        # The paper's simplification: one uniform delay per operation.  A
        # sixteenth of a cycle per operation packs stages optimistically, so
        # deep modules mis-estimate real timing — the Section 5.4 story.
        delay_model = uniform_delay_model(datasheet.cycle_time_ns / 16.0)
    else:
        raise ValueError(f"unknown delay-model choice {schedule_delays!r}")

    artifacts = [
        compile_isax(source, datasheet, delay_model=delay_model, engine=engine)
        for source in sources
    ]
    return measure_artifacts(datasheet, artifacts, isax_names=isax_names,
                             hazard_handling=hazard_handling, tech=tech)


def measure_artifacts(
    datasheet: VirtualDatasheet,
    artifacts: List[IsaxArtifact],
    isax_names: Optional[Sequence[str]] = None,
    hazard_handling: bool = True,
    tech: Optional[TechLibrary] = None,
) -> AsicResult:
    """Integrate already-compiled ISAXes with SCAIE-V and measure them:
    the synthesis half of :func:`evaluate_combination`, for callers that
    must price exactly the hardware they compiled."""
    tech = tech or TechLibrary()
    integration = integrate(
        datasheet,
        [(artifact.config, None) for artifact in artifacts],
        hazard_handling=hazard_handling,
    )

    cycle = datasheet.cycle_time_ns
    extension_area = glue_area(integration.glue, tech)
    for artifact in artifacts:
        for functionality in artifact.functionalities.values():
            area = module_area(functionality.module, tech)
            path = module_critical_path(functionality.module, tech)
            if path > cycle:
                # Timing pressure: synthesis spends area to close timing.
                effort = min(_MAX_EFFORT, 1.0 + 0.6 * (path / cycle - 1.0))
                area *= effort
            extension_area += area

    freq = extended_core_frequency(
        datasheet, artifacts, integration, tech, extension_area
    )
    names = list(isax_names) if isax_names else [a.name for a in artifacts]
    return AsicResult(
        core=datasheet.core_name,
        isaxes=names,
        base_area_um2=datasheet.base_area_um2,
        base_freq_mhz=datasheet.base_freq_mhz,
        extension_area_um2=extension_area,
        freq_mhz=freq,
        hazard_handling=hazard_handling,
        integration=integration,
        artifacts=artifacts,
    )


def table4_rows() -> List[Dict[str, object]]:
    """The row definitions of Table 4 (ISAX label -> sources + options)."""
    from repro.isaxes import ALL_ISAXES

    rows: List[Dict[str, object]] = []
    for name in ("autoinc", "dotprod", "ijmp", "sbox", "sparkle",
                 "sqrt_tightly", "sqrt_decoupled"):
        rows.append({"label": name, "sources": [ALL_ISAXES[name]],
                     "hazard": True})
    rows.append({
        "label": "sqrt_decoupled (no hazard handling)",
        "sources": [ALL_ISAXES["sqrt_decoupled"]],
        "hazard": False,
    })
    rows.append({"label": "zol", "sources": [ALL_ISAXES["zol"]],
                 "hazard": True})
    rows.append({
        "label": "autoinc+zol",
        "sources": [ALL_ISAXES["autoinc"], ALL_ISAXES["zol"]],
        "hazard": True,
    })
    return rows


def run_table4(cores: Sequence[str] = CORES,
               tech: Optional[TechLibrary] = None,
               engine: str = "auto") -> Dict[str, Dict[str, AsicResult]]:
    """Regenerate Table 4: {row label: {core: AsicResult}}."""
    tech = tech or TechLibrary()
    table: Dict[str, Dict[str, AsicResult]] = {}
    for row in table4_rows():
        results: Dict[str, AsicResult] = {}
        for core in cores:
            results[core] = evaluate_combination(
                core, row["sources"], hazard_handling=row["hazard"],
                tech=tech, engine=engine,
            )
        table[row["label"]] = results
    return table
