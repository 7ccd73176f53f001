"""The end-to-end Longnail driver (paper Figure 9).

``compile_isax`` runs the full flow for one CoreDSL InstructionSet against
one host core:

1. frontend: parse + elaborate + type-check (Section 2),
2. lower to the coredsl IR and then to lil CDFGs (Section 4.1),
3. read the core's virtual datasheet and schedule each graph (Sections
   4.2/4.3), selecting the execution mode of every interface use
   (Section 3.2 / 4.3),
4. generate the pipelined hardware modules and SystemVerilog (Section 4.5),
5. emit the SCAIE-V configuration file (Section 4.6).

The lints, the lowering of step 2 and the CDFG optimizer never read the
core, so their result is memoized per elaborated ISA and shared by every
core compiled from it; only steps 3-5 run per core.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
import weakref
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.analysis.lint import run_lints
from repro.analysis.verifier import (
    ir_verify_enabled,
    require_valid,
    verify_graph,
    verify_module,
    verify_schedule,
)
from repro.dialects import lil
from repro.dialects.hw import HWModule
from repro.frontend.elaboration import ElaboratedISA, elaborate
from repro.hls.hwgen import generate_module
from repro.hls.verilog import emit_modules
from repro.ir.core import Graph
from repro.lowering import convert_to_lil, lower_isa
from repro.opt.pipeline import OptimizerReport, OptOptions, optimize_graphs
from repro.scaiev.config import (
    Functionality,
    IsaxConfig,
    RegisterRequest,
    ScheduleEntry,
)
from repro.scaiev.cores import core_datasheet
from repro.scaiev.datasheet import VirtualDatasheet
from repro.scaiev.modes import ExecutionMode, select_mode
from repro.scheduling.scheduler import (
    DelayModel,
    LongnailScheduler,
    ScheduleResult,
)
from repro.utils.diagnostics import Diagnostic


#: Called with ``(phase, seconds)`` every time the driver finishes a chunk of
#: work in one of the :data:`PHASES`; a phase may be reported several times
#: (once per functionality) and observers are expected to accumulate.  Only
#: time actually spent is reported: a compile that reuses a memoized front
#: end reports no ``lint``, ``lower``, ``opt`` or front-end ``verify`` time.
PhaseHook = Callable[[str, float], None]

#: The compilation phases, in flow order (paper Figure 9 left-to-right).
#: ``lint`` (frontend lint rules) and ``verify`` (the IR verifier under
#: ``REPRO_IR_VERIFY=1``) are instrumentation phases of the static
#: analysis subsystem; both may report zero time when disabled.  ``opt``
#: is the CDFG optimizer pipeline (:mod:`repro.opt`), active at -O1/-O2.
PHASES = ("parse", "lint", "lower", "opt", "schedule", "hwgen", "verify",
          "emit")


@contextlib.contextmanager
def _timed(phase: str, hook: Optional[PhaseHook]) -> Iterator[None]:
    if hook is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        hook(phase, time.perf_counter() - start)


@dataclasses.dataclass
class FunctionalityArtifact:
    """Everything Longnail produced for one instruction or always-block."""

    name: str
    kind: str                       # "instruction" | "always"
    graph: Graph
    schedule: ScheduleResult
    module: HWModule
    functionality: Functionality

    @property
    def mode(self) -> ExecutionMode:
        """Overall execution mode: the 'strongest' mode of any write."""
        modes = [entry.mode for entry in self.functionality.schedule]
        for candidate in ("always", "decoupled", "tightly_coupled"):
            if candidate in modes:
                return ExecutionMode(candidate)
        return ExecutionMode.IN_PIPELINE


@dataclasses.dataclass
class IsaxArtifact:
    """The complete result of compiling one ISAX for one core."""

    isa: ElaboratedISA
    datasheet: VirtualDatasheet
    functionalities: Dict[str, FunctionalityArtifact]
    config: IsaxConfig
    #: Frontend lint findings (never fail the compile; see ``--werror`` in
    #: the CLI for a strict mode).
    diagnostics: List[Diagnostic] = dataclasses.field(default_factory=list)
    #: Per-pass optimizer accounting (None when compiled at -O0).
    optimizer: Optional[OptimizerReport] = None

    @property
    def name(self) -> str:
        return self.isa.name

    @property
    def core_name(self) -> str:
        return self.datasheet.core_name

    @property
    def modules(self) -> List[HWModule]:
        return [f.module for f in self.functionalities.values()]

    @property
    def verilog(self) -> str:
        return emit_modules(self.modules)

    @property
    def config_yaml(self) -> str:
        return self.config.to_yaml()

    def artifact(self, name: str) -> FunctionalityArtifact:
        return self.functionalities[name]


def _schedule_entries(graph: Graph, schedule: ScheduleResult,
                      datasheet: VirtualDatasheet,
                      is_always: bool) -> List[ScheduleEntry]:
    entries: List[ScheduleEntry] = []
    for op in graph.operations:
        interface = lil.interface_name(op)
        if interface is None:
            continue
        stage = schedule.stage_of(op)
        mode = select_mode(op, stage, datasheet, in_always=is_always)
        has_valid = False
        if op.name in lil.WRITE_OPS:
            # State updates carry their predicate as an explicit valid bit;
            # mandatory for always-blocks (Section 3.2).
            has_valid = True
        if op.name == "lil.read_mem":
            has_valid = True
        if op.name == "lil.write_custreg":
            # Figure 8: writes to custom registers submit the index first
            # (Wr<NAME>.addr), then the data (Wr<NAME>.data).  For registers
            # with a single element the .addr entry only provides stage
            # information for the hazard-handling mechanism.
            entries.append(ScheduleEntry(
                interface=f"{interface}.addr", stage=stage,
                has_valid=False, mode=str(mode),
            ))
            entries.append(ScheduleEntry(
                interface=f"{interface}.data", stage=stage,
                has_valid=True, mode=str(mode),
            ))
            continue
        entries.append(ScheduleEntry(
            interface=interface, stage=stage, has_valid=has_valid,
            mode=str(mode),
        ))
    entries.sort(key=lambda e: (e.stage, e.interface))
    return entries


@dataclasses.dataclass
class _FrontEnd:
    """The core-independent half of a compile: lint findings, the lowered
    and optimized lil graphs and the optimizer report.  It holds no
    reference to its ISA, so its memo entry dies with the ISA."""

    #: ``(name, kind, graph)`` triples, instructions first, then always-blocks.
    graphs: List[Tuple[str, str, Graph]]
    diagnostics: List[Diagnostic]
    optimizer: Optional[OptimizerReport]


#: The front ends of the latest ISA only: ``isa -> {(opt options, lint,
#: verify): front end}``.  Weakly keyed on the :class:`ElaboratedISA` the
#: elaboration memo returns once per source, so an entry dies with its
#: ISA.  No lock: two threads that miss together each build and use their
#: own front end.
_FRONT_ENDS: "weakref.WeakKeyDictionary[ElaboratedISA, Dict[tuple, _FrontEnd]]" = \
    weakref.WeakKeyDictionary()


def _verified(stage: str, check: Callable[[], List[Diagnostic]],
              verify: bool, hook: Optional[PhaseHook]) -> None:
    if not verify:
        return
    with _timed("verify", hook):
        require_valid(stage, check())


def _front_end(isa: ElaboratedISA, options: OptOptions, lint: bool,
               verify: bool, phase_hook: Optional[PhaseHook]) -> _FrontEnd:
    """Lint, lower and optimize ``isa``; nothing here reads the core."""
    diagnostics: List[Diagnostic] = []
    if lint:
        with _timed("lint", phase_hook):
            diagnostics = run_lints(isa)
    with _timed("lower", phase_hook):
        lowered = lower_isa(isa)
    graphs: List[Tuple[str, str, Graph]] = []
    for kind, containers in (("instruction", lowered.instructions),
                             ("always", lowered.always_blocks)):
        for name, container in containers.items():
            with _timed("lower", phase_hook):
                graph = convert_to_lil(isa, container)
            _verified(f"lower:{name}", lambda: verify_graph(graph), verify,
                      phase_hook)
            graphs.append((name, kind, graph))
    optimizer: Optional[OptimizerReport] = None
    if options.pipeline():
        with _timed("opt", phase_hook):
            optimizer = optimize_graphs(graphs, options, verify=verify)
    return _FrontEnd(graphs, diagnostics, optimizer)


def compile_isax(
    source: Union[str, ElaboratedISA],
    core: Union[str, VirtualDatasheet] = "VexRiscv",
    top: Optional[str] = None,
    engine: str = "auto",
    delay_model: Optional[DelayModel] = None,
    cycle_time_ns: Optional[float] = None,
    extra_sources: Optional[Dict[str, str]] = None,
    phase_hook: Optional[PhaseHook] = None,
    schedule_cache=None,
    lint: bool = True,
    verify_ir: Optional[bool] = None,
    opt: Union[OptOptions, int, None] = None,
) -> IsaxArtifact:
    """Compile a CoreDSL description (text or elaborated ISA) for a core.

    ``phase_hook`` (if given) receives ``(phase, seconds)`` wall-time
    samples for the :data:`PHASES`; the batch service
    (:mod:`repro.service`) uses it for per-phase instrumentation.
    ``schedule_cache`` is forwarded to the scheduler: a
    :class:`repro.scheduling.ScheduleCache`, ``None`` (the process-wide
    default) or ``False`` (no cross-sweep caching).

    ``lint`` runs the frontend lint rules and stores their findings as
    ``artifact.diagnostics``; lint findings never fail the compile.
    ``verify_ir`` runs the IR verifier after the lower/schedule/hwgen
    phases and raises :class:`repro.analysis.IRVerifyError` on any
    violated invariant; ``None`` defers to the ``REPRO_IR_VERIFY``
    environment variable.

    ``opt`` selects the CDFG optimizer configuration: an
    :class:`repro.opt.OptOptions`, a bare -O level int, or ``None``
    (-O0, no optimization — byte-identical to the historical flow).  The
    per-pass accounting lands on ``artifact.optimizer``; with the verifier
    enabled, every pass application is IV-checked individually.

    Lint, lowering and the optimizer never read the core (paper Figure
    9), so compiles of the same :class:`ElaboratedISA` object with the
    same ``opt``, ``lint`` and resolved ``verify_ir`` share one front end:
    the same lil ``Graph`` objects, ``diagnostics`` list and
    ``optimizer`` report.  Source text reaches the same ISA object
    through the elaboration memo.  Shared graphs are read-only once
    compiled; only the latest ISA's front ends are kept.  On a shared
    front end ``phase_hook`` gets no ``lint``, ``lower``, ``opt`` or
    front-end ``verify`` samples, because no time was spent there.  To
    lint, lower and optimize from scratch, compile ``copy.copy(isa)``,
    which is a new memo key.
    """
    if isinstance(source, ElaboratedISA):
        isa = source
    else:
        with _timed("parse", phase_hook):
            isa = elaborate(source, top=top, extra_sources=extra_sources)
    datasheet = core_datasheet(core) if isinstance(core, str) else core
    verify = ir_verify_enabled() if verify_ir is None else verify_ir
    opt_options = OptOptions.coerce(opt)

    fronts = _FRONT_ENDS.get(isa)
    if fronts is None:
        _FRONT_ENDS.clear()
        fronts = _FRONT_ENDS.setdefault(isa, {})
    key = (opt_options, lint, verify)
    front = fronts.get(key)
    if front is None:
        # Stored only once complete: a failed lowering leaves no entry,
        # and no other thread sees a half-built graph.
        front = _front_end(isa, opt_options, lint, verify, phase_hook)
        fronts[key] = front

    scheduler = LongnailScheduler(
        datasheet, delay_model=delay_model, cycle_time_ns=cycle_time_ns,
        engine=engine, schedule_cache=schedule_cache,
    )
    functionalities: Dict[str, FunctionalityArtifact] = {}
    config_functionalities: List[Functionality] = []
    for name, kind, graph in front.graphs:
        with _timed("schedule", phase_hook):
            schedule = scheduler.schedule(graph)
        _verified(f"schedule:{name}", lambda: verify_schedule(schedule),
                  verify, phase_hook)
        with _timed("hwgen", phase_hook):
            module = generate_module(graph, schedule)
        _verified(f"hwgen:{name}", lambda: verify_module(module), verify,
                  phase_hook)
        if kind == "instruction":
            functionality = Functionality(
                kind="instruction",
                name=name,
                mask=isa.instructions[name].encoding.pattern,
                schedule=_schedule_entries(graph, schedule, datasheet,
                                           False),
            )
        else:
            functionality = Functionality(
                kind="always",
                name=name,
                schedule=_schedule_entries(graph, schedule, datasheet, True),
            )
        config_functionalities.append(functionality)
        functionalities[name] = FunctionalityArtifact(
            name=name, kind=kind, graph=graph, schedule=schedule,
            module=module, functionality=functionality,
        )

    registers = [
        RegisterRequest(info.name, info.element.width, info.size or 1)
        for info in isa.custom_state()
        if info.kind in ("scalar_reg", "array_reg")
    ]
    config = IsaxConfig(
        name=isa.name,
        registers=registers,
        functionalities=config_functionalities,
    )
    return IsaxArtifact(
        isa=isa,
        datasheet=datasheet,
        functionalities=functionalities,
        config=config,
        diagnostics=front.diagnostics,
        optimizer=front.optimizer,
    )


def compile_isax_set(
    sources: List[Union[str, ElaboratedISA]],
    core: Union[str, VirtualDatasheet] = "VexRiscv",
    **kwargs,
) -> List[IsaxArtifact]:
    """Compile several ISAXes for the same core (e.g. the autoinc+zol
    combination of Section 5.1); integration is handled by
    :func:`repro.scaiev.integrate.integrate`."""
    datasheet = core_datasheet(core) if isinstance(core, str) else core
    return [compile_isax(src, datasheet, **kwargs) for src in sources]
