"""Co-simulation harness: generated RTL vs the CoreDSL golden model.

The paper verifies extended cores by RTL simulation (Section 5.3).  This
module packages that methodology as a library feature: given a compiled
:class:`~repro.hls.longnail.IsaxArtifact`, it executes each instruction (or
always-block) through the CoreDSL interpreter and through the cycle-level
RTL simulation of the generated module, and compares every architectural
effect — GPR result, PC redirect, memory request, custom register writes —
including the valid bits.

Every check runs through one algorithm, :func:`cosim_lanes`, with one
*lane* per trial.  The golden model runs per lane; the RTL simulates the
lanes one after another with constant inputs, on one simulator reset
per lane.  Reads are then resolved across lanes: the module's
``mem_raddr``/``rd<REG>_addr`` outputs are observed, the addressed data is
fed back on the ``mem_rdata``/``rd<REG>_data`` inputs, and only the lanes
whose inputs changed are simulated again, for at most three rounds (one
suffices unless an address depends on loaded data).  Instructions and
always-blocks take the same path.

``verify_artifact`` runs randomized trials over all functionalities; it is
what a downstream ISAX author would call before handing the SystemVerilog
to a real flow.  :func:`cosim_instruction` and :func:`cosim_always` check
one hand-made stimulus, and :func:`repro.opt.equiv.architectural_trace`
records the RTL effects of randomized trials drawn by :func:`draw_trials`.
"""

from __future__ import annotations

import dataclasses
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.hls.longnail import FunctionalityArtifact, IsaxArtifact
from repro.sim.coredsl_interp import ArchState, CoreDSLInterpreter, Effect
from repro.sim.rtl_sim import RTLSimulator
from repro.utils.bits import to_unsigned

#: One trial's stimulus: the architectural pre-state and, for an
#: instruction, its encoding-field values (``None`` for an always-block).
Trial = Tuple[ArchState, Optional[Dict[str, int]]]


@dataclasses.dataclass
class Mismatch:
    kind: str
    detail: str


@dataclasses.dataclass
class CosimResult:
    """Outcome of co-simulating one functionality on one stimulus."""

    functionality: str
    matches: bool
    mismatches: List[Mismatch]
    golden_effects: List[Effect]
    rtl_outputs: Dict[str, int]
    #: The input vector the RTL was driven with (after memory/register read
    #: feedback settled) — enough to re-trace the failing trial.
    rtl_inputs: Dict[str, int] = dataclasses.field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.matches


def _find_output(outputs: Dict[str, int], prefix: str) -> Optional[int]:
    for name, value in outputs.items():
        if name.startswith(prefix):
            return value
    return None


def _fork_state(state: ArchState) -> ArchState:
    """Snapshot ``state`` for the golden model (which mutates its copy)."""
    golden = ArchState()
    golden.xregs = list(state.xregs)
    golden.pc = state.pc
    golden.memory = dict(state.memory)
    golden.custom = {k: list(v) for k, v in state.custom.items()}
    golden.custom_widths = dict(state.custom_widths)
    return golden


def draw_trials(artifact: IsaxArtifact, name: str, trials: int,
                rng: random.Random) -> List[Trial]:
    """Random stimuli for one functionality, drawn from ``rng`` in a fixed
    order per trial: GPRs, PC, every custom-register element, 64 memory
    bytes, then (for an instruction) its encoding fields."""
    isa = artifact.isa
    encoding = (isa.instructions[name].encoding
                if artifact.artifact(name).kind == "instruction" else None)
    drawn: List[Trial] = []
    for _ in range(trials):
        state = ArchState(isa)
        for index in range(1, 32):
            state.write_x(index, rng.getrandbits(32))
        state.pc = rng.getrandbits(32) & ~3
        for reg in state.custom:
            for element in range(len(state.custom[reg])):
                state.write_custom(reg, rng.getrandbits(32), element)
        for _ in range(64):
            state.write_mem_byte(rng.getrandbits(32), rng.getrandbits(8))
        fields = None
        if encoding is not None:
            fields = {
                fname: rng.getrandbits(field.width)
                for fname, field in encoding.fields.items()
            }
            for reg_field in ("rs1", "rs2", "rd"):
                if reg_field in fields:
                    fields[reg_field] = rng.randrange(32)
        drawn.append((state, fields))
    return drawn


def _initial_inputs(module, state: ArchState, fields: Dict[str, int],
                    word: int) -> Dict[str, int]:
    """RTL input vector of one trial before any read feedback."""
    inputs: Dict[str, int] = {}
    for port in module.inputs:
        if port.name.startswith("rs1_data"):
            inputs[port.name] = state.read_x(fields.get("rs1", 0))
        elif port.name.startswith("rs2_data"):
            inputs[port.name] = state.read_x(fields.get("rs2", 0))
        elif port.name.startswith("pc_data"):
            inputs[port.name] = state.pc
        elif port.name.startswith("instr_word"):
            inputs[port.name] = word
        elif port.name.startswith("rd") and "_data_" in port.name:
            # Custom-register read data: scalar reads have no address port,
            # so resolve them immediately from the pre-state.
            reg = port.name[2:port.name.index("_data_")]
            if reg in state.custom:
                inputs[port.name] = state.read_custom(reg)
    return inputs


def _feed_reads(module, state: ArchState, inputs: Dict[str, int],
                outputs: Dict[str, int]) -> bool:
    """Drive the read-data inputs with the data the read-address outputs
    request (memory loads, indexed custom-register reads); True when an
    input changed."""
    changed = False

    def feed(prefix: str, data: int) -> None:
        nonlocal changed
        for port in module.inputs:
            if port.name.startswith(prefix) and inputs.get(port.name) != data:
                inputs[port.name] = data
                changed = True

    read_addr = _find_output(outputs, "mem_raddr")
    if read_addr is not None:
        size = next((p.width for p in module.inputs
                     if p.name.startswith("mem_rdata")), 32)
        feed("mem_rdata", state.read_mem(read_addr, size // 8))
    for port in module.outputs:
        if port.name.startswith("rd") and "_addr_" in port.name:
            reg = port.name[2:port.name.index("_addr_")]
            if reg in state.custom:
                feed(f"rd{reg}_data",
                     state.read_custom(reg, outputs[port.name]))
    return changed


def _lane_simulator(module, cycles: int, sim_engine: str):
    """``simulate(lanes) -> outputs``: drive each lane's constant inputs
    for ``cycles`` cycles from reset and return its final outputs."""
    sim = RTLSimulator(module, engine=sim_engine)

    def simulate(lanes: List[Dict[str, int]]) -> List[Dict[str, int]]:
        results = []
        for inputs in lanes:
            sim.reset()
            for _ in range(cycles):
                outputs = sim.step(inputs)
            results.append(outputs)
        return results

    return simulate


def cosim_lanes(artifact: IsaxArtifact, name: str, trials: Sequence[Trial],
                sim_engine: str = "auto") -> List[CosimResult]:
    """Co-simulate one functionality on every trial, one lane per trial.

    The golden model runs on a copy of each trial's state.  The RTL
    simulates every lane once, then up to three read-feedback rounds
    re-simulate only the lanes whose read data changed."""
    functionality = artifact.artifact(name)
    module = functionality.module
    isa = artifact.isa
    is_instr = functionality.kind == "instruction"
    interp = CoreDSLInterpreter(isa)
    effects: List[List[Effect]] = []
    lanes: List[Dict[str, int]] = []
    for state, fields in trials:
        golden_state = _fork_state(state)
        if is_instr:
            word = isa.instructions[name].encoding.encode(fields)
            effects.append(
                interp.execute_instruction(golden_state, name, word))
        else:
            word = 0
            effects.append(interp.execute_always(golden_state, name))
        lanes.append(_initial_inputs(module, state, fields or {}, word))

    # An instruction runs until its pipeline drains; an always-block is
    # one combinational cycle.
    cycles = functionality.schedule.makespan + 2 if is_instr else 1
    simulate = _lane_simulator(module, cycles, sim_engine)
    outputs = simulate(lanes)
    pending = list(range(len(lanes)))
    for _round in range(3):
        pending = [lane for lane in pending
                   if _feed_reads(module, trials[lane][0], lanes[lane],
                                  outputs[lane])]
        if not pending:
            break
        resimulated = simulate([lanes[lane] for lane in pending])
        for lane, lane_outputs in zip(pending, resimulated):
            outputs[lane] = lane_outputs
    return [
        _compare(functionality, lane_effects, lane_outputs, inputs)
        for lane_effects, lane_outputs, inputs
        in zip(effects, outputs, lanes)
    ]


def cosim_instruction(artifact: IsaxArtifact, name: str, state: ArchState,
                      field_values: Dict[str, int],
                      sim_engine: str = "auto") -> CosimResult:
    """Co-simulate one instruction against a *copy* of ``state``."""
    return cosim_lanes(artifact, name, [(state, field_values)],
                       sim_engine)[0]


def cosim_always(artifact: IsaxArtifact, name: str,
                 state: ArchState, sim_engine: str = "auto") -> CosimResult:
    """Co-simulate one always-block evaluation (single combinational
    cycle)."""
    return cosim_lanes(artifact, name, [(state, None)], sim_engine)[0]


def _compare(functionality: FunctionalityArtifact, effects: List[Effect],
             outputs: Dict[str, int],
             inputs: Dict[str, int]) -> CosimResult:
    mismatches: List[Mismatch] = []

    def check(kind: str, expect_value: Optional[int], data_prefix: str,
              valid_prefix: str, width: int = 32) -> None:
        valid = _find_output(outputs, valid_prefix)
        data = _find_output(outputs, data_prefix)
        if expect_value is None:
            if valid not in (None, 0):
                mismatches.append(Mismatch(
                    kind, f"RTL asserts {valid_prefix}* but the golden "
                          "model performs no such write"))
            return
        if data is None:
            mismatches.append(Mismatch(
                kind, f"module has no {data_prefix}* output"))
            return
        if valid == 0:
            mismatches.append(Mismatch(
                kind, f"golden model writes {expect_value:#x} but the RTL "
                      f"valid bit is low"))
            return
        if to_unsigned(data, width) != to_unsigned(expect_value, width):
            mismatches.append(Mismatch(
                kind, f"value mismatch: rtl={data:#x} "
                      f"golden={to_unsigned(expect_value, width):#x}"))

    gpr = next((e for e in effects if e.kind == "gpr"), None)
    check("gpr", gpr.value if gpr else None, "wrrd_data", "wrrd_valid")

    pc = next((e for e in effects if e.kind == "pc"), None)
    check("pc", pc.value if pc else None, "wrpc_data", "wrpc_valid")

    mem = next((e for e in effects if e.kind == "mem"), None)
    if mem is not None:
        check("mem.data", mem.value, "mem_wdata", "mem_wvalid",
              width=mem.width)
        waddr = _find_output(outputs, "mem_waddr")
        if waddr is not None and waddr != mem.index:
            mismatches.append(Mismatch(
                "mem.addr", f"rtl={waddr:#x} golden={mem.index:#x}"))
    else:
        check("mem", None, "mem_wdata", "mem_wvalid")

    for effect in effects:
        if effect.kind != "custom":
            continue
        check(f"custom.{effect.name}", effect.value,
              f"wr{effect.name}_data", f"wr{effect.name}_valid",
              width=effect.width)

    return CosimResult(
        functionality=functionality.name,
        matches=not mismatches,
        mismatches=mismatches,
        golden_effects=effects,
        rtl_outputs=outputs,
        rtl_inputs=dict(inputs),
    )


@dataclasses.dataclass
class VerificationReport:
    """Aggregate outcome of :func:`verify_artifact`."""

    artifact: str
    core: str
    trials: int
    failures: List[CosimResult]
    #: RNG seed the trials were drawn from; re-running with the same seed
    #: (and trial count) reproduces every stimulus exactly.
    seed: int = 0
    #: VCD waveforms dumped for failing trials (when ``vcd_dir`` was given).
    vcd_paths: List[str] = dataclasses.field(default_factory=list)
    #: Always 0: the lane-parallel engine that counted its trials here is
    #: gone.  Kept for the benchmark, which reads it.
    batched_trials: int = 0
    #: Always 0: every trial runs as a lane, read feedback included.  Kept
    #: for the benchmark, which reads it.
    scalar_fallbacks: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "PASS" if self.passed else f"FAIL ({len(self.failures)})"
        return (f"co-simulation of '{self.artifact}' on {self.core}: "
                f"{self.trials} trials, seed={self.seed}, {status}")


def _dump_failure_vcd(functionality: FunctionalityArtifact,
                      result: CosimResult, vcd_dir: str, artifact_name: str,
                      core_name: str, seed: int, trial: int) -> str:
    """Trace the failing stimulus through the module and save a VCD next to
    the report, so the waveform is not discarded with the trial.  Traces
    are byte-identical across engines, so the default scalar engine
    records every one."""
    from repro.sim.vcd import VCDTracer  # deferred: keeps cosim import-light

    tracer = VCDTracer(functionality.module)
    depth = functionality.schedule.makespan + 2
    for _ in range(depth):
        tracer.step(result.rtl_inputs)
    os.makedirs(vcd_dir, exist_ok=True)
    path = os.path.join(
        vcd_dir,
        f"{artifact_name}-{core_name}-{result.functionality}"
        f"-seed{seed}-trial{trial}.vcd",
    )
    tracer.save(path)
    return path


def verify_artifact(artifact: IsaxArtifact, trials: int = 25,
                    seed: int = 0,
                    vcd_dir: Optional[str] = None,
                    sim_engine: str = "auto") -> VerificationReport:
    """Randomized co-simulation of every functionality in an artifact.

    ``seed`` is recorded in the report (and its printed line) so any
    mismatch is reproducible from the output alone; with ``vcd_dir`` set,
    each failing trial's waveform is saved as a VCD file there instead of
    being discarded.  ``sim_engine`` selects the RTL simulation engine
    (``auto``/``interp``/``compiled``, or ``batched``, the retired name of
    ``compiled``; see :mod:`repro.sim.compile`).  Each functionality's
    trials run as the lanes of one :func:`cosim_lanes` call.  Stimuli are
    drawn by :func:`draw_trials` in the same RNG order for every engine,
    so a seed reproduces the exact trial set regardless of engine.
    """
    rng = random.Random(seed)
    failures: List[CosimResult] = []
    vcd_paths: List[str] = []
    total = 0
    for name, functionality in artifact.functionalities.items():
        results = cosim_lanes(artifact, name,
                              draw_trials(artifact, name, trials, rng),
                              sim_engine)
        for result in results:
            total += 1
            if not result.matches:
                failures.append(result)
                if vcd_dir is not None:
                    vcd_paths.append(_dump_failure_vcd(
                        functionality, result, vcd_dir, artifact.name,
                        artifact.core_name, seed, total))
    return VerificationReport(
        artifact=artifact.name,
        core=artifact.core_name,
        trials=total,
        failures=failures,
        seed=seed,
        vcd_paths=vcd_paths,
    )
