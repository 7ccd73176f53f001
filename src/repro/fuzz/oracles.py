"""The per-program differential oracle stack.

The oracles, run per core (paper Sections 4.4 and 5.3 provide the first
two as fixed-corpus spot checks; here they become programmable):

* **schedule** — re-solve each functionality's scheduling problem from
  the fastpath compile with the Figure 7 MILP
  (:func:`repro.scheduling.ilp.solve_milp`) and assert both reach the
  same weighted objective (start times plus width-weighted
  pipeline-register lifetimes).  Alternative optima make raw start-time
  vectors incomparable, so the objective — the quantity both engines
  minimize — is the equality that must hold.  A MILP that cannot solve
  a problem the fast path solved fails this oracle too.
* **cosim** — run :func:`repro.sim.cosim.verify_artifact`, executing the
  CoreDSL interpreter against the generated SystemVerilog netlist on
  random stimulus.
* **determinism** — compile the program a second time from a
  ``copy.copy`` of its elaborated ISA, which lints, lowers and optimizes
  from scratch instead of reusing the shared front end, and require
  SystemVerilog and config YAML byte-identical to the first compile on
  every core (any iteration-order leak in lowering, scheduling or hwgen
  shows up here first).  Its failures are listed after the other
  oracles'.
* **batchsim** — the interpreting and compiled RTL engines
  (:mod:`repro.sim.rtl_sim`, :mod:`repro.sim.compile`) must produce
  identical output traces, register counts and final register state on
  every generated module (``crosscheck_engines``).  The name outlives the
  lane-parallel engine this oracle also checked; the ``cosim`` oracle is the
  one that compares an engine with the golden model.  The retired name
  ``simengine`` is accepted as an alias for ``batchsim``, so old corpora
  replay.
* **irverify** — run the IR verifier (:mod:`repro.analysis.verifier`) over
  every functionality's lil graph, solved schedule and hardware module;
  any error-severity ``IVxxx`` finding on a valid program is a
  lowering/scheduling bug (warning-severity range notes such as
  IV008/IV009 are legitimate on generated programs and don't fail the
  oracle).
* **rangesound** — run the abstract-interpretation engine
  (:mod:`repro.analysis.absint`) over every generated module and run
  random stimulus on the ``interp`` engine of the RTL simulator: every
  concrete SSA value must lie inside its predicted interval and respect
  its known-bits masks.  A violation is an unsound transfer function —
  the one bug class that would silently corrupt the linter, the verifier
  and the optimizer at once.
* **optequiv** (opt-in via ``oracles``) — recompile at ``-O2`` and require
  the optimized artifact's architectural trace
  (:func:`repro.opt.equiv.architectural_trace`) to be byte-identical to the
  unoptimized one: the optimizer must never change observable behaviour.
* **discover** (opt-in via ``oracles``) — smoke the automatic ISAX
  discovery pipeline (:mod:`repro.discover`): a random kernel seeded from
  the fuzzed program's digest is mined, and every emitted candidate must
  compile, lint clean, verify its IR and stay ``-O2``-trace-equivalent.
  The fuzzed CoreDSL source only supplies entropy here; the subject under
  test is the kernel-to-CoreDSL emitter and its toolchain contract.

Elaboration errors (parse/typecheck) are *not* oracle failures: generated
programs are well-typed by construction, so an elaboration error is a
generator bug and propagates as :class:`CoreDSLError` to the caller.
Errors raised later — lowering legality, scheduler infeasibility — are
reported as ``kind="compile"`` failures.
"""

from __future__ import annotations

import copy
import dataclasses
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.verifier import verify_artifact_ir
from repro.frontend.elaboration import elaborate
from repro.hls.longnail import compile_isax
from repro.scheduling import ilp
from repro.scheduling.problem import ScheduleError
from repro.sim.compile import crosscheck_engines
from repro.sim.cosim import verify_artifact

if TYPE_CHECKING:                              # imports used only in hints
    from repro.dialects.hw import HWModule
    from repro.hls.longnail import IsaxArtifact
    from repro.ir.core import Value

#: Cores every program is checked against by default (the paper's four
#: evaluation cores; CVA5 stays opt-in, as everywhere else in the repo).
DEFAULT_CORES: Tuple[str, ...] = ("ORCA", "Piccolo", "PicoRV32", "VexRiscv")

#: The classic oracle stack run when no explicit selection is given.
DEFAULT_ORACLES: Tuple[str, ...] = (
    "compile", "schedule", "irverify", "cosim", "batchsim",
    "rangesound", "determinism",
)

#: Every oracle kind, including the opt-in optimizer-equivalence and
#: ISAX-discovery smoke checks.
ALL_ORACLES: Tuple[str, ...] = DEFAULT_ORACLES + ("optequiv", "discover")

#: Retired oracle names -> the oracle that now covers them.
ORACLE_ALIASES: Dict[str, str] = {"simengine": "batchsim"}


def _resolve_oracles(oracles: Optional[Sequence[str]]) -> Tuple[str, ...]:
    if not oracles:
        return DEFAULT_ORACLES
    if "all" in oracles:
        return ALL_ORACLES
    wanted = {ORACLE_ALIASES.get(kind, kind) for kind in oracles}
    unknown = sorted(wanted - set(ALL_ORACLES))
    if unknown:
        raise ValueError(
            f"unknown oracle kinds {unknown}; available: "
            + ", ".join(ALL_ORACLES + tuple(ORACLE_ALIASES)) + ", all")
    # Keep canonical order regardless of how the flags were given.
    return tuple(k for k in ALL_ORACLES if k in wanted)


@dataclasses.dataclass
class OracleFailure:
    """One oracle violation; picklable and JSON-able."""

    kind: str  # "compile" | "schedule" | "cosim" | "determinism"
               # | "batchsim" | "rangesound" | "irverify"
               # | "optequiv" | "discover"
    core: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}/{self.core}] {self.detail}"


@dataclasses.dataclass
class OracleReport:
    """Aggregate outcome of :func:`run_oracles` for one program."""

    cores: Tuple[str, ...]
    failures: List[OracleFailure]
    functionalities: int = 0    # schedules cross-checked (summed over cores)
    trials: int = 0             # cosim trials per core
    cosim_seed: int = 0
    vcd_paths: List[str] = dataclasses.field(default_factory=list)
    oracles: Tuple[str, ...] = DEFAULT_ORACLES

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted({f.kind for f in self.failures}))

    def __str__(self) -> str:
        status = ("PASS" if self.ok
                  else f"FAIL ({', '.join(self.kinds)})")
        return (f"oracles on {len(self.cores)} cores: "
                f"{self.functionalities} schedules cross-checked, "
                f"{self.trials} cosim trials/core "
                f"(seed={self.cosim_seed}), {status}")


def check_range_soundness(module: "HWModule", cycles: int = 16,
                          seed: int = 0) -> Optional[str]:
    """Concretely validate the abstract-interpretation engine on a module.

    Replays ``cycles`` of random stimulus through the reference
    interpreter engine of :class:`repro.sim.rtl_sim.RTLSimulator` and
    checks every combinational SSA value of each cycle, in schedule
    order, against its predicted :class:`~repro.analysis.absint.AbsVal`
    (inputs and registers are environment values: top).  Returns ``None``
    when sound, else a description of the first mismatch.  Shared by the
    ``rangesound`` fuzz oracle and the Hypothesis soundness suite.
    """
    from repro.analysis.absint import analyze_module
    from repro.sim.compile import random_stimulus
    from repro.sim.rtl_sim import RTLSimulator

    facts = analyze_module(module)
    sim = RTLSimulator(module, engine="interp")
    for cycle, vector in enumerate(random_stimulus(module, cycles, seed)):
        values: Dict[Value, int] = {}
        sim.step(vector, values)
        # The interpreter fills ``values`` in schedule order.
        for value, concrete in values.items():
            op = value.owner
            if op.name in ("hw.input", "seq.compreg"):
                continue
            fact = facts.get(value)
            if not fact.contains(concrete):
                return (f"cycle {cycle}: '{op.name}' in module "
                        f"'{module.name}' produced {concrete:#x}, outside "
                        f"its predicted {fact!r}")
    return None


def _discover_oracle(source: str, core: str, trials: int, cosim_seed: int,
                     sim_engine: str,
                     max_candidates: int = 3) -> List[OracleFailure]:
    """Smoke the discovery pipeline against one core.

    The fuzzed program's content digest seeds
    :func:`repro.discover.kernel.random_kernel`, so every corpus entry
    exercises a different mined subgraph while staying reproducible from
    ``(source, cosim_seed)`` alone.  Each emitted candidate must compile,
    lint without errors, pass the IR verifier, and keep its ``-O2``
    architectural trace identical to ``-O0``.
    """
    import hashlib

    from repro.discover.emit import EmitError, emit_candidate
    from repro.discover.enumerate import enumerate_candidates
    from repro.discover.kernel import resolve_kernel
    from repro.opt.equiv import compare_artifacts

    entropy = int(hashlib.sha256(source.encode()).hexdigest()[:8], 16)
    seed = (entropy ^ cosim_seed) % 100_000
    kernel = resolve_kernel("random", seed=seed)

    failures: List[OracleFailure] = []
    candidates = enumerate_candidates(kernel)[:max_candidates]
    if not candidates:
        return [OracleFailure(
            kind="discover", core=core,
            detail=f"random kernel (seed={seed}) yielded no candidates")]
    for candidate in candidates:
        label = candidate.label()
        try:
            emitted = emit_candidate(kernel, candidate)
        except EmitError as exc:
            failures.append(OracleFailure(
                kind="discover", core=core,
                detail=f"{label}: emit failed: {exc}"))
            continue
        try:
            plain = compile_isax(emitted.source, core, engine="fastpath",
                                 schedule_cache=False)
            optimized = compile_isax(emitted.source, core,
                                     engine="fastpath",
                                     schedule_cache=False, opt=2)
        except Exception as exc:
            failures.append(OracleFailure(
                kind="discover", core=core,
                detail=f"{label}: compile failed: "
                       f"{type(exc).__name__}: {exc}"))
            continue
        lint_errors = [d for d in plain.diagnostics
                       if getattr(d, "severity", "") == "error"]
        if lint_errors:
            failures.append(OracleFailure(
                kind="discover", core=core,
                detail=f"{label}: lint: {lint_errors[0]}"))
        for diag in verify_artifact_ir(plain):
            if not diag.is_error:
                continue
            failures.append(OracleFailure(
                kind="discover", core=core,
                detail=f"{label}: {diag.render().splitlines()[0]}"))
        mismatch = compare_artifacts(
            plain, optimized, trials=max(2, trials // 2),
            seed=cosim_seed, sim_engine=sim_engine)
        if mismatch is not None:
            failures.append(OracleFailure(
                kind="discover", core=core, detail=f"{label}: {mismatch}"))
    return failures


def run_oracles(source: str,
                cores: Optional[Sequence[str]] = None,
                trials: int = 8,
                cosim_seed: int = 0,
                vcd_dir: Optional[str] = None,
                sim_engine: str = "auto",
                oracles: Optional[Sequence[str]] = None) -> OracleReport:
    """Run the oracle stack on one CoreDSL source string.

    ``oracles`` selects which oracles run (default:
    :data:`DEFAULT_ORACLES`; the literal ``"all"`` enables everything,
    including the opt-in ``optequiv`` optimizer-equivalence check).
    Compile failures are always reported — a program the toolchain cannot
    compile fails every selection.

    Raises :class:`repro.utils.diagnostics.CoreDSLError` if the program
    does not elaborate (generator-validity errors are the caller's
    problem, not an oracle verdict).
    """
    cores = tuple(cores) if cores else DEFAULT_CORES
    selected = _resolve_oracles(oracles)
    # Elaborate once, standalone: separates "program is invalid" (raises)
    # from "toolchain failed on a valid program" (compile failure below).
    isa = elaborate(source)

    failures: List[OracleFailure] = []
    vcd_paths: List[str] = []
    functionalities = 0
    compiled: Dict[str, "IsaxArtifact"] = {}
    for core in cores:
        try:
            fast = compile_isax(source, core, engine="fastpath",
                                schedule_cache=False)
        except Exception as exc:  # lowering legality, infeasible schedule
            failures.append(OracleFailure(
                kind="compile", core=core,
                detail=f"{type(exc).__name__}: {exc}"))
            continue
        compiled[core] = fast

        # Oracle 1: the MILP re-solve of each fastpath problem reaches the
        # fast path's objective.
        if "schedule" in selected:
            for name, functionality in fast.functionalities.items():
                functionalities += 1
                problem = functionality.schedule.problem
                w_fast = ilp.weighted_objective_value(problem)
                try:
                    w_milp = ilp.weighted_objective_of(
                        problem, ilp.solve_milp(problem))
                except ScheduleError as exc:
                    failures.append(OracleFailure(
                        kind="schedule", core=core,
                        detail=f"{name}: milp re-solve failed: {exc}"))
                    continue
                if abs(w_fast - w_milp) > 1e-6:
                    failures.append(OracleFailure(
                        kind="schedule", core=core,
                        detail=(f"{name}: fastpath objective {w_fast} != "
                                f"milp objective {w_milp}")))

        # Oracle 2: every IR invariant holds on the compiled artifact.
        # Warning-severity range notes (IV008/IV009) are legitimate on
        # generated programs; only structural errors fail the oracle.
        if "irverify" in selected:
            for diag in verify_artifact_ir(fast):
                if not diag.is_error:
                    continue
                failures.append(OracleFailure(
                    kind="irverify", core=core,
                    detail=diag.render().splitlines()[0]))

        # Oracle 3: interpreter vs RTL co-simulation.
        if "cosim" in selected:
            cosim_report = verify_artifact(
                fast, trials=trials, seed=cosim_seed, vcd_dir=vcd_dir,
                sim_engine=sim_engine)
            vcd_paths.extend(cosim_report.vcd_paths)
            for result in cosim_report.failures:
                failures.append(OracleFailure(
                    kind="cosim", core=core, detail=str(result)))

        # Oracle 4: the interpreting and compiled RTL engines agree cycle
        # for cycle on random stimulus.
        if "batchsim" in selected:
            for name, functionality in fast.functionalities.items():
                mismatch = crosscheck_engines(
                    functionality.module, cycles=max(trials, 8),
                    seed=cosim_seed, engines=("interp", "compiled"))
                if mismatch is not None:
                    failures.append(OracleFailure(
                        kind="batchsim", core=core,
                        detail=f"{name}: {mismatch}"))

        # Oracle: abstract interpretation is sound — every concretely
        # simulated value lies inside its predicted interval/known bits.
        if "rangesound" in selected:
            for name, functionality in fast.functionalities.items():
                mismatch = check_range_soundness(
                    functionality.module, cycles=max(trials, 8),
                    seed=cosim_seed)
                if mismatch is not None:
                    failures.append(OracleFailure(
                        kind="rangesound", core=core,
                        detail=f"{name}: {mismatch}"))

        # Oracle 5 (opt-in): the -O2 optimizer preserves the architectural
        # trace bit-for-bit.
        if "optequiv" in selected:
            from repro.opt.equiv import compare_artifacts

            try:
                optimized = compile_isax(source, core, engine="fastpath",
                                         schedule_cache=False, opt=2)
            except Exception as exc:
                failures.append(OracleFailure(
                    kind="optequiv", core=core,
                    detail=f"-O2 compile failed: "
                           f"{type(exc).__name__}: {exc}"))
            else:
                mismatch = compare_artifacts(
                    fast, optimized, trials=max(2, trials // 2),
                    seed=cosim_seed, sim_engine=sim_engine)
                if mismatch is not None:
                    failures.append(OracleFailure(
                        kind="optequiv", core=core, detail=mismatch))

        # Oracle 6 (opt-in): ISAX discovery smoke — mined candidates from
        # a seeded random kernel must clear the toolchain gates.
        if "discover" in selected:
            failures.extend(_discover_oracle(
                source, core, trials=trials, cosim_seed=cosim_seed,
                sim_engine=sim_engine))

    # Oracle 7: byte-identical artifacts from a second, independent run.
    # A copy of the ISA is a new front-end memo key, so it lints, lowers
    # and optimizes from scratch once and is compared on every core.
    if "determinism" in selected and compiled:
        fresh = copy.copy(isa)
        for core, fast in compiled.items():
            again = compile_isax(fresh, core, engine="fastpath",
                                 schedule_cache=False)
            if again.verilog != fast.verilog:
                failures.append(OracleFailure(
                    kind="determinism", core=core,
                    detail="SystemVerilog differs between two "
                           "identical runs"))
            if again.config_yaml != fast.config_yaml:
                failures.append(OracleFailure(
                    kind="determinism", core=core,
                    detail="config YAML differs between two identical runs"))

    return OracleReport(cores=cores, failures=failures,
                        functionalities=functionalities, trials=trials,
                        cosim_seed=cosim_seed, vcd_paths=vcd_paths,
                        oracles=selected)
