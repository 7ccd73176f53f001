"""The IR verifier (Tier B of the static-analysis subsystem).

Checks the invariants the lowering pipeline promises but nothing used to
enforce end-to-end: SSA scoping and block order (the one evaluation
order every pass walks), per-op structural invariants, constants inside
their type's range, acyclic combinational dataflow, schedule legality
(precedence and datasheet windows) and module port wiring.
Findings are the same structured :class:`~repro.utils.diagnostics.Diagnostic`
records the frontend linter emits, with ``IVxxx`` codes; structural
findings (IV001-IV007, IV010) are errors — a violated invariant means a
later stage (or the generated RTL) is silently wrong — while the range
checks (IV008-IV009, proved by :mod:`repro.analysis.absint`) are
warnings: the behaviour is well-defined, just almost certainly
unintended.

========  ========================  =======================================
code      check                     invariant
========  ========================  =======================================
IV001     ssa-def-before-use        operands defined earlier in the block
IV002     op-invariant              per-op structural verifier (widths, attrs)
IV003     constant-range            constant/ROM values fit the element width
IV004     comb-cycle                no comb cycle; registers break loops
IV005     schedule-precedence       start times respect dependence edges
IV006     schedule-window           start times inside [earliest, latest]
IV007     module-ports              every declared output port is driven
IV008     shift-always-flushed      non-const shift amounts can stay < width
IV009     rom-index-out-of-range    some ROM index can land inside the table
IV010     use-list                  use lists equal the operand slots read
========  ========================  =======================================

The pipeline (:func:`repro.hls.longnail.compile_isax`) runs these between
phases when ``REPRO_IR_VERIFY=1`` (see :func:`ir_verify_enabled`), the
fuzz oracle stack always runs them (oracle kind ``irverify``), and
``repro-longnail lint`` runs them on demand.
"""

from __future__ import annotations

import collections
import dataclasses
import os
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Optional, Sequence)

from repro.dialects import comb
from repro.ir.core import Graph, IRError, Operation, Value
from repro.utils.bits import mask
from repro.utils.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:                              # imports used only in hints
    from repro.analysis.absint import RangeFacts
    from repro.dialects.hw import HWModule
    from repro.hls.longnail import IsaxArtifact
    from repro.scheduling.scheduler import ScheduleResult


@dataclasses.dataclass(frozen=True)
class IRCheck:
    """Metadata for one verifier check (mirrors :class:`LintRule`).

    Structural invariants (IV001-IV007, IV010) are errors — a violation
    means a later stage is silently wrong.  Range findings (IV008-IV009)
    prove a *well-defined but almost certainly unintended* behaviour from the
    abstract-interpretation engine, so they carry warning severity and
    never fail :func:`require_valid` or the fuzz ``irverify`` oracle.
    """

    code: str
    name: str
    description: str
    severity: Severity = Severity.ERROR

    def diagnostic(self, message: str) -> Diagnostic:
        return Diagnostic(self.code, self.severity, message, rule=self.name)


#: Registry: code -> check metadata (consumed by docs and the CLI).
IR_CHECKS: Dict[str, IRCheck] = {
    check.code: check
    for check in (
        IRCheck("IV001", "ssa-def-before-use",
                "Every operand of every operation must be a block argument "
                "or be produced by an earlier operation of the same graph; "
                "a value imported from another graph breaks SSA scoping, "
                "and a value read before its definition breaks the block "
                "order every pass walks. A register's data and enable are "
                "sampled at the clock edge and may be defined later."),
        IRCheck("IV002", "op-invariant",
                "Each operation must satisfy its registered structural "
                "verifier: operand/result width consistency, required "
                "attributes, operand counts."),
        IRCheck("IV003", "constant-range",
                "'comb.constant' values must fit the result width and "
                "'lil.rom' initializer values must fit the ROM's element "
                "width; out-of-range constants silently wrap in RTL."),
        IRCheck("IV004", "comb-cycle",
                "Dataflow graphs must be acyclic; a combinational cycle "
                "is unschedulable and unsynthesizable. A register breaks "
                "a loop."),
        IRCheck("IV005", "schedule-precedence",
                "A solved schedule must give every operation a start time "
                "and respect every dependence edge: "
                "start(i) + latency(i) [+1 for chain breakers] <= start(j)."),
        IRCheck("IV006", "schedule-window",
                "Every scheduled operation must start inside the "
                "[earliest, latest] window of its linked operator type "
                "(the virtual-datasheet interface constraints)."),
        IRCheck("IV007", "module-ports",
                "Every declared output port of a hardware module must be "
                "driven by exactly one 'hw.output'; undriven ports elide "
                "logic from the RTL."),
        IRCheck("IV008", "shift-always-flushed",
                "A non-constant shift amount whose proven interval never "
                "drops below the operand width makes the shift always "
                "produce its flush value; the data operand is dead.",
                severity=Severity.WARNING),
        IRCheck("IV009", "rom-index-out-of-range",
                "A ROM read whose proven index interval lies entirely "
                "beyond the table reads the out-of-range default (0) on "
                "every cycle; the table contents are dead.",
                severity=Severity.WARNING),
        IRCheck("IV010", "use-list",
                "Each value's use list must hold exactly the operand slots "
                "of the graph's operations that read it, one entry per "
                "slot. A stale or missing entry makes the single-use "
                "rewrites misfire, lets an op with readers be erased, and "
                "hides readers from replace-all-uses-with."),
    )
}


class IRVerifyError(IRError):
    """Raised by :func:`require_valid` when verification found errors.

    Carries the full diagnostic list so callers (pipeline hooks, fuzz
    oracles, the CLI) can render precise findings instead of one string.
    """

    def __init__(self, stage: str, diagnostics: Sequence[Diagnostic]):
        self.stage = stage
        self.diagnostics = list(diagnostics)
        lines = [f"IR verification failed after '{stage}' "
                 f"({len(self.diagnostics)} finding"
                 f"{'s' if len(self.diagnostics) != 1 else ''}):"]
        lines.extend("  " + d.render().splitlines()[0]
                     for d in self.diagnostics)
        super().__init__("\n".join(lines))


def ir_verify_enabled() -> bool:
    """True when ``REPRO_IR_VERIFY=1``: the pipeline verifies the IR after
    every lowering phase (off by default; always on inside fuzz oracles)."""
    return os.environ.get("REPRO_IR_VERIFY", "") == "1"


def require_valid(stage: str, diagnostics: Sequence[Diagnostic]) -> None:
    """Raise :class:`IRVerifyError` if any diagnostic is an error."""
    errors = [d for d in diagnostics if d.is_error]
    if errors:
        raise IRVerifyError(stage, errors)


# ---------------------------------------------------------------------------
# Graph-level checks (IV001-IV004, IV010)
# ---------------------------------------------------------------------------

def _op_label(graph: Graph, op: Operation, index: int) -> str:
    return f"'{op.name}' (#{index} in graph '{graph.name}')"


def _check_ssa(graph: Graph) -> Iterator[Diagnostic]:
    """IV001, and IV010 from the operand slots the same walk reads."""
    check = IR_CHECKS["IV001"]
    operations = graph.operations
    position = {op: index for index, op in enumerate(operations)}
    block_args = set(map(id, graph.block.arguments))
    #: value -> the ops reading it, one entry per operand slot.
    readers: Dict[Value, List[Operation]] = {}
    #: This graph's values whose use lists are not empty.
    used = [arg for arg in graph.block.arguments if arg.uses]
    for index, op in enumerate(operations):
        for result in op.results:
            if result.uses:
                used.append(result)
        # A register samples its data and enable at the clock edge, so a
        # feedback loop through it may read a value defined after it.
        sampled = op.name == "seq.compreg"
        for operand_index, operand in enumerate(op.operands):
            slots = readers.get(operand)
            if slots is None:
                readers[operand] = [op]
            else:
                slots.append(op)
            if operand.owner is None:
                if id(operand) not in block_args:
                    yield check.diagnostic(
                        f"operand {operand_index} of "
                        f"{_op_label(graph, op, index)} is a block argument "
                        "of a different block")
                continue
            defined = position.get(operand.owner)
            if defined is None:
                yield check.diagnostic(
                    f"operand {operand_index} of "
                    f"{_op_label(graph, op, index)} is defined by "
                    f"'{operand.owner.name}' outside this graph")
            elif defined >= index and not sampled:
                yield check.diagnostic(
                    f"operand {operand_index} of "
                    f"{_op_label(graph, op, index)} is defined later, by "
                    f"'{operand.owner.name}' (#{defined})")
    for value in used:
        expected = readers.pop(value, [])
        if value.uses != expected:
            yield from _check_use_list(graph, position, value, expected)
    # Read by ops of this graph, yet listing none of them.  IV001 has
    # reported the foreign values among these.
    for value, expected in readers.items():
        owner = value.owner
        if (owner in position if owner is not None
                else id(value) in block_args):
            yield from _check_use_list(graph, position, value, expected)


def _check_use_list(graph: Graph, position: Dict[Operation, int],
                    value: Value, expected: List[Operation]
                    ) -> Iterator[Diagnostic]:
    """IV010 for one value whose use list differs from ``expected`` at
    least in order: a finding if it differs as a multiset."""
    listed = collections.Counter(value.uses)
    reading = collections.Counter(expected)
    if listed == reading:
        return

    def label(op: Operation) -> str:
        index = position.get(op)
        if index is None:
            return f"'{op.name}' (not in graph '{graph.name}')"
        return _op_label(graph, op, index)

    owner = value.owner
    if owner is None:
        subject = f"block argument {value.index} of graph '{graph.name}'"
    else:
        subject = f"result {value.index} of {label(owner)}"
    problems = [f"{count} stale entr{'y' if count == 1 else 'ies'} for "
                f"{label(op)}" for op, count in (listed - reading).items()]
    problems.extend(
        f"{count} slot{'' if count == 1 else 's'} of {label(op)} "
        "missing" for op, count in (reading - listed).items())
    yield IR_CHECKS["IV010"].diagnostic(
        f"the use list of {subject} does not match the operand slots "
        f"that read it: {'; '.join(problems)}")


def _check_op_invariants(graph: Graph) -> Iterator[Diagnostic]:
    op_check = IR_CHECKS["IV002"]
    const_check = IR_CHECKS["IV003"]
    for index, op in enumerate(graph.operations):
        # Constants get the dedicated, more precise IV003 wording; the
        # generic op verifier would report the same defect under IV002.
        if op.name == "comb.constant":
            value = op.attr("value")
            width = op.result.width
            if value is None or value < 0 or value > mask(width):
                yield const_check.diagnostic(
                    f"{_op_label(graph, op, index)}: value {value!r} out of "
                    f"range for a {width}-bit constant "
                    f"(valid range [0, {mask(width)}])")
            continue
        if op.name == "lil.rom":
            yield from _check_rom(graph, op, index)
        try:
            op.verify()
        except IRError as err:
            yield op_check.diagnostic(
                f"{_op_label(graph, op, index)}: {err}")


def _check_rom(graph: Graph, op: Operation, index: int
               ) -> Iterator[Diagnostic]:
    check = IR_CHECKS["IV003"]
    count = op.attr("count") or 1
    element_width = op.result.width // count
    for position, value in enumerate(op.attr("values") or []):
        if value < 0 or value > mask(element_width):
            yield check.diagnostic(
                f"{_op_label(graph, op, index)}: ROM value {value} at "
                f"index {position} out of range for the {element_width}-bit "
                f"element type of '{op.attr('reg')}'")


def _check_acyclic(graph: Graph) -> Iterator[Diagnostic]:
    check = IR_CHECKS["IV004"]
    try:
        graph.topological_order()
    except IRError as err:
        yield check.diagnostic(str(err))
    except RecursionError:
        yield check.diagnostic(
            f"graph '{graph.name}' is too deep to order; almost certainly "
            "cyclic")


def _is_constant_value(value: Value) -> bool:
    owner = value.owner
    return owner is not None and owner.name == "comb.constant"


def _check_ranges(graph: Graph, facts: "RangeFacts") -> Iterator[Diagnostic]:
    """Range findings proved by the abstract-interpretation engine
    (IV008-IV009), read from ``graph``'s ``facts``."""
    shift_check = IR_CHECKS["IV008"]
    rom_check = IR_CHECKS["IV009"]
    for index, op in enumerate(graph.operations):
        if op.name in comb.SHIFT_OPS and len(op.operands) == 2:
            amount = op.operands[1]
            width = op.operands[0].width
            # Constant amounts are LN002 / constant-folding territory;
            # this check proves dead *dynamic* shifts.
            if not _is_constant_value(amount):
                fact = facts.get(amount)
                if fact.lo >= width:
                    flush = ("a sign fill" if op.name == "comb.shrs"
                             else "0")
                    yield shift_check.diagnostic(
                        f"{_op_label(graph, op, index)}: the shift amount "
                        f"is proven to stay in [{fact.lo}, {fact.hi}], "
                        f"never below the {width}-bit operand width — the "
                        f"result is always {flush}")
        elif op.name == "comb.rom":
            values = op.attr("values") or []
            fact = facts.get(op.operands[0])
            if values and fact.lo >= len(values):
                yield rom_check.diagnostic(
                    f"{_op_label(graph, op, index)}: the index is proven "
                    f"to stay in [{fact.lo}, {fact.hi}], beyond the "
                    f"{len(values)}-entry table — every read returns 0")


def verify_graph(graph: Graph) -> List[Diagnostic]:
    """Run the structural checks (IV001-IV004, IV010) and the range checks
    (IV008-IV009) over one dataflow graph.

    A graph in block order (IV001) has no combinational cycle, so IV004
    looks for one only after IV001 found an operand out of order.  The
    range checks run only on a graph in block order: the analysis is one
    forward pass, and its slice forwarding follows producers, which would
    not end on a cycle of wiring ops."""
    from repro.analysis.absint import analyze_graph
    return _verify_body(graph, lambda: analyze_graph(graph))


def _verify_body(graph: Graph,
                 analyze: Callable[[], "RangeFacts"]) -> List[Diagnostic]:
    """:func:`verify_graph`, the range facts coming from ``analyze()``."""
    diagnostics = list(_check_ssa(graph))
    ordered = not diagnostics
    diagnostics.extend(_check_op_invariants(graph))
    if ordered:
        diagnostics.extend(_check_ranges(graph, analyze()))
    else:
        diagnostics.extend(_check_acyclic(graph))
    return diagnostics


# ---------------------------------------------------------------------------
# Schedule-level checks (IV005-IV006)
# ---------------------------------------------------------------------------

def verify_schedule(schedule: "ScheduleResult") -> List[Diagnostic]:
    """Check a solved schedule for legality (IV005-IV006).

    This re-validates what :meth:`LongnailProblem.verify` enforces, but as
    structured diagnostics that name every violated edge/window instead of
    stopping at the first."""
    diagnostics: List[Diagnostic] = []
    problem = schedule.problem
    graph_name = schedule.graph.name
    precedence = IR_CHECKS["IV005"]
    window = IR_CHECKS["IV006"]

    missing = [op for op in problem.operations
               if op not in problem.start_time]
    for op in missing:
        diagnostics.append(precedence.diagnostic(
            f"operation {op!r} of graph '{graph_name}' has no start time"))
    if missing:
        return diagnostics

    for dep in problem.dependences:
        i, j = dep.source, dep.target
        finish = problem.start_time[i] + problem.latency(i)
        if dep.is_chain_breaker:
            finish += 1
        if finish > problem.start_time[j]:
            diagnostics.append(precedence.diagnostic(
                f"graph '{graph_name}': {i!r} finishes at stage {finish} "
                f"but its {'chain-broken ' if dep.is_chain_breaker else ''}"
                f"successor {j!r} starts at stage "
                f"{problem.start_time[j]}"))

    for op in problem.operations:
        operator_type = problem.linked_operator_type(op)
        start = problem.start_time[op]
        if not operator_type.earliest <= start <= operator_type.latest:
            diagnostics.append(window.diagnostic(
                f"graph '{graph_name}': {op!r} scheduled at stage {start}, "
                f"outside the [{operator_type.earliest}, "
                f"{operator_type.latest}] window of operator type "
                f"'{operator_type.name}'"))
    return diagnostics


# ---------------------------------------------------------------------------
# Module-level checks (IV007 + body graph)
# ---------------------------------------------------------------------------

def verify_module(module: "HWModule") -> List[Diagnostic]:
    """Check one generated hardware module: the body graph's structural
    invariants plus port wiring (IV007).

    The range checks of a body in block order read the module's memoized
    facts (:func:`~repro.analysis.absint.analyze_module`), which freezes
    the module: it is complete once generated, and later range users
    (the ``rangesound`` fuzz oracle) then hit the memo."""
    from repro.analysis.absint import analyze_module
    diagnostics = _verify_body(module.body, lambda: analyze_module(module))
    check = IR_CHECKS["IV007"]
    declared = {port.name for port in module.outputs}
    driven: Dict[str, int] = {}
    for op in module.body.operations:
        if op.name == "hw.output":
            name = op.attr("name")
            driven[name] = driven.get(name, 0) + 1
    for name in sorted(declared - set(driven)):
        diagnostics.append(check.diagnostic(
            f"module '{module.name}': output port '{name}' is not driven"))
    for name in sorted(set(driven) - declared):
        diagnostics.append(check.diagnostic(
            f"module '{module.name}': 'hw.output' drives undeclared "
            f"port '{name}'"))
    for name, times in sorted(driven.items()):
        if times > 1 and name in declared:
            diagnostics.append(check.diagnostic(
                f"module '{module.name}': output port '{name}' is driven "
                f"{times} times"))
    return diagnostics


# ---------------------------------------------------------------------------
# Whole-artifact entry point
# ---------------------------------------------------------------------------

def verify_artifact_ir(
        artifact: "IsaxArtifact",
        graph_findings: Optional[Dict[Graph, List[Diagnostic]]] = None,
) -> List[Diagnostic]:
    """Verify every functionality of a compiled ISAX: the lil graph, the
    solved schedule and the generated hardware module.

    ``graph_findings``, when given, keeps each lil graph's findings
    across calls: artifacts of one program on several cores share their
    graphs, which are then verified once."""
    diagnostics: List[Diagnostic] = []
    for functionality in artifact.functionalities.values():
        graph = functionality.graph
        if graph_findings is None:
            diagnostics.extend(verify_graph(graph))
        else:
            if graph not in graph_findings:
                graph_findings[graph] = verify_graph(graph)
            diagnostics.extend(graph_findings[graph])
        diagnostics.extend(verify_schedule(functionality.schedule))
        diagnostics.extend(verify_module(functionality.module))
    return diagnostics
