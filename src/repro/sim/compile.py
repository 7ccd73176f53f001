"""Netlist-to-Python compilation for the RTL simulator.

The interpreting engine in :mod:`repro.sim.rtl_sim` re-walks the
``comb``/``seq`` netlist op by op every cycle, paying a dict lookup per SSA
value and a dispatch per operation.  This module removes that per-cycle
overhead: it takes the module's validated block order once and
code-generates a single straight-line Python ``step`` function per module —
one local variable per SSA value, constant-folded width masks, register
state in a flat list, and the outputs dict built in one literal — then
compiles it with :func:`compile`/``exec``.

The generated function has the signature ``step(inputs, regs)`` where
``inputs`` maps input-port names to ints (missing ports read 0) and
``regs`` is the flat mutable register-state list; it returns the
output-port dict observed before the clock edge and updates ``regs`` in
place.  :class:`~repro.sim.rtl_sim.RTLSimulator` wraps it behind the usual
``step``/``run``/``reset``/``output`` API via ``engine="compiled"``.

The compiler and the interpreter share one evaluation order, the module
body's block order, checked once by :func:`cached_schedule`: every
operand of a non-register op is defined earlier in the body, while a
register's data and enable, sampled at the clock edge, may come later
(feedback).  The
compiled code and that order are kept on the :class:`HWModule` by
:meth:`~repro.dialects.hw.HWModule.derived`: repeated simulator
construction over the same netlist — the cosim memory-feedback fixpoint
re-simulates each module up to 4x per trial, and ``verify_artifact`` runs
dozens of trials — re-codegens nothing.  The first use freezes the
module, so an in-place netlist edit after it raises instead of running
stale code, and the compiled code dies with its module.

Semantics are bit-identical to the interpreter by construction (the same
evaluation rules from :mod:`repro.dialects.comb` are either inlined or
called as helpers), and :func:`crosscheck_engines` packages the
engine-equivalence comparison as a reusable differential oracle.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.dialects import comb
from repro.dialects.hw import HWModule
from repro.ir.core import IRError, Operation
from repro.utils.bits import mask

#: Engine selector values accepted by RTLSimulator/cosim/CLI/server.
#: ``batched`` is the retired name of ``compiled``: benchmark configs,
#: server payloads and stored fuzz configs still spell it.
SIM_ENGINES = ("auto", "interp", "compiled", "batched")


def resolve_engine(engine: str) -> str:
    """The engine ``engine`` names; raises :class:`IRError` on a name
    outside :data:`SIM_ENGINES`."""
    if engine not in SIM_ENGINES:
        raise IRError(
            f"unknown sim engine {engine!r}; expected one of {SIM_ENGINES}"
        )
    return "compiled" if engine == "batched" else engine


class CompiledModule:
    """One compiled module: the generated ``step`` plus its metadata."""

    __slots__ = ("source", "step", "register_ops")

    def __init__(self, source: str, step, register_ops: List[Operation]):
        self.source = source
        self.step = step
        self.register_ops = register_ops


# ---------------------------------------------------------------------------
# Per-module memoization
# ---------------------------------------------------------------------------

#: Codegen invocation counters, exposed for the memoization regression
#: tests and benchmarks.
CODEGEN_COUNTS: Dict[str, int] = {"scalar": 0, "schedules": 0}


def _schedule(module: HWModule) -> List[Operation]:
    CODEGEN_COUNTS["schedules"] += 1
    order = list(module.body.operations)
    defined = set()
    for op in order:
        if op.name != "seq.compreg":
            for operand in op.operands:
                if operand.owner is not None and operand.owner not in defined:
                    raise IRError(
                        f"module '{module.name}': '{op.name}' reads a "
                        f"value of '{operand.owner.name}' that is not "
                        "defined before it in the body")
        defined.add(op)
    return order


def cached_schedule(module: HWModule) -> List[Operation]:
    """The body's block order, checked once and kept on the module:
    raises :class:`IRError` at the first op other than a register that
    reads a value not defined before it."""
    return module.derived("sim.schedule", lambda: _schedule(module))


def clear_compile_cache() -> None:
    """Reset the codegen counters (tests and benchmarks); compiled code
    lives on its module, so nothing process-wide is dropped."""
    for key in CODEGEN_COUNTS:
        CODEGEN_COUNTS[key] = 0


def compile_cache_stats() -> Dict[str, int]:
    """Snapshot of the codegen counters (for tests/benchmarks)."""
    return dict(CODEGEN_COUNTS)


def compile_module(module: HWModule) -> CompiledModule:
    """Code-generate and compile the per-cycle ``step`` for ``module``.

    Kept on the module: repeat calls return the same
    :class:`CompiledModule` without re-codegen.  Raises :class:`IRError`
    on operations without a generation rule.
    """
    return module.derived(
        "sim.scalar",
        lambda: _codegen_scalar(module, cached_schedule(module)))


def _codegen_scalar(module: HWModule,
                    order: List[Operation]) -> CompiledModule:
    CODEGEN_COUNTS["scalar"] += 1
    names: Dict[object, str] = {}          # Value -> local variable name
    env: Dict[str, object] = {
        "_divu": comb._eval_divu,
        "_divs": comb._eval_divs,
        "_modu": comb._eval_modu,
        "_mods": comb._eval_mods,
        "_shrs": comb._eval_shrs,
    }
    lines: List[str] = []
    outputs: List[str] = []                # "'name': vN" dict entries
    register_ops: List[Operation] = []

    def ref(value) -> str:
        try:
            return names[value]
        except KeyError:
            raise IRError(
                f"module '{module.name}': operand of unscheduled origin"
            ) from None

    def define(op: Operation) -> str:
        name = f"v{len(names)}"
        names[op.result] = name
        return name

    for op in order:
        kind = op.name
        if kind == "hw.input":
            port = module.port(op.attr("name"))
            lines.append(
                f"    {define(op)} = inputs.get({port.name!r}, 0)"
                f" & {mask(port.width):#x}"
            )
        elif kind == "hw.output":
            outputs.append(f"{op.attr('name')!r}: {ref(op.operands[0])}")
        elif kind == "seq.compreg":
            lines.append(f"    {define(op)} = regs[{len(register_ops)}]")
            register_ops.append(op)
        else:
            lines.append(f"    {define(op)} = {_expression(op, ref, env)}")

    body = lines or ["    pass"]
    body.append("    _outputs = {" + ", ".join(outputs) + "}")
    # Clock edge: every register's cycle value is already in a local, so
    # in-place updates cannot disturb other registers' data expressions.
    for index, op in enumerate(register_ops):
        data = ref(op.operands[0])
        if len(op.operands) == 2:
            body.append(f"    if {ref(op.operands[1])}:")
            body.append(f"        regs[{index}] = {data}")
        else:
            body.append(f"    regs[{index}] = {data}")
    body.append("    return _outputs")
    source = "def _step(inputs, regs):\n" + "\n".join(body) + "\n"

    code = compile(source, f"<rtl-sim:{module.name}>", "exec")
    exec(code, env)  # noqa: S102 - generated from the verified netlist only
    return CompiledModule(source, env["_step"], register_ops)


#: perfbench's layer hooks wrap this name through ``getattr``; it goes when
#: the benchmark next changes.
_codegen_batch = _codegen_scalar


def _expression(op: Operation, ref, env: Dict[str, object]) -> str:
    """Python expression computing ``op`` from already-masked operands.

    Invariant: every local holds its value masked to its width, so purely
    width-preserving operators (and/or/xor/mux/...) need no re-masking and
    the masks that remain are folded to literals at compile time.
    Signed compares XOR each side with its own sign bit, which maps two's-
    complement order onto unsigned order; division, modulo and the
    arithmetic shift call the shared helpers.
    """
    kind = op.name
    width = op.result.width
    m = f"{mask(width):#x}"
    operands = [ref(value) for value in op.operands]
    if kind == "comb.constant":
        return f"{op.attr('value') & mask(width):#x}"
    if kind in ("comb.add", "comb.sub", "comb.mul"):
        return f"({operands[0]} {comb.INFIX[kind]} {operands[1]}) & {m}"
    if kind in comb.INFIX:                 # and/or/xor keep the width
        return f"{operands[0]} {comb.INFIX[kind]} {operands[1]}"
    if kind == "comb.not":
        return f"{operands[0]} ^ {m}"
    if kind == "comb.divu":
        return f"({operands[0]} // {operands[1]} if {operands[1]} else {m})"
    if kind == "comb.modu":
        return (f"({operands[0]} % {operands[1]} if {operands[1]} "
                f"else {operands[0]})")
    if kind in ("comb.divs", "comb.mods", "comb.shrs"):
        helper = {"comb.divs": "_divs", "comb.mods": "_mods",
                  "comb.shrs": "_shrs"}[kind]
        return f"{helper}({operands[0]}, {operands[1]}, {width})"
    if kind == "comb.shl":
        return (f"(({operands[0]} << {operands[1]}) & {m} "
                f"if {operands[1]} < {width} else 0)")
    if kind == "comb.shru":
        return (f"({operands[0]} >> {operands[1]} "
                f"if {operands[1]} < {width} else 0)")
    if kind == "comb.icmp":
        predicate = comb.ICMP[op.attr("predicate")]
        symbol = predicate.symbol
        a, b = operands
        if not predicate.signed:
            return f"(1 if {a} {symbol} {b} else 0)"
        # Per-operand sign bits: operand widths are equal on verified IR,
        # but ops are simulated before verification too (hand-built and
        # fuzz-reduced netlists), and borrowing operand 0's sign bit for
        # operand 1 would silently mis-sign the comparison.
        wa = op.operands[0].width
        wb = op.operands[1].width
        sign_a = f"{1 << (wa - 1):#x}"
        sign_b = f"{1 << (wb - 1):#x}"
        if wa == wb:
            return (f"(1 if ({a} ^ {sign_a}) {symbol} "
                    f"({b} ^ {sign_b}) else 0)")
        # The XOR bias only preserves order when both biases are equal;
        # across widths, compare the true signed values ((v^s)-s is the
        # two's-complement reading of the w-bit pattern v).
        return (f"(1 if (({a} ^ {sign_a}) - {sign_a}) {symbol} "
                f"(({b} ^ {sign_b}) - {sign_b}) else 0)")
    if kind == "comb.mux":
        return f"({operands[1]} if {operands[0]} else {operands[2]})"
    if kind == "comb.extract":
        low = op.attr("low")
        shifted = operands[0] if low == 0 else f"({operands[0]} >> {low})"
        if low + width == op.operands[0].width:
            return shifted if low else operands[0]
        return f"{shifted} & {m}"
    if kind == "comb.concat":
        out = operands[0]
        for value, text in zip(op.operands[1:], operands[1:]):
            out = f"({out} << {value.width} | {text})"
        return out
    if kind == "comb.replicate":
        # value * 0b...0001_0001 concatenates the copies in one multiply.
        chunk_width = op.operands[0].width
        times = width // chunk_width
        repunit = sum(1 << (chunk_width * i) for i in range(times))
        return f"{operands[0]} * {repunit:#x}"
    if kind == "comb.rom":
        table_name = f"_rom{len(env)}"
        env[table_name] = tuple(v & mask(width) for v in op.attr("values"))
        return (f"({table_name}[{operands[0]}] "
                f"if {operands[0]} < {len(env[table_name])} else 0)")
    raise IRError(f"no compilation rule for '{kind}'")


# ---------------------------------------------------------------------------
# Differential oracle: engines against each other
# ---------------------------------------------------------------------------

def random_stimulus(module: HWModule, cycles: int,
                    seed: int = 0) -> List[Dict[str, int]]:
    """Reproducible random input trace exercising every input port."""
    rng = random.Random(seed)
    ports = module.inputs
    return [
        {port.name: rng.getrandbits(port.width) for port in ports}
        for _ in range(cycles)
    ]


def crosscheck_engines(module: HWModule, cycles: int = 32,
                       seed: int = 0,
                       engines: Sequence[str] = ("interp", "compiled"),
                       ) -> Optional[str]:
    """Run the selected engines over the same random stimulus.

    Returns ``None`` when the output traces, register counts and final
    register states agree exactly, else a human-readable mismatch
    description.  This is the standing engine-equivalence oracle used by
    the tests and the fuzz campaigns.
    """
    from repro.sim.rtl_sim import RTLSimulator

    stimulus = random_stimulus(module, cycles, seed)
    reference_name = engines[0]
    reference = RTLSimulator(module, engine=reference_name)
    ref_trace = reference.run(stimulus)
    for engine in engines[1:]:
        sim = RTLSimulator(module, engine=engine)
        if reference.register_count != sim.register_count:
            return (f"register count: {reference_name}="
                    f"{reference.register_count} "
                    f"{engine}={sim.register_count}")
        trace = sim.run(stimulus)
        if trace != ref_trace:
            cycle = next(i for i, (a, b) in enumerate(zip(ref_trace, trace))
                         if a != b)
            return (f"cycle {cycle}: outputs differ "
                    f"({reference_name}={ref_trace[cycle]!r} "
                    f"{engine}={trace[cycle]!r})")
        if sim.register_state() != reference.register_state():
            return (f"final register state: {reference_name}="
                    f"{reference.register_state()!r} "
                    f"{engine}={sim.register_state()!r}")
    return None


__all__ = [
    "SIM_ENGINES",
    "CompiledModule",
    "cached_schedule",
    "clear_compile_cache",
    "compile_cache_stats",
    "compile_module",
    "crosscheck_engines",
    "random_stimulus",
    "resolve_engine",
]
