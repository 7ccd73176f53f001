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

A second code generator, :func:`compile_module_batch`, emits a vectorized
``step_batch(inputs, regs, n)`` evaluating N independent stimulus lanes at
once over numpy arrays (see :class:`~repro.sim.batch.BatchedSimulator` and
``docs/simulation.md`` for the lane layout).

Both compilers share one evaluation order, the module body's block
order, checked once by :func:`cached_schedule`: every operand of a
non-register op is defined earlier in the body, while a register's data
and enable, sampled at the clock edge, may come later (feedback).  The
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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.absint import RangeFacts, analyze_module, slice_source
from repro.dialects import comb
from repro.dialects.hw import HWModule
from repro.ir.core import IRError, Operation
from repro.utils.bits import mask

#: Engine selector values accepted by RTLSimulator/cosim/CLI/server.
SIM_ENGINES = ("auto", "interp", "compiled", "batched")

#: Widest value a lane of the batched engine holds in a native ``uint64``
#: numpy array; wider values fall back to object-dtype lanes of Python ints.
BATCH_NATIVE_WIDTH = 64


def resolve_engine(engine: str) -> str:
    if engine not in SIM_ENGINES:
        raise IRError(
            f"unknown sim engine {engine!r}; expected one of {SIM_ENGINES}"
        )
    return engine


class CompiledModule:
    """One compiled module: the generated ``step`` plus its metadata."""

    __slots__ = ("source", "step", "register_ops")

    def __init__(self, source: str, step, register_ops: List[Operation]):
        self.source = source
        self.step = step
        self.register_ops = register_ops


class BatchCompiledModule:
    """One batch-compiled module: the generated ``step_batch`` + metadata.

    ``step_batch(inputs, regs, n)`` takes a tuple of per-input-port numpy
    arrays (pre-masked, in ``input_ports`` order), the per-register lane
    list and the lane count; it returns a tuple of per-output-port arrays
    (in ``output_names`` order) and rebinds ``regs`` entries in place at
    the clock edge.  The ``*_kinds`` lists describe each lane's dtype
    ('b' bool / 'u' uint64 / 'o' object).
    """

    __slots__ = ("source", "step_batch", "register_ops",
                 "register_kinds", "register_widths", "input_ports",
                 "input_kinds", "input_widths", "output_names",
                 "output_kinds", "output_widths")

    def __init__(self, source: str, step_batch,
                 register_ops: List[Operation],
                 register_kinds: List[str], register_widths: List[int],
                 input_ports: List[str], input_kinds: List[str],
                 input_widths: List[int], output_names: List[str],
                 output_kinds: List[str], output_widths: List[int]):
        self.source = source
        self.step_batch = step_batch
        self.register_ops = register_ops
        self.register_kinds = register_kinds
        self.register_widths = register_widths
        self.input_ports = input_ports
        self.input_kinds = input_kinds
        self.input_widths = input_widths
        self.output_names = output_names
        self.output_kinds = output_kinds
        self.output_widths = output_widths


# ---------------------------------------------------------------------------
# Per-module memoization
# ---------------------------------------------------------------------------

#: Codegen invocation counters, exposed for the memoization regression
#: tests and benchmarks.
CODEGEN_COUNTS: Dict[str, int] = {"scalar": 0, "batched": 0, "schedules": 0}


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
# Batched code generation: N stimulus lanes per numpy operation
# ---------------------------------------------------------------------------
#
# Lane layout (see docs/simulation.md):
#
# * width == 1   -> bool lanes (numpy bool_): icmp results, valid bits and
#                   mux conditions never pay an int round trip;
# * width <= 64  -> uint64 lanes.  +,-,* evaluate mod 2^64 and are masked
#                   *lazily*: reduction Z/2^64 -> Z/2^w is a ring
#                   homomorphism for w <= 64, so junk above a value's
#                   width is only cleared where the exact pattern is
#                   observable (outputs, registers, shift/div/cmp/concat/
#                   rom operands).  Width-64 values are always exact
#                   (native wraparound);
# * width > 64   -> object-dtype lanes of Python ints, masked eagerly
#                   (the arbitrary-precision fallback).
#
# All numeric constants are hoisted into the function globals as numpy
# scalars so the straight-line body is nothing but array expressions.

def batch_kind(width: int) -> str:
    """Lane kind for a value width: 'b' bool, 'u' uint64, 'o' object."""
    if width == 1:
        return "b"
    return "u" if width <= BATCH_NATIVE_WIDTH else "o"


def compile_module_batch(module: HWModule) -> BatchCompiledModule:
    """Code-generate and compile the vectorized ``step_batch``.

    Kept on the module exactly like :func:`compile_module`.  Raises
    :class:`IRError` on operations without a generation rule.
    """
    return module.derived(
        "sim.batched",
        lambda: _codegen_batch(module, cached_schedule(module)))


class _BatchEmitter:
    """Codegen state for one ``step_batch``: SSA-value registry with lane
    kind + clean flag, cached lane conversions, and hoisted constants."""

    def __init__(self, module: HWModule, np, helpers: Dict[str, object],
                 facts: RangeFacts):
        self.module = module
        self.np = np
        self.lines: List[str] = []
        self.env: Dict[str, object] = dict(helpers)
        # Value -> [name, kind, clean]; the name is rebound when a masked
        # alias supersedes a dirty one so later users pick up the clean
        # lane for free.
        self.registry: Dict[object, List] = {}
        # Value -> known compile-time constant (masked int), for folding.
        self.consts: Dict[object, int] = {}
        # Per-value range facts from the shared abstract-interpretation
        # engine (repro.analysis.absint), kept on the module.  Bounds let
        # >64-bit values whose range provably fits uint64 stay off the
        # object lanes.
        self.facts = facts
        self._aux: Dict[Tuple[str, str], str] = {}
        self._serial = 0

    # -- constants ---------------------------------------------------------
    def const(self, value, label: str) -> str:
        name = f"_k{len(self.env)}{label}"
        self.env[name] = value
        return name

    def mask_const(self, width: int, kind: str) -> str:
        name = f"_m{kind}{width}"
        if name not in self.env:
            value = mask(width)
            self.env[name] = self.np.uint64(value) if kind == "u" else value
        return name

    def shift_const(self, amount: int, kind: str) -> str:
        name = f"_s{kind}{amount}"
        if name not in self.env:
            self.env[name] = (self.np.uint64(amount) if kind == "u"
                              else amount)
        return name

    # -- SSA values --------------------------------------------------------
    def define(self, op: Operation, kind: str, clean: bool,
               expr: str) -> str:
        name = f"v{self._serial}"
        self._serial += 1
        self.registry[op.result] = [name, kind, clean]
        self.lines.append(f"    {name} = {expr}")
        return name

    def alias(self, op: Operation, value) -> None:
        """Result is bit-identical to an existing value: share the lane."""
        self.registry[op.result] = self._entry(value)
        if value in self.consts:
            self.consts[op.result] = self.consts[value]

    def kind_of(self, value) -> str:
        """Lane kind the value is currently stored in."""
        return self._entry(value)[1]

    def _entry(self, value) -> List:
        try:
            return self.registry[value]
        except KeyError:
            raise IRError(
                f"module '{self.module.name}': operand of unscheduled "
                f"origin"
            ) from None

    def get(self, value, kind: Optional[str] = None,
            clean: bool = False) -> str:
        """Reference ``value`` as ``kind`` lanes (native kind when None),
        exact (masked) when ``clean``.  Conversion/masking lines are
        emitted once and cached."""
        entry = self._entry(value)
        name, have_kind, have_clean = entry
        # Lane conversions need the exact value (junk would leak through
        # astype/lift), so a kind change forces cleaning first.
        if kind is not None and kind != have_kind:
            clean = True
        if clean and not have_clean:
            key = (name, "clean")
            if key not in self._aux:
                masked = f"{name}m"
                self.lines.append(
                    f"    {masked} = {name} & "
                    f"{self.mask_const(value.width, have_kind)}")
                self._aux[key] = masked
            entry[0] = name = self._aux[key]
            entry[2] = True
        if kind is None or kind == have_kind:
            return name
        key = (name, kind)
        if key not in self._aux:
            converted = f"{name}{kind}"
            self.lines.append(
                f"    {converted} = "
                f"{self._conversion(name, have_kind, kind)}")
            self._aux[key] = converted
        return self._aux[key]

    @staticmethod
    def _conversion(name: str, src: str, dst: str) -> str:
        if src == "b" and dst == "u":
            return f"_b2u({name})"
        if dst == "o":
            return f"_lift({name})"
        if src == "o" and dst == "u":
            return f"_lower({name})"
        if dst == "b":
            return f"({name} != 0)"
        raise IRError(f"no lane conversion {src}->{dst}")

    def is_clean(self, value, kind: str) -> bool:
        """Would ``get(value, kind)`` yield an exact lane?  True for 'b'
        targets and for any kind conversion (which masks first)."""
        entry = self._entry(value)
        if kind == "b" or entry[1] != kind:
            return True
        return bool(entry[2])


#: Slice forwarding through bit-plumbing producers lives in the shared
#: analysis module (:func:`repro.analysis.absint.slice_source`) so the
#: batch codegen and the range engine resolve slices identically.
_slice_source = slice_source


def _live_operands(op: Operation):
    """Operands an op actually reads once slices are forwarded."""
    if op.name == "comb.extract":
        value, _ = _slice_source(op.operands[0], op.attr("low"),
                                 op.result.width)
        return (value,)
    return op.operands


def _codegen_batch(module: HWModule,
                   order: List[Operation]) -> BatchCompiledModule:
    import numpy as np

    from repro.sim import batch as _bh

    CODEGEN_COUNTS["batched"] += 1
    facts = analyze_module(module)
    emitter = _BatchEmitter(module, np, {
        "np": np,
        "_u64": np.uint64,
        "_bool": np.bool_,
        "_obj": object,
        "_asarray": _bh.asarray_lane,
        "_b2u": _bh.bool_to_uint64,
        "_divu": _bh.b_divu,
        "_divs": _bh.b_divs,
        "_modu": _bh.b_modu,
        "_mods": _bh.b_mods,
        "_shrs": _bh.b_shrs,
        "_shl": _bh.b_shl,
        "_shru": _bh.b_shru,
        "_rom": _bh.b_rom_take,
        "_lift": _bh.lift_object,
        "_lower": _bh.lower_uint64,
    }, facts)

    output_exprs: List[str] = []
    output_names: List[str] = []
    output_kinds: List[str] = []
    output_widths: List[int] = []
    register_ops: List[Operation] = []
    register_kinds: List[str] = []
    register_widths: List[int] = []
    input_ports: List[str] = []
    input_kinds: List[str] = []
    input_widths: List[int] = []

    # Dead-op elimination: only values reaching an output or a register
    # (data or enable) need lanes.  Register operands are seeded first —
    # their producers may sit *after* the register in block order — and
    # every other operand is defined before its user, so a single reverse
    # pass over the comb ops then converges.
    # Liveness runs on slice-forwarded operands (_live_operands): a wide
    # concat whose every use is a forwarded extract is dead here even
    # though it still has IR uses.
    live = set()
    for op in order:
        if op.name in ("hw.output", "seq.compreg"):
            live.update(op.operands)
    for op in reversed(order):
        if op.name in ("hw.output", "seq.compreg", "hw.input"):
            continue
        if any(result in live for result in op.results):
            live.update(_live_operands(op))

    for op in order:
        kind = op.name
        if (kind not in ("hw.input", "hw.output", "seq.compreg")
                and not any(result in live for result in op.results)):
            continue
        if kind == "hw.input":
            port = module.port(op.attr("name"))
            lane = batch_kind(port.width)
            emitter.define(op, lane, True, f"_in[{len(input_ports)}]")
            input_ports.append(port.name)
            input_kinds.append(lane)
            input_widths.append(port.width)
        elif kind == "hw.output":
            value = op.operands[0]
            output_names.append(op.attr("name"))
            output_widths.append(value.width)
            output_exprs.append(emitter.get(value, clean=True))
            output_kinds.append(emitter.registry[value][1])
        elif kind == "seq.compreg":
            lane = batch_kind(op.result.width)
            emitter.define(op, lane, True, f"regs[{len(register_ops)}]")
            register_ops.append(op)
            register_kinds.append(lane)
            register_widths.append(op.result.width)
        else:
            _batch_expression(op, emitter)

    # Resolve the clock-edge operands first: get() may still emit masking
    # or conversion lines, which must land before the body snapshot.
    edge: List[Tuple[str, Optional[str]]] = []
    for op in register_ops:
        lane = register_kinds[len(edge)]
        data = emitter.get(op.operands[0], kind=lane, clean=True)
        enable = (emitter.get(op.operands[1], kind="b")
                  if len(op.operands) == 2 else None)
        edge.append((data, enable))

    body = list(emitter.lines) or ["    pass"]
    body.append("    _outs = (" + ", ".join(output_exprs)
                + ("," if output_exprs else "") + ")")
    # Clock edge: all register reads are already bound to locals, so
    # rebinding the state arrays cannot disturb other data expressions.
    for index, (data, enable) in enumerate(edge):
        dtype = {"b": "_bool", "u": "_u64",
                 "o": "_obj"}[register_kinds[index]]
        if enable is not None:
            body.append(
                f"    regs[{index}] = np.where({enable}, {data}, "
                f"regs[{index}])")
        else:
            body.append(
                f"    regs[{index}] = _asarray({data}, _n, {dtype})")
    body.append("    return _outs")
    source = "def _step_batch(_in, regs, _n):\n" + "\n".join(body) + "\n"

    code = compile(source, f"<rtl-sim-batch:{module.name}>", "exec")
    env = emitter.env
    exec(code, env)  # noqa: S102 - generated from the verified netlist only
    return BatchCompiledModule(
        source, env["_step_batch"], register_ops, register_kinds,
        register_widths, input_ports, input_kinds, input_widths,
        output_names, output_kinds, output_widths)


#: One past the largest value a uint64 lane can hold exactly.
_NATIVE_LIMIT = 1 << BATCH_NATIVE_WIDTH


def _bound(e: _BatchEmitter, value) -> int:
    """Upper bound on the value's true (masked) magnitude, from the
    shared abstract-interpretation engine's per-value facts."""
    return e.facts.hi(value)


def _define_const(e: _BatchEmitter, op: Operation, value: int) -> None:
    """Bind a compile-time constant: no body line, just a hoisted global.

    Wide constants that do not fit uint64 become 0-d object arrays (not
    raw ints) so all-constant object dataflow keeps numpy operator
    semantics (notably ~ and comparisons, where Python bools would
    misbehave).
    """
    np = e.np
    rk = batch_kind(op.result.width)
    if rk == "b":
        name = e.const(np.bool_(bool(value)), "c")
    elif value < _NATIVE_LIMIT:
        rk = "u"
        name = e.const(np.uint64(value), "c")
    else:
        name = e.const(np.array(value, dtype=object), "c")
    e.registry[op.result] = [name, rk, True]
    e.consts[op.result] = value


def _batch_expression(op: Operation, e: _BatchEmitter) -> None:
    """Emit the numpy expression(s) computing ``op`` over all lanes.

    Lane selection is range-driven: ``i1`` rides bool lanes; any other
    value rides uint64 lanes unless both its type width exceeds 64 *and*
    its value-range bound (the absint engine's ``facts.hi``) can reach 2^64 —
    only then does it fall back to the object-dtype lanes.  A wide value
    stored in a uint64 lane is always exact (clean) by construction.
    """
    np = e.np
    kind = op.name
    width = op.result.width
    rk = batch_kind(width)
    wmask = mask(width)

    if kind == "comb.constant":
        _define_const(e, op, op.attr("value") & wmask)
        return

    # Constant folding: all operands known at compile time -> evaluate
    # through the reference interpreter now and hoist the result.
    if op.operands and all(v in e.consts for v in op.operands):
        try:
            value = comb.evaluate(op, [e.consts[v] for v in op.operands])
        except IRError:
            value = None
        if value is not None:
            _define_const(e, op, value & wmask)
            return

    if kind in ("comb.add", "comb.sub", "comb.mul"):
        sign = comb.INFIX[kind]
        ba = _bound(e, op.operands[0])
        bb = _bound(e, op.operands[1])
        # Only + and * are monotone in non-negative operands, so only
        # their results are bounded by the operand-bound arithmetic;
        # subtraction can wrap through the full range.
        if kind == "comb.add":
            beta = ba + bb
        elif kind == "comb.mul":
            beta = ba * bb
        else:
            beta = wmask
        no_wrap = kind != "comb.sub" and beta <= wmask
        lane = ("u" if rk != "o" or (no_wrap and beta < _NATIVE_LIMIT)
                else "o")
        wide_u = lane == "u" and rk == "o"
        # Lazy masking: + - * respect congruence mod 2^w (u lanes wrap
        # mod 2^64 first, which reduction to 2^w <= 2^64 absorbs; o lanes
        # are exact ints, possibly negative after -), so the mask is
        # deferred to an observation point.  Wide-in-u results instead
        # need exact operands and a no-wrap bound, and are exact.
        a = e.get(op.operands[0], kind=lane, clean=wide_u)
        b = e.get(op.operands[1], kind=lane, clean=wide_u)
        if wide_u:
            clean = True
        elif lane == "o":
            clean = False
        else:
            clean = width == BATCH_NATIVE_WIDTH or (
                no_wrap
                and e.is_clean(op.operands[0], "u")
                and e.is_clean(op.operands[1], "u"))
        e.define(op, lane, clean, f"({a} {sign} {b})")
        return

    if kind in ("comb.and", "comb.or", "comb.xor"):
        sign = comb.INFIX[kind]
        if rk == "b":
            a = e.get(op.operands[0], kind="b")
            b = e.get(op.operands[1], kind="b")
            e.define(op, "b", True, f"({a} {sign} {b})")
            return
        ba = _bound(e, op.operands[0])
        bb = _bound(e, op.operands[1])
        if kind == "comb.and":
            beta = min(ba, bb)
        else:
            beta = mask(max(ba.bit_length(), bb.bit_length()))
        # Both operands must fit the native lane, not just the result:
        # and-with-a-narrow-mask has a small result bound but may still
        # read a full-range wide operand.
        lane = ("u" if rk != "o" or max(ba, bb) < _NATIVE_LIMIT
                else "o")
        wide_u = lane == "u" and rk == "o"
        clean_a = e.is_clean(op.operands[0], lane)
        clean_b = e.is_clean(op.operands[1], lane)
        a = e.get(op.operands[0], kind=lane, clean=wide_u)
        b = e.get(op.operands[1], kind=lane, clean=wide_u)
        if wide_u:
            clean = True
        elif kind == "comb.and":
            # One exact operand zeroes the other's junk (equal widths).
            clean = clean_a or clean_b
        else:
            clean = clean_a and clean_b
        e.define(op, lane, clean, f"({a} {sign} {b})")
        return

    if kind == "comb.not":
        if rk == "b":
            e.define(op, "b", True, f"~{e.get(op.operands[0], kind='b')}")
            return
        # XOR with the w-bit mask flips only the low bits: junk above the
        # width is untouched, so cleanliness carries over unchanged.
        lane = "o" if rk == "o" else "u"
        clean = e.is_clean(op.operands[0], lane)
        a = e.get(op.operands[0], kind=lane)
        e.define(op, lane, clean,
                 f"({a} ^ {e.mask_const(width, lane)})")
        return

    if kind in ("comb.divu", "comb.modu"):
        helper = "_divu" if kind == "comb.divu" else "_modu"
        lane = "o" if rk == "o" else "u"
        a = e.get(op.operands[0], kind=lane, clean=True)
        b = e.get(op.operands[1], kind=lane, clean=True)
        e.define(op, lane, True,
                 f"{helper}({a}, {b}, {e.mask_const(width, lane)})")
        return

    if kind in ("comb.divs", "comb.mods", "comb.shrs", "comb.shl",
                "comb.shru"):
        helper = {"comb.divs": "_divs", "comb.mods": "_mods",
                  "comb.shrs": "_shrs", "comb.shl": "_shl",
                  "comb.shru": "_shru"}[kind]
        lane = "o" if rk == "o" else "u"
        a = e.get(op.operands[0], kind=lane, clean=True)
        b = e.get(op.operands[1], kind=lane, clean=True)
        e.define(op, lane, True,
                 f"{helper}({a}, {b}, {width}, "
                 f"{e.mask_const(width, lane)})")
        return

    if kind == "comb.icmp":
        predicate = comb.ICMP[op.attr("predicate")]
        symbol = predicate.symbol
        wa = op.operands[0].width
        wb = op.operands[1].width
        cmp_lane = ("o" if "o" in (batch_kind(wa), batch_kind(wb))
                    else "u")
        a = e.get(op.operands[0], kind=cmp_lane, clean=True)
        b = e.get(op.operands[1], kind=cmp_lane, clean=True)
        if not predicate.signed:
            e.define(op, "b", True, f"({a} {symbol} {b})")
            return
        # Per-operand sign bits, exactly as in the scalar compiler: the
        # XOR bias maps signed onto unsigned order when the widths (and
        # therefore the biases) are equal.
        if cmp_lane == "u":
            if wa == wb:
                sa = e.const(np.uint64(1 << (wa - 1)), "s")
                sb = e.const(np.uint64(1 << (wb - 1)), "s")
                e.define(op, "b", True,
                         f"(({a} ^ {sa}) {symbol} ({b} ^ {sb}))")
                return
            # Unequal (pre-verification) widths: sign-extend each operand
            # to the wider width and re-bias there.  (v^s)-s wraps mod
            # 2^64; masking to the wider width makes that exact because
            # 2^max_w divides 2^64.
            w = max(wa, wb)
            bias = e.const(np.uint64(1 << (w - 1)), "s")
            wm = e.const(np.uint64(mask(w)), "s")
            sa = e.const(np.uint64(1 << (wa - 1)), "s")
            sb = e.const(np.uint64(1 << (wb - 1)), "s")
            e.define(op, "b", True,
                     f"(((({a} ^ {sa}) - {sa} + {bias}) & {wm}) {symbol} "
                     f"((({b} ^ {sb}) - {sb} + {bias}) & {wm}))")
            return
        # Object lanes hold arbitrary-precision ints: compare the true
        # signed values directly (correct at any width mix).
        sa = e.const(1 << (wa - 1), "s")
        sb = e.const(1 << (wb - 1), "s")
        e.define(op, "b", True,
                 f"((({a} ^ {sa}) - {sa}) {symbol} (({b} ^ {sb}) - {sb}))")
        return

    if kind == "comb.mux":
        cond = e.get(op.operands[0], kind="b")
        if rk == "b":
            t = e.get(op.operands[1], kind="b")
            f = e.get(op.operands[2], kind="b")
            e.define(op, "b", True, f"np.where({cond}, {t}, {f})")
            return
        beta = max(_bound(e, op.operands[1]), _bound(e, op.operands[2]))
        lane = "u" if rk != "o" or beta < _NATIVE_LIMIT else "o"
        wide_u = lane == "u" and rk == "o"
        # where() keeps each branch's bits verbatim, so dirt propagates.
        clean = wide_u or (e.is_clean(op.operands[1], lane)
                           and e.is_clean(op.operands[2], lane))
        t = e.get(op.operands[1], kind=lane, clean=wide_u)
        f = e.get(op.operands[2], kind=lane, clean=wide_u)
        e.define(op, lane, clean, f"np.where({cond}, {t}, {f})")
        return

    if kind == "comb.extract":
        src, low = _slice_source(op.operands[0], op.attr("low"), width)
        src_width = src.width
        if src in e.consts:
            _define_const(e, op, (e.consts[src] >> low) & wmask)
            return
        if src_width == width:
            # Full-width slice (low is 0 by construction): the identity.
            e.alias(op, src)
            return
        beta = min(wmask, _bound(e, src) >> low)
        if beta == 0:
            # The slice sits entirely above the source's value range.
            _define_const(e, op, 0)
            return
        src_lane = "o" if e.kind_of(src) == "o" else "u"
        if rk == "b":
            # Single-bit test; junk above src_width never reaches bit
            # positions < src_width, so a dirty source is fine.
            n = e.get(src, kind=src_lane)
            bit = e.const(np.uint64(1 << low) if src_lane == "u"
                          else 1 << low, "b")
            e.define(op, "b", True, f"(({n} & {bit}) != 0)")
            return
        clean_src = e.is_clean(src, src_lane)
        n = e.get(src, kind=src_lane)
        shifted = (n if low == 0
                   else f"({n} >> {e.shift_const(low, src_lane)})")
        # An exact source whose slice bound fits the result width needs
        # no mask at all.
        exact = clean_src and (_bound(e, src) >> low) <= wmask
        want_lane = "u" if rk != "o" or beta < _NATIVE_LIMIT else "o"
        if want_lane == src_lane:
            if exact:
                e.define(op, want_lane, True, shifted)
            elif low + width == src_width:
                # Junk shifts down to bit >= width: result is dirty but
                # correct modulo 2^width.
                e.define(op, want_lane, clean_src, shifted)
            else:
                e.define(op, want_lane, True,
                         f"({shifted} & "
                         f"{e.mask_const(width, src_lane)})")
        else:
            # Lane change: exact value required before converting.
            expr = (shifted if exact
                    else f"({shifted} & {e.mask_const(width, src_lane)})")
            e.define(op, want_lane, True,
                     f"_lower({expr})" if src_lane == "o"
                     else f"_lift({expr})")
        return

    if kind == "comb.concat":
        beta = 0
        for value in op.operands:
            beta = ((beta << value.width)
                    | min(_bound(e, value), mask(value.width)))
        lane = "u" if rk != "o" or beta < _NATIVE_LIMIT else "o"
        # MSB-first shift/or fold; operands with a zero value range
        # contribute nothing (their shift still positions the prefix),
        # which is what lets zero-extension concats collapse to their
        # payload.
        out: Optional[str] = None
        for value in op.operands:
            if out is not None:
                out = f"({out} << {e.shift_const(value.width, lane)})"
            if min(_bound(e, value), mask(value.width)) == 0:
                continue
            part = e.get(value, kind=lane, clean=True)
            out = part if out is None else f"({out} | {part})"
        if out is None:
            _define_const(e, op, 0)
            return
        e.define(op, lane, True, out)
        return

    if kind == "comb.replicate":
        chunk_width = op.operands[0].width
        times = width // chunk_width
        repunit = sum(1 << (chunk_width * i) for i in range(times))
        beta = min(_bound(e, op.operands[0]), mask(chunk_width)) * repunit
        if beta == 0:
            _define_const(e, op, 0)
            return
        lane = "u" if rk != "o" or beta < _NATIVE_LIMIT else "o"
        n = e.get(op.operands[0], kind=lane, clean=True)
        rep = e.const(np.uint64(repunit) if lane == "u" else repunit, "r")
        e.define(op, lane, True, f"({n} * {rep})")
        return

    if kind == "comb.rom":
        values = tuple(v & wmask for v in op.attr("values"))
        beta = max(values) if values else 0
        lane = "u" if rk != "o" or beta < _NATIVE_LIMIT else "o"
        table = e.const(
            np.array(values, dtype=(np.uint64 if lane == "u"
                                    else object)), "t")
        idx_src = op.operands[0]
        idx_kind = batch_kind(idx_src.width)
        idx = e.get(idx_src, kind=("u" if idx_kind == "b" else idx_kind),
                    clean=True)
        e.define(op, lane, True, f"_rom({table}, {idx})")
        return

    raise IRError(f"no batch compilation rule for '{kind}'")


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
    the tests and the fuzz campaigns; include ``"batched"`` after the
    first (reference) engine for the three-way parity check (the batched
    arm runs the stimulus on two lanes at once, pinning down lane
    independence).
    """
    from repro.sim.rtl_sim import RTLSimulator

    stimulus = random_stimulus(module, cycles, seed)
    reference_name = engines[0]
    reference = RTLSimulator(module, engine=reference_name)
    ref_trace = reference.run(stimulus)
    for engine in engines[1:]:
        if engine == "batched":
            from repro.sim.batch import BatchedSimulator

            sim = BatchedSimulator(module)
            if reference.register_count != sim.register_count:
                return (f"register count: {reference_name}="
                        f"{reference.register_count} "
                        f"batched={sim.register_count}")
            traces = sim.run_batch([stimulus, stimulus])
            states = sim.register_states()
            for lane in range(2):
                if traces[lane] != ref_trace:
                    cycle = next(
                        i for i, (a, b)
                        in enumerate(zip(ref_trace, traces[lane]))
                        if a != b)
                    return (f"cycle {cycle}: outputs differ "
                            f"({reference_name}={ref_trace[cycle]!r} "
                            f"batched[lane {lane}]="
                            f"{traces[lane][cycle]!r})")
                if states[lane] != reference.register_state():
                    return (f"final register state: {reference_name}="
                            f"{reference.register_state()!r} "
                            f"batched[lane {lane}]={states[lane]!r}")
            continue
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
    "BATCH_NATIVE_WIDTH",
    "SIM_ENGINES",
    "BatchCompiledModule",
    "CompiledModule",
    "batch_kind",
    "cached_schedule",
    "clear_compile_cache",
    "compile_cache_stats",
    "compile_module",
    "compile_module_batch",
    "crosscheck_engines",
    "random_stimulus",
    "resolve_engine",
]
