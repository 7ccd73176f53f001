"""Cycle-driven simulation of generated hw modules.

Simulates the ``comb``/``seq`` netlist of an :class:`HWModule`: each
:meth:`RTLSimulator.step` applies input values, evaluates the combinational
logic in block order, samples the outputs, and then clocks the
pipeline registers (honoring their stall enables).  This is the
reproduction's equivalent of running the emitted SystemVerilog through a
commercial simulator, and it backs the co-simulation tests that compare the
generated hardware against the CoreDSL golden model.

Two engines implement the cycle, selected with ``engine=``:

* ``"interp"`` — walks the netlist op by op through
  :func:`repro.dialects.comb.evaluate` (the original, reference engine),
* ``"compiled"`` — a straight-line Python ``step`` function generated once
  per module by :mod:`repro.sim.compile` (typically >10x faster),
* ``"auto"`` (default) — the compiled engine, falling back to the
  interpreter if the module contains an op without a compilation rule.

``"batched"``, the name of a retired lane-parallel engine, selects
``"compiled"``.

Both engines share the module body's block order (checked and kept on
the module by :func:`repro.sim.compile.cached_schedule`, whose first call
freezes the module; an op other than a register that reads a value
defined later raises :class:`IRError`) and the flat register state, and
are held to bit-identical behavior by the standing engine-equivalence
differential oracle (:func:`repro.sim.compile.crosscheck_engines`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dialects import comb
from repro.dialects.hw import HWModule
from repro.ir.core import IRError, Operation, Value
from repro.sim.compile import cached_schedule, compile_module, resolve_engine


class RTLSimulator:
    """Simulates one hw module cycle by cycle."""

    def __init__(self, module: HWModule, engine: str = "auto"):
        engine = resolve_engine(engine)
        self.module = module
        self._order: List[Operation] = cached_schedule(module)
        self._reg_ops: List[Operation] = [
            op for op in self._order if op.name == "seq.compreg"
        ]
        self._reg_index: Dict[Operation, int] = {
            op: i for i, op in enumerate(self._reg_ops)
        }
        self._reg_state: List[int] = [0] * len(self._reg_ops)
        self._input_names = frozenset(p.name for p in module.inputs)
        self._last_outputs: Dict[str, int] = {}
        self.cycle = 0
        self._compiled = None
        if engine == "compiled":
            compiled = compile_module(module)
        elif engine == "auto":
            try:
                compiled = compile_module(module)
            except IRError:
                compiled = None
        else:
            compiled = None
        if compiled is not None:
            # The compiler registers state slots in block order too, so
            # the flat list is shared as-is between both engines.
            assert compiled.register_ops == self._reg_ops
            self._compiled = compiled
        self.engine = "compiled" if self._compiled is not None else "interp"

    # ------------------------------------------------------------------ API
    def reset(self) -> None:
        """Reset all pipeline registers to zero."""
        for index in range(len(self._reg_state)):
            self._reg_state[index] = 0
        self.cycle = 0
        self._last_outputs = {}

    def step(self, inputs: Optional[Dict[str, int]] = None,
             values: Optional[Dict[Value, int]] = None) -> Dict[str, int]:
        """Advance one clock cycle.

        ``inputs`` maps input-port names to values (missing ports read 0).
        Returns the output-port values observed *before* the clock edge.
        ``values``, when given, receives every SSA value of the cycle; that
        cycle then runs on the interpreter, the one engine that keeps them.
        """
        inputs = inputs or {}
        if not inputs.keys() <= self._input_names:
            unknown = sorted(set(inputs) - self._input_names)
            raise IRError(
                f"unknown input port(s) {unknown} on module "
                f"'{self.module.name}'"
            )
        if self._compiled is not None and values is None:
            outputs = self._compiled.step(inputs, self._reg_state)
        else:
            outputs = self._interp_step(
                inputs, {} if values is None else values)
        self.cycle += 1
        self._last_outputs = outputs
        return outputs

    def _interp_step(self, inputs: Dict[str, int],
                     values: Dict[Value, int]) -> Dict[str, int]:
        outputs: Dict[str, int] = {}
        regs = self._reg_state
        for op in self._order:
            if op.name == "hw.input":
                port = self.module.port(op.attr("name"))
                raw = inputs.get(port.name, 0)
                values[op.result] = raw & ((1 << port.width) - 1)
            elif op.name == "hw.output":
                outputs[op.attr("name")] = values[op.operands[0]]
            elif op.name == "seq.compreg":
                values[op.result] = regs[self._reg_index[op]]
            else:
                operand_values = [values[o] for o in op.operands]
                values[op.result] = comb.evaluate(op, operand_values)
        # Clock edge: update registers.
        for index, op in enumerate(self._reg_ops):
            data = values[op.operands[0]]
            enable = values[op.operands[1]] if len(op.operands) == 2 else 1
            if enable:
                regs[index] = data
        return outputs

    def run(self, input_trace: List[Dict[str, int]],
            values: Optional[List[Dict[Value, int]]] = None
            ) -> List[Dict[str, int]]:
        """Apply a sequence of input vectors; returns the output trace.
        ``values``, when given, receives one dict of SSA values per cycle
        (see :meth:`step`)."""
        if values is None:
            return [self.step(vector) for vector in input_trace]
        trace = []
        for vector in input_trace:
            values.append({})
            trace.append(self.step(vector, values[-1]))
        return trace

    def output(self, name: str) -> int:
        """Last sampled value of an output port."""
        if name not in self._last_outputs:
            raise IRError(f"no sampled value for output '{name}'")
        return self._last_outputs[name]

    def register_state(self) -> Tuple[int, ...]:
        """Current register values, in block order (pre-edge values of
        the upcoming cycle)."""
        return tuple(self._reg_state)

    def register_value(self, op: Operation) -> int:
        """Current value of one ``seq.compreg`` operation."""
        return self._reg_state[self._reg_index[op]]

    @property
    def register_count(self) -> int:
        return len(self._reg_ops)
