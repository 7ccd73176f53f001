"""The ``hw``/``seq`` dialects: RTL modules, ports and registers.

The synthesized microarchitecture (paper Section 4.5) is captured as an
:class:`HWModule`: a named set of ports plus a body graph mixing ``comb``
operations with:

* ``hw.input {name}``  — materializes an input port as an SSA value,
* ``hw.output {name}`` — drives an output port from an SSA value,
* ``seq.compreg {name}`` — a clocked register ``(data, enable) -> iW``;
  enable low holds the current value (the "stallable pipeline registers"
  of Figure 5d).

The RTL simulator (:mod:`repro.sim.rtl_sim`) and the SystemVerilog printer
(:mod:`repro.hls.verilog`) both consume this representation.  What is
derived from a module is kept on it by :meth:`HWModule.derived`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, TypeVar

from repro.ir.core import Graph, IRError, OpDef, Operation, register_op


def _verify_named(op: Operation) -> None:
    if not op.attr("name"):
        raise IRError(f"'{op.name}' needs a 'name' attribute")


def _verify_output(op: Operation) -> None:
    _verify_named(op)
    if len(op.operands) != 1:
        raise IRError("'hw.output' expects exactly one operand")


def _verify_compreg(op: Operation) -> None:
    _verify_named(op)
    if len(op.operands) not in (1, 2):
        raise IRError("'seq.compreg' expects (data) or (data, enable)")
    if op.operands[0].width != op.result.width:
        raise IRError("'seq.compreg' data width must match result width")
    if len(op.operands) == 2 and op.operands[1].width != 1:
        raise IRError("'seq.compreg' enable must be i1")


register_op(OpDef("hw.input", has_side_effects=True, verifier=_verify_named))
register_op(OpDef("hw.output", num_results=0, has_side_effects=True,
                  verifier=_verify_output))
register_op(OpDef("seq.compreg", has_side_effects=True, verifier=_verify_compreg))


@dataclasses.dataclass
class Port:
    """A module port.  ``direction`` is "in" or "out"; ``stage`` records the
    pipeline stage the port is active in (the numerical suffixes of paper
    Figure 5d), and ``role`` ties it back to the scheduled interface op."""

    name: str
    direction: str
    width: int
    stage: Optional[int] = None
    role: Optional[str] = None

    def __post_init__(self) -> None:
        if self.direction not in ("in", "out"):
            raise IRError(f"invalid port direction {self.direction!r}")


T = TypeVar("T")


class HWModule:
    """A hardware module: ports + a flat body graph of comb/seq operations."""

    def __init__(self, name: str):
        self.name = name
        self.ports: List[Port] = []
        self.body = Graph(name)
        self.attributes: Dict[str, object] = {}
        self._derived: Dict[str, Any] = {}

    def derived(self, key: str, build: Callable[[], T]) -> T:
        """``build()``, computed once per module and kept on it.

        The first call freezes the body and the ports (see
        :meth:`repro.ir.core.Graph.freeze`), so a later edit raises
        instead of leaving a stale fact behind.  There is no lock: two
        threads that first use one module at once may both build, their
        results are equal, and the last store wins.
        """
        if key not in self._derived:
            self.body.freeze()
            self._derived[key] = build()
        return self._derived[key]

    def add_input(self, name: str, width: int, stage: Optional[int] = None,
                  role: Optional[str] = None):
        """Declare an input port and return the SSA value reading it."""
        self._check_new_port(name)
        self.ports.append(Port(name, "in", width, stage, role))
        op = Operation("hw.input", [], [(width, None)], {"name": name})
        self.body.append(op)
        return op.result

    def add_output(self, name: str, value, stage: Optional[int] = None,
                   role: Optional[str] = None) -> None:
        """Declare an output port driven by ``value``."""
        self._check_new_port(name)
        self.ports.append(Port(name, "out", value.width, stage, role))
        op = Operation("hw.output", [value], [], {"name": name})
        self.body.append(op)

    def _check_new_port(self, name: str) -> None:
        if self.body.block.frozen:
            raise IRError(f"cannot add port '{name}': module is frozen")
        if any(p.name == name for p in self.ports):
            raise IRError(f"duplicate port '{name}' on module '{self.name}'")

    def port(self, name: str) -> Port:
        for port in self.ports:
            if port.name == name:
                return port
        raise IRError(f"module '{self.name}' has no port '{name}'")

    @property
    def inputs(self) -> List[Port]:
        return [p for p in self.ports if p.direction == "in"]

    @property
    def outputs(self) -> List[Port]:
        return [p for p in self.ports if p.direction == "out"]

    def registers(self) -> List[Operation]:
        return [op for op in self.body.operations if op.name == "seq.compreg"]

    def verify(self) -> None:
        self.body.verify()
        output_names = {p.name for p in self.outputs}
        driven = {
            op.attr("name")
            for op in self.body.operations
            if op.name == "hw.output"
        }
        if output_names != driven:
            raise IRError(
                f"module '{self.name}': outputs {sorted(output_names - driven)} "
                "are not driven"
            )

    def __repr__(self) -> str:
        return (
            f"<HWModule {self.name}: {len(self.inputs)} in, "
            f"{len(self.outputs)} out, {len(self.body.operations)} ops>"
        )
