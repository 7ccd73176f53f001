"""Generic textual printer for the IR, used in tests, debugging, and the
Figure 5 reproduction (showing an instruction at each abstraction level)."""

from __future__ import annotations

from typing import Dict, List

from repro.ir.core import Graph, Operation, Value


def _format_attr(value: object) -> str:
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_attr(v) for v in value) + "]"
    return str(value)


class _Namer:
    def __init__(self) -> None:
        self.names: Dict[Value, str] = {}
        self.counter = 0

    def name_of(self, value: Value) -> str:
        name = self.names.get(value)
        if name is None:
            name = f"%{self.counter}"
            self.counter += 1
            self.names[value] = name
        return name


def _print_op(op: Operation, namer: _Namer, indent: int, lines: List[str]) -> None:
    pad = "  " * indent
    parts = []
    if op.results:
        results = ", ".join(namer.name_of(r) for r in op.results)
        parts.append(f"{results} = ")
    parts.append(op.name)
    if op.operands:
        parts.append("(" + ", ".join(namer.name_of(o) for o in op.operands) + ")")
    if op.attributes:
        attrs = ", ".join(
            f"{k}: {_format_attr(v)}" for k, v in sorted(op.attributes.items())
        )
        parts.append(" {" + attrs + "}")
    if op.results:
        types = ", ".join(r.type_str for r in op.results)
        parts.append(f" : {types}")
    lines.append(pad + "".join(parts))
    for region in op.regions:
        lines.append(pad + "{")
        for block in region.blocks:
            for child in block.operations:
                _print_op(child, namer, indent + 1, lines)
        lines.append(pad + "}")


def print_operation(op: Operation) -> str:
    namer = _Namer()
    for operand in op.operands:
        namer.name_of(operand)
    lines: List[str] = []
    _print_op(op, namer, 0, lines)
    return "\n".join(lines)


def print_graph(graph: Graph) -> str:
    namer = _Namer()
    lines = [f"graph \"{graph.name}\""
             + ("" if not graph.attributes else " "
                + "{" + ", ".join(f"{k}: {_format_attr(v)}"
                                  for k, v in sorted(graph.attributes.items())) + "}")]
    for op in graph.operations:
        _print_op(op, namer, 1, lines)
    return "\n".join(lines)
