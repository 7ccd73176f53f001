"""SystemVerilog export for hw modules (paper Section 4.1d / Figure 5d).

Emits idiomatic, synthesizable SystemVerilog: one module per ISAX
instruction/always-block, combinational logic as ``assign`` statements,
stallable pipeline registers as ``always_ff`` processes gated by the
per-stage stall inputs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dialects import comb
from repro.dialects.hw import HWModule
from repro.ir.core import IRError, Operation, Value


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


class _VerilogPrinter:
    def __init__(self, module: HWModule):
        self.module = module
        self.names: Dict[Value, str] = {}
        self.counter = 0
        self.decls: List[str] = []
        self.assigns: List[str] = []
        self.registers: List[str] = []
        self.localparams: List[str] = []

    def name_of(self, value: Value) -> str:
        name = self.names.get(value)
        if name is None:
            self.counter += 1
            name = f"w{self.counter}"
            self.names[value] = name
            self.decls.append(f"  logic {_width_decl(value.width)}{name};")
        return name

    def expr(self, op: Operation) -> str:
        name = op.name
        operands = [self.name_of(o) for o in op.operands]
        width = op.results[0].width if op.results else 0
        if name in comb.INFIX:
            return f"{operands[0]} {comb.INFIX[name]} {operands[1]}"
        if name in comb.DIVMOD_OPS:
            return _divmod(name, *operands)
        if name == "comb.shl":
            return f"{operands[0]} << {operands[1]}"
        if name == "comb.shru":
            return f"{operands[0]} >> {operands[1]}"
        if name == "comb.shrs":
            return f"$signed({operands[0]}) >>> {operands[1]}"
        if name == "comb.not":
            return f"~{operands[0]}"
        if name == "comb.icmp":
            pred = comb.ICMP[op.attr("predicate")]
            if pred.signed:
                return (f"$signed({operands[0]}) {pred.symbol} "
                        f"$signed({operands[1]})")
            return f"{operands[0]} {pred.symbol} {operands[1]}"
        if name == "comb.mux":
            return f"{operands[0]} ? {operands[1]} : {operands[2]}"
        if name == "comb.extract":
            low = op.attr("low")
            high = low + width - 1
            if op.operands[0].width == 1 and low == 0:
                return operands[0]
            if high == low:
                return f"{operands[0]}[{low}]"
            return f"{operands[0]}[{high}:{low}]"
        if name == "comb.concat":
            return "{" + ", ".join(operands) + "}"
        if name == "comb.replicate":
            times = width // op.operands[0].width
            return "{" + f"{{{times}{{{operands[0]}}}}}" + "}"
        if name == "comb.constant":
            return f"{width}'d{op.attr('value')}"
        raise IRError(f"no SystemVerilog lowering for '{name}'")

    def emit(self) -> str:
        module = self.module
        has_registers = bool(module.registers())
        port_lines: List[str] = []
        if has_registers:
            port_lines.append("  input  logic clk")
            port_lines.append("  input  logic rst")
        # Pre-name input ports.
        for op in module.body.operations:
            if op.name == "hw.input":
                port = module.port(op.attr("name"))
                self.names[op.result] = port.name
                port_lines.append(
                    f"  input  logic {_width_decl(port.width)}{port.name}"
                )
        for port in module.outputs:
            port_lines.append(
                f"  output logic {_width_decl(port.width)}{port.name}"
            )

        for op in module.body.operations:
            if op.name == "hw.input":
                continue
            if op.name == "hw.output":
                self.assigns.append(
                    f"  assign {op.attr('name')} = "
                    f"{self.name_of(op.operands[0])};"
                )
                continue
            if op.name == "seq.compreg":
                reg_name = _sanitize(op.attr("name"))
                self.names[op.result] = reg_name
                self.decls.append(
                    f"  logic {_width_decl(op.result.width)}{reg_name};"
                )
                data = self.name_of(op.operands[0])
                if len(op.operands) == 2:
                    enable = self.name_of(op.operands[1])
                    self.registers.append(
                        f"  always_ff @(posedge clk)\n"
                        f"    {reg_name} <= {enable} ? {data} : {reg_name};"
                    )
                else:
                    self.registers.append(
                        f"  always_ff @(posedge clk)\n"
                        f"    {reg_name} <= {data};"
                    )
                continue
            if op.name == "comb.rom":
                rom_name = f"rom_{_sanitize(op.attr('name') or 'table')}"
                values = op.attr("values")
                width = op.results[0].width
                items = ", ".join(f"{width}'d{v}" for v in values)
                self.localparams.append(
                    f"  localparam logic {_width_decl(width)}{rom_name} "
                    f"[0:{len(values) - 1}] = '{{{items}}};"
                )
                result = self.name_of(op.results[0])
                index = self.name_of(op.operands[0])
                read = f"{rom_name}[{index}]"
                if 1 << op.operands[0].width > len(values):
                    # Out-of-range reads are 0 in the netlist, x in SV.
                    read = f"{index} < {len(values)} ? {read} : '0"
                self.assigns.append(f"  assign {result} = {read};")
                continue
            result = self.name_of(op.results[0])
            self.assigns.append(f"  assign {result} = {self.expr(op)};")

        lines = [f"module {_sanitize(module.name)}("]
        lines.append(",\n".join(port_lines))
        lines.append(");")
        lines.extend(self.localparams)
        lines.extend(self.decls)
        lines.extend(self.assigns)
        lines.extend(self.registers)
        lines.append("endmodule")
        return "\n".join(lines) + "\n"


def _divmod(name: str, a: str, b: str) -> str:
    """Division and remainder with the netlist's zero-divisor results
    (x/0 is all-ones, x%0 is x); SystemVerilog would yield x.  The signed
    quotient is wrapped in ``$unsigned`` so that it stays self-determined:
    an unsigned arm would otherwise turn the division unsigned."""
    signed = name in ("comb.divs", "comb.mods")
    symbol = "/" if name in ("comb.divu", "comb.divs") else "%"
    on_zero = "'1" if symbol == "/" else a
    quotient = (f"$unsigned($signed({a}) {symbol} $signed({b}))" if signed
                else f"{a} {symbol} {b}")
    return f"{b} == 0 ? {on_zero} : {quotient}"


def _width_decl(width: int) -> str:
    return "" if width == 1 else f"[{width - 1}:0] "


def emit_module(module: HWModule) -> str:
    """Emit one hw module as SystemVerilog text."""
    return _VerilogPrinter(module).emit()


def emit_modules(modules: List[HWModule]) -> str:
    """Emit several modules into one compilation unit."""
    return "\n".join(emit_module(m) for m in modules)
