"""VCD (Value Change Dump) waveform tracing for the RTL simulator.

Wraps :class:`~repro.sim.rtl_sim.RTLSimulator` and records every port and
pipeline register each cycle into an IEEE-1364 VCD file, so generated ISAX
modules can be debugged in any waveform viewer (GTKWave etc.) exactly like
the SystemVerilog the module was emitted as.

    tracer = VCDTracer(module)
    for vector in stimulus:
        tracer.step(vector)
    tracer.save("dotp.vcd")
"""

from __future__ import annotations

import io
from typing import Dict, List, Optional

from repro.dialects.hw import HWModule
from repro.hls.verilog import _sanitize
from repro.sim.rtl_sim import RTLSimulator

#: Printable identifier characters per the VCD grammar.
_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _identifier(index: int) -> str:
    """Short unique VCD identifier for signal ``index``."""
    base = len(_ID_CHARS)
    out = ""
    index += 1
    while index:
        index, digit = divmod(index - 1, base)
        out = _ID_CHARS[digit] + out
    return out


def _binary(value: int, width: int) -> str:
    return format(value & ((1 << width) - 1), f"0{width}b")


class VCDTracer:
    """Runs a module while recording a VCD trace."""

    def __init__(self, module: HWModule, timescale: str = "1ns",
                 engine: str = "auto"):
        self.module = module
        self.sim = RTLSimulator(module, engine=engine)
        self.timescale = timescale
        self._signals: List[tuple] = []   # (name, width, vcd id, getter key)
        self._last: Dict[str, Optional[int]] = {}
        self._changes: List[str] = []
        self._time = 0
        index = 0
        for port in module.ports:
            self._signals.append((port.name, port.width, _identifier(index),
                                  ("port", port.name)))
            index += 1
        for op in module.registers():
            name = op.attr("name")
            self._signals.append((name, op.result.width, _identifier(index),
                                  ("reg", op)))
            index += 1
        for _name, _width, vcd_id, _key in self._signals:
            self._last[vcd_id] = None

    # ------------------------------------------------------------------ run
    def step(self, inputs: Optional[Dict[str, int]] = None) -> Dict[str, int]:
        """Advance one cycle, recording all signal values."""
        inputs = inputs or {}
        # A register's output during cycle t is its *pre-edge* value, so
        # capture the register state before stepping: that keeps every
        # signal at one timestamp coherent (a register change appears one
        # timestamp after the data input that caused it, exactly like the
        # emitted SystemVerilog in a real simulator).
        pre_edge = {op: self.sim.register_value(op)
                    for op in self.module.registers()}
        outputs = self.sim.step(inputs)
        values: Dict[str, int] = {}
        values.update({p.name: inputs.get(p.name, 0)
                       for p in self.module.inputs})
        values.update(outputs)
        self._changes.append(f"#{self._time}")
        for name, width, vcd_id, key in self._signals:
            if key[0] == "port":
                value = values.get(key[1], 0)
            else:
                value = pre_edge[key[1]]
            if self._last[vcd_id] != value:
                self._last[vcd_id] = value
                if width == 1:
                    self._changes.append(f"{value & 1}{vcd_id}")
                else:
                    self._changes.append(f"b{_binary(value, width)} {vcd_id}")
        self._time += 1
        return outputs

    # ----------------------------------------------------------------- emit
    def dumps(self) -> str:
        out = io.StringIO()
        out.write("$date\n  repro-longnail RTL simulation\n$end\n")
        out.write(f"$timescale {self.timescale} $end\n")
        out.write(f"$scope module {_sanitize(self.module.name)} $end\n")
        for name, width, vcd_id, _key in self._signals:
            out.write(f"$var wire {width} {vcd_id} {_sanitize(name)} $end\n")
        out.write("$upscope $end\n$enddefinitions $end\n")
        for line in self._changes:
            out.write(line + "\n")
        out.write(f"#{self._time}\n")
        return out.getvalue()

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())


def trace_instruction(artifact, name: str, inputs: Dict[str, int],
                      cycles: Optional[int] = None,
                      engine: str = "auto") -> VCDTracer:
    """Convenience: trace one functionality driven with constant inputs for
    ``cycles`` (default: pipeline depth + 2)."""
    functionality = artifact.artifact(name)
    tracer = VCDTracer(functionality.module, engine=engine)
    depth = cycles or functionality.schedule.makespan + 2
    for _ in range(depth):
        tracer.step(inputs)
    return tracer
