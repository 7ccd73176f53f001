"""A 22 nm-class technology library.

The paper synthesizes with a commercial 22 nm flow; this module provides the
closest synthetic equivalent: per-operator propagation delays (ns) and cell
areas (µm²) in the range of published 22 nm standard-cell results (NAND2
around 0.25 µm², a flip-flop around 2 µm², a 32-bit adder in the
50-80 µm² / 0.2-0.3 ns class).  The absolute values are a model; what the
evaluation relies on is that *relative* costs (a multiplier is much bigger
than an adder, flip-flops dominate deep pipelines, ROMs are cheap logic)
behave like real synthesis.

The library also provides the scheduler's delay model (Section 4.2 notes
Longnail is intended to consume "an actual target-specific technology
library, providing real hardware delays and areas" — this is that library).
"""

from __future__ import annotations

import math
from typing import Callable

from repro.dialects import comb
from repro.ir.core import Operation

#: ns per logic level at the 22 nm node (fanout-4 inverter class).
_FO4 = 0.022


def _log2(width: int) -> float:
    return math.log2(max(2, width))


class TechLibrary:
    """Delay/area characterization of the operator set."""

    name = "generic-22nm"
    #: Flip-flop area per bit (µm²).
    ff_area = 2.0
    #: Basic 2-input gate area per bit (µm²).
    gate_area = 0.25

    # ------------------------------------------------------------- delays
    def delay_ns(self, op: Operation) -> float:
        """Propagation delay of one operator instance."""
        name = op.name
        width = op.results[0].width if op.results else 1
        if name in comb.WIRING_OPS or name == "lil.sink":
            return 0.0
        if name in ("comb.add", "comb.sub"):
            # Carry-lookahead-class adder: logarithmic depth.
            return _FO4 * (2 + 1.6 * _log2(width))
        if name == "comb.mul":
            operand_width = max(self._mul_widths(op))
            return _FO4 * (4 + 3.2 * _log2(operand_width))
        if name in comb.DIVMOD_OPS:
            operand_width = max(o.width for o in op.operands)
            return _FO4 * (8 + operand_width * 1.5)
        if name == "comb.icmp":
            operand_width = op.operands[0].width
            return _FO4 * (1 + 1.4 * _log2(operand_width))
        if name in ("comb.and", "comb.or", "comb.xor", "comb.not"):
            return _FO4 * 1.4
        if name == "comb.mux":
            return _FO4 * 1.8
        if name in comb.SHIFT_OPS:
            return _FO4 * (1.2 * _log2(width))
        if name in ("comb.rom", "lil.rom"):
            entries = len(op.attr("values") or [])
            return _FO4 * (2 + 1.8 * _log2(max(2, entries)))
        if name.startswith("lil.") or name.startswith("hw.") or \
                name.startswith("seq."):
            # Interface and port operations: boundary mux/buffer delay.
            return _FO4 * 3
        return _FO4 * 2

    def delay_model(self) -> Callable[[Operation], float]:
        return self.delay_ns

    @staticmethod
    def _mul_widths(op: Operation):
        """Pre-extension operand widths recorded by the lowering; synthesis
        infers a w1 x w2 multiplier regardless of the result width."""
        widths = op.attr("op_widths")
        if widths:
            return widths
        return [o.width for o in op.operands]

    # --------------------------------------------------------------- areas
    def area_um2(self, op: Operation) -> float:
        """Cell area of one operator instance (µm²)."""
        name = op.name
        width = op.results[0].width if op.results else 1
        if name in comb.WIRING_OPS or name in ("lil.sink", "hw.input",
                                               "hw.output"):
            return 0.0
        if name in ("comb.add", "comb.sub"):
            return 1.2 * width
        if name == "comb.mul":
            w1, w2 = self._mul_widths(op)[:2]
            return 2.2 * w1 * w2
        if name in comb.DIVMOD_OPS:
            operand_width = max(o.width for o in op.operands)
            return 2.0 * operand_width * operand_width
        if name == "comb.icmp":
            return 0.55 * op.operands[0].width
        if name in ("comb.and", "comb.or", "comb.xor"):
            return self.gate_area * width
        if name == "comb.not":
            return 0.15 * width
        if name == "comb.mux":
            return 0.4 * width
        if name in comb.SHIFT_OPS:
            return 0.5 * width * _log2(width)
        if name in ("comb.rom", "lil.rom"):
            entries = len(op.attr("values") or [])
            # Synthesized as logic; an AES S-box lands near 130 µm².
            return 0.06 * entries * width
        if name == "seq.compreg":
            return self.ff_area * width
        return 0.0

    # --------------------------------------------- glue logic (integration)
    #: µm² per glue bit, by GlueItem kind (see scaiev.integrate).
    glue_area_per_bit = {
        "decode": 0.3,
        "mux": 0.5,
        "storage": 2.0,
        "valid_pipe": 2.0,
        "comparator": 1.0,
        "stall": 1.0,
    }

    #: Extra wiring/buffering factor applied on top of raw cell area,
    #: approximating placement-and-routing overhead.
    routing_factor = 1.25

    #: Fraction of the base core's cycle consumed by the forwarding path's
    #: downstream logic (issue mux + ALU input); used by the Section 5.4
    #: forwarding-penalty model.
    forwarding_consumer_fraction = 0.9
