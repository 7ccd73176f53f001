"""The ``comb`` dialect: signless combinational logic (CIRCT's comb).

Conventions (enforced by verifiers):

* arithmetic/bitwise/shift/mux operands have the width of the result —
  the hwarith->comb lowering inserts explicit zero/sign extensions first,
* ``comb.concat`` takes its operands MSB-first,
* ``comb.icmp`` carries a ``predicate`` attribute and produces ``i1``.

Each operation also has an evaluation function (used by the constant folder
and by the RTL simulator) operating on unsigned bit-pattern ints.

The facts that several backends share are declared here once: the icmp
predicate table (:data:`ICMP`) and the op classes (:data:`SHIFT_OPS`,
:data:`DIVMOD_OPS`, :data:`WIRING_OPS`, :data:`INFIX`).  Each backend keeps
its own per-op rules — :func:`evaluate`, the simulator code generators,
the abstract-interpretation transfer functions and the SystemVerilog
printer are independent implementations on purpose, so the engine and
soundness oracles have something to compare.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.ir.core import IRError, OpDef, Operation, register_op
from repro.utils.bits import mask, to_signed, to_unsigned


class IcmpPredicate(NamedTuple):
    """One ``comb.icmp`` predicate."""

    #: Comparison operator, spelled the same in Python and SystemVerilog.
    symbol: str
    #: Compares two's-complement readings instead of bit patterns.
    signed: bool
    #: The predicate with the operands swapped: ``a P b == b P' a``.
    swapped: str
    #: The logical negation: ``!(a P b) == a P' b``.
    negated: str


ICMP: Dict[str, IcmpPredicate] = {
    "eq": IcmpPredicate("==", False, "eq", "ne"),
    "ne": IcmpPredicate("!=", False, "ne", "eq"),
    "ult": IcmpPredicate("<", False, "ugt", "uge"),
    "ule": IcmpPredicate("<=", False, "uge", "ugt"),
    "ugt": IcmpPredicate(">", False, "ult", "ule"),
    "uge": IcmpPredicate(">=", False, "ule", "ult"),
    "slt": IcmpPredicate("<", True, "sgt", "sge"),
    "sle": IcmpPredicate("<=", True, "sge", "sgt"),
    "sgt": IcmpPredicate(">", True, "slt", "sle"),
    "sge": IcmpPredicate(">=", True, "sle", "slt"),
}
ICMP_PREDICATES = tuple(ICMP)

#: Shifts: the second operand is the shift amount.
SHIFT_OPS = ("comb.shl", "comb.shru", "comb.shrs")
#: Division and remainder (x/0 is all-ones, x%0 is x).
DIVMOD_OPS = ("comb.divu", "comb.divs", "comb.modu", "comb.mods")
#: Pure wiring: no logic in hardware.
WIRING_OPS = ("comb.constant", "comb.extract", "comb.concat",
              "comb.replicate")
#: Binary ops whose infix operator Python and SystemVerilog spell alike.
INFIX = {
    "comb.add": "+", "comb.sub": "-", "comb.mul": "*",
    "comb.and": "&", "comb.or": "|", "comb.xor": "^",
}


# ---------------------------------------------------------------------------
# Verifiers
# ---------------------------------------------------------------------------

def _verify_same_width(op: Operation) -> None:
    width = op.result.width
    for operand in op.operands:
        if operand.width != width:
            raise IRError(
                f"'{op.name}' operand width {operand.width} != result width "
                f"{width}"
            )


def _verify_binary(op: Operation) -> None:
    if len(op.operands) != 2:
        raise IRError(f"'{op.name}' expects 2 operands, has {len(op.operands)}")
    _verify_same_width(op)


def _verify_icmp(op: Operation) -> None:
    if len(op.operands) != 2:
        raise IRError("'comb.icmp' expects 2 operands")
    if op.operands[0].width != op.operands[1].width:
        raise IRError("'comb.icmp' operands must have equal widths")
    if op.result.width != 1:
        raise IRError("'comb.icmp' result must be i1")
    if op.attr("predicate") not in ICMP_PREDICATES:
        raise IRError(f"invalid icmp predicate {op.attr('predicate')!r}")


def _verify_mux(op: Operation) -> None:
    if len(op.operands) != 3:
        raise IRError("'comb.mux' expects (cond, true, false)")
    if op.operands[0].width != 1:
        raise IRError("'comb.mux' condition must be i1")
    if op.operands[1].width != op.result.width or op.operands[2].width != op.result.width:
        raise IRError("'comb.mux' value widths must match the result")


def _verify_extract(op: Operation) -> None:
    if len(op.operands) != 1:
        raise IRError("'comb.extract' expects 1 operand")
    low = op.attr("low")
    if low is None or low < 0:
        raise IRError("'comb.extract' needs a non-negative 'low' attribute")
    if low + op.result.width > op.operands[0].width:
        raise IRError(
            f"'comb.extract' range [{low}+:{op.result.width}] exceeds operand "
            f"width {op.operands[0].width}"
        )


def _verify_concat(op: Operation) -> None:
    if not op.operands:
        raise IRError("'comb.concat' needs at least one operand")
    total = sum(operand.width for operand in op.operands)
    if total != op.result.width:
        raise IRError(
            f"'comb.concat' result width {op.result.width} != sum of operand "
            f"widths {total}"
        )


def _verify_replicate(op: Operation) -> None:
    if len(op.operands) != 1:
        raise IRError("'comb.replicate' expects 1 operand")
    if op.result.width % op.operands[0].width != 0:
        raise IRError("'comb.replicate' result width must be a multiple of input")


def _verify_constant(op: Operation) -> None:
    if op.operands:
        raise IRError("'comb.constant' takes no operands")
    value = op.attr("value")
    if value is None or value < 0 or value > mask(op.result.width):
        raise IRError(
            f"'comb.constant' value {value!r} out of range for "
            f"i{op.result.width}"
        )


# ---------------------------------------------------------------------------
# Evaluation (shared by folder and simulator)
# ---------------------------------------------------------------------------

def _eval_divu(a: int, b: int, width: int) -> int:
    return a // b if b else mask(width)  # div-by-zero yields all-ones (RISC-V)


def _eval_divs(a: int, b: int, width: int) -> int:
    sa, sb = to_signed(a, width), to_signed(b, width)
    if sb == 0:
        return mask(width)
    q = abs(sa) // abs(sb)
    return to_unsigned(-q if (sa < 0) != (sb < 0) else q, width)


def _eval_modu(a: int, b: int, width: int) -> int:
    return a % b if b else a


def _eval_mods(a: int, b: int, width: int) -> int:
    sa, sb = to_signed(a, width), to_signed(b, width)
    if sb == 0:
        return a
    q = abs(sa) // abs(sb)
    q = -q if (sa < 0) != (sb < 0) else q
    return to_unsigned(sa - q * sb, width)


def _eval_shl(a: int, b: int, width: int) -> int:
    return to_unsigned(a << b, width) if b < width else 0


def _eval_shru(a: int, b: int, width: int) -> int:
    return a >> b if b < width else 0


def _eval_shrs(a: int, b: int, width: int) -> int:
    sa = to_signed(a, width)
    shift = min(b, width - 1)
    return to_unsigned(sa >> shift, width)


_BINARY_EVAL: Dict[str, Callable[[int, int, int], int]] = {
    "comb.add": lambda a, b, w: to_unsigned(a + b, w),
    "comb.sub": lambda a, b, w: to_unsigned(a - b, w),
    "comb.mul": lambda a, b, w: to_unsigned(a * b, w),
    "comb.divu": _eval_divu,
    "comb.divs": _eval_divs,
    "comb.modu": _eval_modu,
    "comb.mods": _eval_mods,
    "comb.and": lambda a, b, w: a & b,
    "comb.or": lambda a, b, w: a | b,
    "comb.xor": lambda a, b, w: a ^ b,
    "comb.shl": _eval_shl,
    "comb.shru": _eval_shru,
    "comb.shrs": _eval_shrs,
}

_COMPARE: Dict[str, Callable[[int, int], bool]] = {
    "==": operator.eq, "!=": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def evaluate(op: Operation, operand_values: List[int]) -> int:
    """Evaluate a comb operation on unsigned operand values."""
    name = op.name
    width = op.result.width
    if name == "comb.constant":
        # The attribute is validated at construction/verify time, but mask
        # defensively: an out-of-range value must never leak into dataflow.
        return op.attr("value") & mask(width)
    if name in _BINARY_EVAL:
        a, b = operand_values
        return _BINARY_EVAL[name](a, b, width)
    if name == "comb.not":
        return to_unsigned(~operand_values[0], width)
    if name == "comb.icmp":
        a, b = operand_values
        predicate = ICMP[op.attr("predicate")]
        if predicate.signed:
            # Each operand sign-extends from its *own* width: verified IR
            # guarantees equal widths, but ops are evaluated before
            # verification too (hand-built netlists, fuzz reducers), and
            # borrowing operand 0's width would mis-sign operand 1.
            a = to_signed(a, op.operands[0].width)
            b = to_signed(b, op.operands[1].width)
        return int(_COMPARE[predicate.symbol](a, b))
    if name == "comb.mux":
        cond, true_value, false_value = operand_values
        return true_value if cond else false_value
    if name == "comb.extract":
        return (operand_values[0] >> op.attr("low")) & mask(width)
    if name == "comb.concat":
        out = 0
        for operand, value in zip(op.operands, operand_values):
            out = (out << operand.width) | to_unsigned(value, operand.width)
        return out
    if name == "comb.replicate":
        chunk_width = op.operands[0].width
        chunk = to_unsigned(operand_values[0], chunk_width)
        times = width // chunk_width
        out = 0
        for _ in range(times):
            out = (out << chunk_width) | chunk
        return out
    if name == "comb.rom":
        table = op.attr("values")
        index = operand_values[0]
        return table[index] & mask(width) if index < len(table) else 0
    raise IRError(f"no evaluation rule for '{name}'")


def _fold(op: Operation, operand_values: List[Optional[int]]) -> Optional[int]:
    if any(value is None for value in operand_values):
        return None
    return evaluate(op, operand_values)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

register_op(OpDef("comb.constant", verifier=_verify_constant,
                  folder=lambda op, vals: op.attr("value") & mask(op.result.width)))
for _name in _BINARY_EVAL:
    register_op(OpDef(_name, verifier=_verify_binary, folder=_fold))
register_op(OpDef("comb.not", verifier=_verify_same_width, folder=_fold))
register_op(OpDef("comb.icmp", verifier=_verify_icmp, folder=_fold))
register_op(OpDef("comb.mux", verifier=_verify_mux, folder=_fold))
register_op(OpDef("comb.extract", verifier=_verify_extract, folder=_fold))
register_op(OpDef("comb.concat", verifier=_verify_concat, folder=_fold))
register_op(OpDef("comb.replicate", verifier=_verify_replicate, folder=_fold))
#: ROM lookup: constant registers internalized into the ISAX module
#: (paper Section 4.5); 'values' attribute holds the table.
register_op(OpDef("comb.rom", folder=_fold))

BINARY_OPS = tuple(_BINARY_EVAL)
