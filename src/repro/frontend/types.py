"""The CoreDSL type system (paper Section 2.3).

CoreDSL is built around signed and unsigned integers with arbitrary bitwidths
in two's-complement representation.  The key properties implemented here:

* **No implicit information loss.**  ``unsigned<4> = unsigned<5>`` and
  ``unsigned<4> = signed<4>`` are rejected; widening that preserves every
  representable value is implicit.
* **Bitwidth-aware operators.**  All arithmetic operators accept mixed
  signedness and produce a result wide enough to represent every possible
  value (``unsigned<5> + signed<4> -> signed<7>``).
* **Explicit narrowing** via C-style casts.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.utils.diagnostics import CoreDSLError

#: Widest type the checker will synthesize before demanding an explicit cast.
MAX_SYNTH_WIDTH = 4096


class Type:
    """Base class for CoreDSL types."""


@dataclasses.dataclass(frozen=True)
class IntType(Type):
    """``signed<width>`` or ``unsigned<width>``."""

    width: int
    is_signed: bool

    def __post_init__(self) -> None:
        if self.width < 1:
            raise CoreDSLError(f"integer type must have width >= 1, got {self.width}")

    # -- value range --------------------------------------------------------
    @property
    def min_value(self) -> int:
        return -(1 << (self.width - 1)) if self.is_signed else 0

    @property
    def max_value(self) -> int:
        if self.is_signed:
            return (1 << (self.width - 1)) - 1
        return (1 << self.width) - 1

    def can_represent(self, value: int) -> bool:
        return self.min_value <= value <= self.max_value

    # -- conversions ---------------------------------------------------------
    def implicitly_convertible_to(self, other: "Type") -> bool:
        """True iff every value of ``self`` is representable in ``other``
        (the paper's rule: precision or sign is never lost implicitly)."""
        if not isinstance(other, IntType):
            return False
        return (
            other.min_value <= self.min_value
            and self.max_value <= other.max_value
        )

    # -- display -------------------------------------------------------------
    def __str__(self) -> str:
        return f"{'signed' if self.is_signed else 'unsigned'}<{self.width}>"


@dataclasses.dataclass(frozen=True)
class VoidType(Type):
    def __str__(self) -> str:
        return "void"


def signed(width: int) -> IntType:
    return IntType(width, True)


def unsigned(width: int) -> IntType:
    return IntType(width, False)


VOID = VoidType()
BOOL = unsigned(1)

#: C-style aliases accepted by the parser.
ALIASES = {
    "int": signed(32),
    "char": signed(8),
    "short": signed(16),
    "long": signed(64),
    "bool": unsigned(1),
}


def _check_width(width: int, what: str) -> None:
    if width > MAX_SYNTH_WIDTH:
        raise CoreDSLError(
            f"{what} would require {width} bits (> {MAX_SYNTH_WIDTH}); "
            "add an explicit cast"
        )


def promote(lhs: IntType, rhs: IntType) -> tuple:
    """Bring two operands into a common signedness domain.

    If exactly one operand is signed, the unsigned operand is widened by one
    bit and reinterpreted as signed, which preserves its value.
    """
    if lhs.is_signed == rhs.is_signed:
        return lhs, rhs
    if lhs.is_signed:
        return lhs, signed(rhs.width + 1)
    return signed(lhs.width + 1), rhs


def add_result(lhs: IntType, rhs: IntType) -> IntType:
    """``u5 + s4 -> s7`` (paper example): promote, then max-width + 1."""
    lp, rp = promote(lhs, rhs)
    width = max(lp.width, rp.width) + 1
    _check_width(width, "addition result")
    return IntType(width, lp.is_signed)


def sub_result(lhs: IntType, rhs: IntType) -> IntType:
    """Subtraction of unsigned values can be negative, so the result is
    always signed."""
    lp, rp = promote(lhs, rhs)
    width = max(lp.width, rp.width) + 1
    _check_width(width, "subtraction result")
    return signed(width)


def mul_result(lhs: IntType, rhs: IntType) -> IntType:
    lp, rp = promote(lhs, rhs)
    width = lp.width + rp.width
    _check_width(width, "multiplication result")
    return IntType(width, lp.is_signed)


def div_result(lhs: IntType, rhs: IntType) -> IntType:
    lp, rp = promote(lhs, rhs)
    # -min / -1 overflows by one bit for signed dividends.
    width = lp.width + (1 if lp.is_signed else 0)
    _check_width(width, "division result")
    return IntType(width, lp.is_signed or rp.is_signed)


def mod_result(lhs: IntType, rhs: IntType) -> IntType:
    lp, rp = promote(lhs, rhs)
    width = min(lp.width, rp.width)
    return IntType(width, lp.is_signed)


def bitwise_result(lhs: IntType, rhs: IntType) -> IntType:
    lp, rp = promote(lhs, rhs)
    width = max(lp.width, rp.width)
    _check_width(width, "bitwise result")
    return IntType(width, lp.is_signed)


def shl_result(lhs: IntType, rhs: IntType, shift_const: Optional[int] = None) -> IntType:
    """Left shift grows the value; with a compile-time constant shift amount
    the growth is exact, otherwise we assume the maximum encodable shift.
    A shift amount counts as its bit pattern, so a signed amount can
    shift by up to ``2**width - 1`` like an unsigned one."""
    if shift_const is not None:
        width = lhs.width + max(0, shift_const)
    else:
        width = lhs.width + (1 << rhs.width) - 1
    _check_width(width, "left-shift result")
    return IntType(width, lhs.is_signed)


def shr_result(lhs: IntType, rhs: IntType) -> IntType:
    return lhs


def neg_result(operand: IntType) -> IntType:
    width = operand.width + 1
    _check_width(width, "negation result")
    return signed(width)


def not_result(operand: IntType) -> IntType:
    return operand


def concat_result(lhs: IntType, rhs: IntType) -> IntType:
    width = lhs.width + rhs.width
    _check_width(width, "concatenation result")
    return unsigned(width)


def slice_result(hi: int, lo: int) -> IntType:
    if hi < lo:
        raise CoreDSLError(f"invalid bit range [{hi}:{lo}] (from < to)")
    return unsigned(hi - lo + 1)


def common_supertype(lhs: IntType, rhs: IntType) -> IntType:
    """Smallest type both operands implicitly convert to (used for the
    conditional operator and control-flow merges)."""
    lp, rp = promote(lhs, rhs)
    width = max(lp.width, rp.width)
    result = IntType(width, lp.is_signed)
    if not (lhs.implicitly_convertible_to(result) and rhs.implicitly_convertible_to(result)):
        width += 1
        result = IntType(width, lp.is_signed)
    _check_width(width, "merged result")
    return result


def literal_type(value: int) -> IntType:
    """Integer literals get the minimal-width unsigned type (paper 2.3)."""
    if value < 0:
        raise CoreDSLError("negative literals are expressed as unary minus")
    return unsigned(max(1, value.bit_length()))
