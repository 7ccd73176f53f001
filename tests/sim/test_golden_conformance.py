"""Exhaustive conformance of the CoreDSL golden model at widths 1-4.

Every operator, cast, ``::`` concatenation and bit or range select runs
on every operand value of every type pair drawn from {signed, unsigned} x
widths 1-4.  Each operand lives in a local of its type; each result is
written through ``(unsigned<64>)`` into its own custom register and read
back from the effects.  The expected values come from the value rules of
paper Section 2.3, computed here on Python ints: operators yield the exact
mathematical result (the result type is wide enough), casts and ``~`` act
on the two's-complement pattern at the type's width, a shift amount
counts as its bit pattern (the RTL's reading of a negative signed
amount), ``/`` and ``%`` truncate toward zero, and division by zero is an
error.  Nothing from ``repro.sim`` computes an expectation.
"""

import itertools
import operator

import pytest

from repro.frontend import elaborate
from repro.sim import ArchState, CoreDSLInterpreter
from repro.utils.diagnostics import CoreDSLError

#: ``(is_signed, width)``: the 8 operand types.
TYPES = [(signed, width) for signed in (False, True) for width in (1, 2, 3, 4)]
MASK64 = (1 << 64) - 1


def spell(type_):
    signed, width = type_
    return f"{'signed' if signed else 'unsigned'}<{width}>"


def values(type_):
    signed, width = type_
    return range(-(1 << (width - 1)), 1 << (width - 1)) if signed \
        else range(1 << width)


def pattern(value, width):
    """The low ``width`` bits of ``value``'s two's complement."""
    return value & ((1 << width) - 1)


def reinterpret(value, type_):
    """``value``'s bit pattern at ``type_``'s width, read as ``type_``."""
    signed, width = type_
    bits = pattern(value, width)
    return bits - (1 << width) if signed and bits >> (width - 1) else bits


def common_type(lhs, rhs):
    """Bitwise operands meet in one type: a lone unsigned operand widens
    by one bit and turns signed, which keeps its value."""
    if lhs[0] != rhs[0]:
        lhs, rhs = ((True, lhs[1] + (not lhs[0])),
                    (True, rhs[1] + (not rhs[0])))
    return lhs[0], max(lhs[1], rhs[1])


def c_div(lhs, rhs):
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


def bitwise(op):
    def apply(a, b, ta, tb):
        common = common_type(ta, tb)
        return reinterpret(op(pattern(a, common[1]), pattern(b, common[1])),
                           common)
    return apply


def compare(op):
    return lambda a, b, ta, tb: int(op(a, b))


BINARY = {
    "+": lambda a, b, ta, tb: a + b,
    "-": lambda a, b, ta, tb: a - b,
    "*": lambda a, b, ta, tb: a * b,
    "&": bitwise(operator.and_),
    "|": bitwise(operator.or_),
    "^": bitwise(operator.xor),
    "==": compare(operator.eq),
    "!=": compare(operator.ne),
    "<": compare(operator.lt),
    "<=": compare(operator.le),
    ">": compare(operator.gt),
    ">=": compare(operator.ge),
    "&&": lambda a, b, ta, tb: int(a != 0 and b != 0),
    "||": lambda a, b, ta, tb: int(a != 0 or b != 0),
    "::": lambda a, b, ta, tb: pattern(a, ta[1]) << tb[1] | pattern(b, tb[1]),
    # A shift amount counts as its bit pattern, so a negative signed
    # amount shifts far; ``>>`` of a signed value is arithmetic.
    "<<": lambda a, b, ta, tb: a << pattern(b, tb[1]),
    ">>": lambda a, b, ta, tb: a >> pattern(b, tb[1]),
}
DIVISION = {
    "/": lambda a, b, ta, tb: c_div(a, b),
    "%": lambda a, b, ta, tb: a - c_div(a, b) * b,
}


def unary_cases(type_):
    """``(CoreDSL expression over a and i, expected(a, i))`` pairs."""
    width = type_[1]
    cases = [("-a", lambda a, i: -a),
             ("!a", lambda a, i: int(a == 0)),
             ("~a", lambda a, i: reinterpret(~a, type_)),
             ("(signed) a", lambda a, i: reinterpret(a, (True, width))),
             ("(unsigned) a", lambda a, i: reinterpret(a, (False, width))),
             # A bit select on a value reads 0 outside the value.
             ("a[i]", lambda a, i: (pattern(a, width) >> i) & 1
              if 0 <= i < width else 0)]
    cases += [(f"({spell(target)}) a",
               lambda a, i, target=target: reinterpret(a, target))
              for target in TYPES]
    cases += [(f"a[{high}:{low}]",
               lambda a, i, high=high, low=low:
               pattern(pattern(a, width) >> low, high - low + 1))
              for low in range(width) for high in range(low, width)]
    return cases


def source(ta, tb, groups):
    """One ISAX: instruction ``k`` evaluates ``groups[k]``, each result
    into register ``R<k>_<j>``."""
    registers = [f"R{k}_{j}" for k, group in enumerate(groups)
                 for j in range(len(group))]
    instructions = []
    for k, group in enumerate(groups):
        writes = "\n".join(f"R{k}_{j} = (unsigned<64>) ({expr});"
                           for j, expr in enumerate(group))
        instructions.append(f"""
    op{k} {{
      encoding: 17'd0 :: 3'd{k} :: 5'd0 :: 7'b0001011;
      behavior: {{
        {spell(ta)} a = A;
        {spell(tb)} b = B;
        signed<8> i = I;
        {writes}
      }}
    }}""")
    return f"""
import "RV32I.core_desc"
InstructionSet conformance extends RV32I {{
  architectural_state {{
    register unsigned<64> {", ".join(registers)};
    register {spell(ta)} A;
    register {spell(tb)} B;
    register signed<8> I;
  }}
  instructions {{{"".join(instructions)}
  }}
}}
"""


def run(isa, k, a, b, i=0):
    """Results of instruction ``op<k>`` by register, as unsigned<64>."""
    interp = CoreDSLInterpreter(isa)
    state = ArchState(isa)
    for name, value in (("A", a), ("B", b), ("I", i)):
        state.write_custom(name, value)
    word = isa.instructions[f"op{k}"].encoding.encode({})
    effects = interp.execute_instruction(state, f"op{k}", word)
    return {effect.name: effect.value for effect in effects}


def check(isa, k, rules, a, b, ta, tb):
    results = run(isa, k, a, b)
    for j, (op, rule) in enumerate(rules):
        expected = rule(a, b, ta, tb) & MASK64
        assert results[f"R{k}_{j}"] == expected, (
            f"{spell(ta)} {a} {op} {spell(tb)} {b}: "
            f"got {results[f'R{k}_{j}']:#x}, expected {expected:#x}")


@pytest.mark.parametrize("ta, tb", list(itertools.product(TYPES, TYPES)),
                         ids=lambda t: spell(t).replace("igned", ""))
def test_binary_operators(ta, tb):
    binary = list(BINARY.items())
    division = list(DIVISION.items())
    isa = elaborate(source(ta, tb, [[f"a {op} b" for op, _ in binary],
                                    ["a / b"], ["a % b"]]))
    for a, b in itertools.product(values(ta), values(tb)):
        check(isa, 0, binary, a, b, ta, tb)
        for k, rule in enumerate(division, start=1):
            if b == 0:
                with pytest.raises(CoreDSLError, match="by zero"):
                    run(isa, k, a, b)
            else:
                check(isa, k, [rule], a, b, ta, tb)


@pytest.mark.parametrize("ta", TYPES, ids=spell)
def test_unary_operators_casts_and_selects(ta):
    cases = unary_cases(ta)
    isa = elaborate(source(ta, ta, [[expr for expr, _ in cases]]))
    for a in values(ta):
        for i in range(-1, ta[1] + 1):
            results = run(isa, 0, a, 0, i)
            for j, (expr, rule) in enumerate(cases):
                expected = rule(a, i) & MASK64
                assert results[f"R0_{j}"] == expected, (
                    f"{expr} with a = {a} ({spell(ta)}), i = {i}: "
                    f"got {results[f'R0_{j}']:#x}, expected {expected:#x}")
