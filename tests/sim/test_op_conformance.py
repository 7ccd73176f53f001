"""Exhaustive conformance of every ``comb`` op across its implementations.

Each backend implements the comb ops on its own: :func:`comb.evaluate` (the
reference), the code generator behind the ``compiled`` engine, and the
abstract interpreter's transfer functions.  They stay separate on
purpose, so that they can be compared; this module is where they are:

* **engine half** — for every operand value at widths 1-5, and for corner
  values at the machine-word boundaries (``BOUNDARY_WIDTHS`` plus 128),
  the ``interp`` and ``compiled`` engines both equal
  :func:`comb.evaluate`;
* **transfer half** — at widths 1-3, for every interval x known-bits
  operand fact, every concrete result lies inside the transfer's fact;
* **reference half** — :func:`comb.evaluate` itself against expectations
  computed here from first principles (RISC-V division by zero, shift
  flush and sign fill, two's-complement compares, ROM reads past the
  table), without the dialect's predicate table;
* **completeness** — every registered ``comb.*`` op has a case in both
  comparison halves.
"""

import functools
import itertools
import operator

import pytest

from repro.analysis.absint import AbsVal, _transfer_op
from repro.dialects import comb
from repro.dialects.comb import BINARY_OPS, ICMP_PREDICATES
from repro.dialects.hw import HWModule
from repro.ir.core import _REGISTRY, Operation
from repro.sim import RTLSimulator
from repro.utils.bits import mask, to_signed

from tests.sim.test_batched_engine import BOUNDARY_WIDTHS, corner_values

EXHAUSTIVE_WIDTHS = (1, 2, 3, 4, 5)
CORNER_WIDTHS = tuple(w for w in BOUNDARY_WIDTHS + (128,)
                      if w not in EXHAUSTIVE_WIDTHS)
TRANSFER_WIDTHS = (1, 2, 3)

COMB_OPS = frozenset(name for name in _REGISTRY if name.startswith("comb."))


def slices(width):
    """``(low, width)`` extract ranges: all of them at small widths, the
    ones touching either end or the middle at wide ones."""
    if width in EXHAUSTIVE_WIDTHS:
        return [(low, n) for low in range(width)
                for n in range(1, width - low + 1)]
    half = width // 2
    return sorted({(0, width), (0, 1), (width - 1, 1), (1, width - 1),
                   (half, width - half), (half // 2, half)})


def rom_tables(width):
    """A table one entry short of the index range (so some reads fall past
    it) and, where the range is small, a full one.  Entries are wider than
    the result, so every reader must mask them."""
    lengths = ([(1 << width) - 1, 1 << width]
               if width in EXHAUSTIVE_WIDTHS else [5])
    return [[(0x9E3779B97F4A7C15 * (i + 1)) >> 3 for i in range(n)]
            for n in lengths]


def comb_cases(module, width):
    """Every comb op over ``module``'s inputs ``a``, ``b`` (``width`` bits),
    ``c`` (1 bit) and, from width 2, ``n`` (:func:`narrow_width` bits, for
    the mixed-width compares).  Returns the unattached operations."""
    a, b, c = (module.body.operations[i].result for i in range(3))
    n = module.body.operations[3].result if width > 1 else None
    ops = [Operation(kind, [a, b], [(width, None)]) for kind in BINARY_OPS]
    for predicate in ICMP_PREDICATES:
        pairs = [(a, b)] + ([(a, n), (n, a)] if n is not None else [])
        ops += [Operation("comb.icmp", list(pair), [(1, None)],
                          {"predicate": predicate}) for pair in pairs]
    ops.append(Operation("comb.not", [a], [(width, None)]))
    ops.append(Operation("comb.mux", [c, a, b], [(width, None)]))
    ops += [Operation("comb.extract", [a], [(size, None)], {"low": low})
            for low, size in slices(width)]
    ops.append(Operation("comb.concat", [a, b], [(2 * width, None)]))
    ops.append(Operation("comb.concat", [c, a], [(width + 1, None)]))
    ops += [Operation("comb.replicate", [a], [(width * times, None)])
            for times in (1, 2, 3)]
    ops.append(Operation("comb.replicate", [c], [(width, None)]))
    ops += [Operation("comb.rom", [a], [(width, None)], {"values": table})
            for table in rom_tables(width)]
    ops.append(Operation("comb.constant", [], [(width, None)],
                         {"value": mask(width) // 3}))
    return ops


def operand_values(width):
    """Every value at small widths; at wide ones the corner values plus
    the shift amounts around the width."""
    if width in EXHAUSTIVE_WIDTHS:
        return range(1 << width)
    near = {v & mask(width) for v in (width - 1, width, width + 1)}
    return sorted(set(corner_values(width)) | near)


def narrow_width(width):
    """Width of the narrow compare operand: one bit less where every value
    is enumerated, half the width at wide ones."""
    return width - 1 if width in EXHAUSTIVE_WIDTHS else width // 2


def inputs_module(name, width):
    module = HWModule(name)
    module.add_input("a", width)
    module.add_input("b", width)
    module.add_input("c", 1)
    if width > 1:
        module.add_input("n", narrow_width(width))
    return module


# ---------------------------------------------------------------------------
# Engine half: interp and compiled equal comb.evaluate
# ---------------------------------------------------------------------------

def op_zoo(width):
    """One module computing every case, one output each, plus a constant
    operand and an all-constant op (which the code generators fold)."""
    module = inputs_module(f"zoo{width}", width)
    ops = comb_cases(module, width)
    constant = ops[-1]
    ops.append(Operation("comb.add", [module.body.operations[0].result,
                                      constant.result], [(width, None)]))
    ops.append(Operation("comb.mul", [constant.result, constant.result],
                         [(width, None)]))
    for index, op in enumerate(ops):
        module.body.append(op)
        module.add_output(f"o{index}", op.result)
    return module, ops


def stimulus(width):
    vectors = [{"a": a, "b": b, "c": c}
               for a in operand_values(width)
               for b in operand_values(width) for c in (0, 1)]
    if width > 1:
        # The narrow operand walks its own values in step with b, so every
        # mixed-width compare meets both operands' sign boundaries.
        narrow = operand_values(narrow_width(width))
        for index, vector in enumerate(vectors):
            vector["n"] = narrow[index // 2 % len(narrow)]
    return vectors


def evaluate_outputs(module, vector):
    values = {}
    outputs = {}
    for op in module.body.operations:
        if op.name == "hw.input":
            values[op.result] = vector.get(op.attr("name"), 0)
        elif op.name == "hw.output":
            outputs[op.attr("name")] = values[op.operands[0]]
        else:
            values[op.result] = comb.evaluate(
                op, [values[v] for v in op.operands])
    return outputs


def describe(op):
    widths = ", ".join(f"i{v.width}" for v in op.operands)
    return f"{op.name}{op.attributes or ''}({widths}) -> i{op.result.width}"


@pytest.mark.parametrize("width", EXHAUSTIVE_WIDTHS + CORNER_WIDTHS)
def test_engines_equal_evaluate(width):
    module, ops = op_zoo(width)
    vectors = stimulus(width)
    expected = [evaluate_outputs(module, vector) for vector in vectors]
    traces = {
        "interp": RTLSimulator(module, engine="interp").run(vectors),
        "compiled": RTLSimulator(module, engine="compiled").run(vectors),
    }
    for engine, trace in traces.items():
        for vector, want, got in zip(vectors, expected, trace):
            if got == want:
                continue
            name = next(k for k in want if got[k] != want[k])
            op = ops[int(name[1:])]
            pytest.fail(f"{engine}: {describe(op)} on {vector}: "
                        f"{got[name]:#x}, evaluate says {want[name]:#x}")


# ---------------------------------------------------------------------------
# Transfer half: evaluate lies inside the absint transfer
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def all_facts(width):
    """Every distinct fact ``AbsVal.make`` builds from an interval and a
    known-bits pattern, each with the values it admits."""
    facts = {}
    for lo in range(1 << width):
        for hi in range(lo, 1 << width):
            for bits in itertools.product((None, 0, 1), repeat=width):
                zeros = sum(1 << i for i, bit in enumerate(bits) if bit == 0)
                ones = sum(1 << i for i, bit in enumerate(bits) if bit == 1)
                fact = AbsVal.make(width, lo, hi, zeros, ones)
                facts[fact.lo, fact.hi, fact.zeros, fact.ones] = fact
    return [(fact, [v for v in range(1 << width) if fact.contains(v)])
            for fact in facts.values()]


def check_transfer(op):
    """Fail on the first operand facts whose transfer excludes a concrete
    result of ``comb.evaluate``."""
    results = {
        operands: comb.evaluate(op, list(operands))
        for operands in itertools.product(
            *(range(1 << value.width) for value in op.operands))
    }
    for combo in itertools.product(*(all_facts(v.width)
                                     for v in op.operands)):
        lookup = dict(zip(op.operands, (fact for fact, _ in combo)))
        [out] = _transfer_op(op, lookup.__getitem__)
        lo, hi, zeros, ones = out.lo, out.hi, out.zeros, out.ones
        for operands in itertools.product(*(vals for _, vals in combo)):
            value = results[operands]
            if not (lo <= value <= hi and not value & zeros
                    and value & ones == ones):
                facts = ", ".join(repr(fact) for fact, _ in combo)
                pytest.fail(f"{describe(op)} on {operands} = {value:#x} "
                            f"from ({facts}) lies outside {out!r}")


@pytest.mark.parametrize("width", TRANSFER_WIDTHS)
def test_evaluate_lies_inside_the_transfer(width):
    for op in comb_cases(inputs_module("transfer", width), width):
        check_transfer(op)


# ---------------------------------------------------------------------------
# Reference half: comb.evaluate against first principles
# ---------------------------------------------------------------------------

_UNSIGNED = {"eq": operator.eq, "ne": operator.ne, "ult": operator.lt,
             "ule": operator.le, "ugt": operator.gt, "uge": operator.ge}
_SIGNED = {"slt": operator.lt, "sle": operator.le, "sgt": operator.gt,
           "sge": operator.ge}


def expected_binary(kind, a, b, width):
    """RISC-V M semantics on ``width``-bit patterns."""
    m = mask(width)
    sa, sb = to_signed(a, width), to_signed(b, width)
    if kind in ("comb.divu", "comb.divs") and b == 0:
        return m                             # x/0 = all ones
    if kind in ("comb.modu", "comb.mods") and b == 0:
        return a                             # x%0 = x
    if kind == "comb.divs":
        q = sa // sb                         # floor ...
        if q < 0 and q * sb != sa:
            q += 1                           # ... rounded toward zero
        return q & m
    if kind == "comb.mods":
        r = abs(sa) % abs(sb)
        return (-r if sa < 0 else r) & m     # sign of the dividend
    if kind in ("comb.shl", "comb.shru"):
        if b >= width:
            return 0                         # logical shifts flush
        return (a << b) & m if kind == "comb.shl" else a >> b
    if kind == "comb.shrs":
        return (sa >> min(b, width)) & m     # the sign fills every bit
    arithmetic = {"comb.add": operator.add, "comb.sub": operator.sub,
                  "comb.mul": operator.mul, "comb.divu": operator.floordiv,
                  "comb.modu": operator.mod, "comb.and": operator.and_,
                  "comb.or": operator.or_, "comb.xor": operator.xor}
    return arithmetic[kind](a, b) % (1 << width)


def expected_icmp(predicate, a, b, wa, wb):
    if predicate in _SIGNED:
        return int(_SIGNED[predicate](to_signed(a, wa), to_signed(b, wb)))
    return int(_UNSIGNED[predicate](a, b))


@pytest.mark.parametrize("width", EXHAUSTIVE_WIDTHS + CORNER_WIDTHS)
def test_evaluate_follows_riscv_and_twos_complement(width):
    module = inputs_module("reference", width)
    values = operand_values(width)
    for op in comb_cases(module, width):
        if op.name in BINARY_OPS:
            for a, b in itertools.product(values, values):
                assert comb.evaluate(op, [a, b]) == \
                    expected_binary(op.name, a, b, width), (op.name, a, b)
        elif op.name == "comb.icmp":
            wa, wb = (v.width for v in op.operands)
            for a, b in itertools.product(operand_values(wa),
                                          operand_values(wb)):
                assert comb.evaluate(op, [a, b]) == expected_icmp(
                    op.attr("predicate"), a, b, wa, wb), (describe(op), a, b)


def test_rom_reads_past_the_table_are_zero():
    table = [0xAB, 0x01, 0x1FF, 0x7E]
    module = inputs_module("rom", 8)
    rom = Operation("comb.rom", [module.body.operations[0].result],
                    [(8, None)], {"values": table})
    for index in range(256):
        want = table[index] & 0xFF if index < len(table) else 0
        assert comb.evaluate(rom, [index]) == want, index


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------

def test_every_comb_op_has_a_case():
    """Both comparison halves take their ops from ``comb_cases``."""
    for width in (1, max(CORNER_WIDTHS)):
        covered = {op.name for op in comb_cases(
            inputs_module("cases", width), width)}
        assert COMB_OPS <= covered, sorted(COMB_OPS - covered)
