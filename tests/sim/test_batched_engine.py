"""Engine parity on hand-built netlists: the compiled RTL engine against
the interpreter.

These tests pin the width hazards deterministically — width-boundary
arithmetic, division by zero, shifts at and past the operand width, ROM
out-of-range indices, per-operand icmp sign extension — and fuzz both
engines with hypothesis-generated random netlists, comparing them bit for
bit.  The file is named after the retired numpy lane engine it was
written for; it keeps that name because ``test_op_conformance.py`` and
``tests/analysis/test_absint_soundness.py`` import ``BOUNDARY_WIDTHS``,
``corner_values`` and ``random_netlists`` from it.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dialects.comb import BINARY_OPS, ICMP_PREDICATES
from repro.dialects.hw import HWModule
from repro.ir.core import Operation
from repro.sim import RTLSimulator, crosscheck_engines
from repro.utils.bits import mask, to_signed

#: Widths straddling the machine-word boundaries: sub-byte, 32 and 64
#: bits, and values wider than 64 bits.
BOUNDARY_WIDTHS = (1, 7, 8, 31, 32, 33, 63, 64, 65, 96)


def binop_module(kind, width, predicate=None):
    """inputs a,b -> output r = a <kind> b (both at ``width``)."""
    module = HWModule(f"{kind.replace('.', '_')}_{width}")
    a = module.add_input("a", width)
    b = module.add_input("b", width)
    result_width = 1 if kind == "comb.icmp" else width
    attrs = {"predicate": predicate} if predicate else {}
    op = Operation(kind, [a, b], [(result_width, None)], attrs)
    module.body.append(op)
    module.add_output("r", op.result)
    return module


def engines_agree(module, vectors):
    """Run ``vectors`` through the interpreting and the compiled engine
    and return the (identical) output trace."""
    vectors = list(vectors)
    interp = RTLSimulator(module, engine="interp").run(vectors)
    compiled = RTLSimulator(module, engine="compiled").run(vectors)
    assert interp == compiled, f"interp != compiled on {module.name}"
    return interp


def corner_values(width):
    m = mask(width)
    sign = 1 << (width - 1)
    return sorted({v & m
                   for v in (0, 1, 2, m, m - 1, sign, sign - 1, m >> 1)})


# ---------------------------------------------------------------------------
# Deterministic corners
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@pytest.mark.parametrize("kind", ["comb.divu", "comb.divs",
                                  "comb.modu", "comb.mods"])
def test_division_by_zero(kind, width):
    """RISC-V semantics: x/0 = all-ones, x%0 = x — at every width."""
    module = binop_module(kind, width)
    values = corner_values(width)
    trace = engines_agree(
        module, [{"a": a, "b": 0} for a in values])
    if kind == "comb.divu":
        assert all(out["r"] == mask(width) for out in trace)
    elif kind == "comb.modu":
        assert [out["r"] for out in trace] == values


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@pytest.mark.parametrize("kind", ["comb.shl", "comb.shru", "comb.shrs"])
def test_shifts_at_and_past_the_width(kind, width):
    """Shift counts of width-1, width, and the all-ones pattern: logical
    shifts flush to zero, arithmetic right shift fills with the sign."""
    module = binop_module(kind, width)
    shifts = sorted({width - 1, min(width, mask(width)), mask(width)})
    values = corner_values(width)
    trace = engines_agree(
        module, [{"a": a, "b": s} for a in values for s in shifts])
    index = 0
    for a in values:
        for s in shifts:
            out = trace[index]["r"]
            index += 1
            if s >= width:
                if kind == "comb.shrs":
                    sign = a >> (width - 1)
                    assert out == (mask(width) if sign else 0)
                else:
                    assert out == 0


@pytest.mark.parametrize("width", BOUNDARY_WIDTHS)
@pytest.mark.parametrize(
    "kind", [k for k in BINARY_OPS
             if k not in ("comb.divu", "comb.divs", "comb.modu",
                          "comb.mods", "comb.shl", "comb.shru",
                          "comb.shrs")])
def test_arithmetic_at_width_boundaries(kind, width):
    """add/sub/mul wraparound and bitwise ops on boundary patterns, up
    to widths past 64 bits."""
    values = corner_values(width)
    engines_agree(
        binop_module(kind, width),
        [{"a": a, "b": b} for a in values for b in values])


@pytest.mark.parametrize("width", (8, 32, 63, 64, 65, 96))
@pytest.mark.parametrize("predicate", ICMP_PREDICATES)
def test_icmp_sign_boundaries(predicate, width):
    """Every predicate at the two's-complement boundaries (the signed
    ones flip exactly at 2^(w-1)); checked against to_signed directly."""
    module = binop_module("comb.icmp", width, predicate=predicate)
    values = corner_values(width)
    vectors = [{"a": a, "b": b} for a in values for b in values]
    trace = engines_agree(module, vectors)
    import operator

    plain = {"eq": operator.eq, "ne": operator.ne}
    unsigned = {"ult": operator.lt, "ule": operator.le,
                "ugt": operator.gt, "uge": operator.ge}
    signed = {"slt": operator.lt, "sle": operator.le,
              "sgt": operator.gt, "sge": operator.ge}
    for vector, out in zip(vectors, trace):
        a, b = vector["a"], vector["b"]
        if predicate in plain:
            expect = plain[predicate](a, b)
        elif predicate in unsigned:
            expect = unsigned[predicate](a, b)
        else:
            expect = signed[predicate](to_signed(a, width),
                                       to_signed(b, width))
        assert out["r"] == int(expect), (predicate, width, a, b)


@pytest.mark.parametrize("wa,wb", [(4, 8), (8, 4), (32, 64), (64, 65),
                                   (65, 64), (96, 8)])
def test_icmp_mixed_width_operands(wa, wb):
    """Regression for the per-operand sign-bit fix: signed predicates
    must sign-extend each operand from its *own* width.  Unequal widths
    only occur pre-verification (hand-built netlists, fuzz reducers),
    but both engines must still agree with the golden semantics."""
    module = HWModule(f"icmp_{wa}_{wb}")
    a = module.add_input("a", wa)
    b = module.add_input("b", wb)
    for predicate in ("slt", "sle", "sgt", "sge"):
        op = Operation("comb.icmp", [a, b], [(1, None)],
                       {"predicate": predicate})
        module.body.append(op)
        module.add_output(predicate, op.result)
    vectors = [{"a": x, "b": y}
               for x in corner_values(wa) for y in corner_values(wb)]
    trace = engines_agree(module, vectors)
    import operator

    compare = {"slt": operator.lt, "sle": operator.le,
               "sgt": operator.gt, "sge": operator.ge}
    for vector, out in zip(vectors, trace):
        sa = to_signed(vector["a"], wa)
        sb = to_signed(vector["b"], wb)
        for predicate, cmp in compare.items():
            assert out[predicate] == int(cmp(sa, sb)), (
                predicate, wa, wb, vector)


def test_rom_out_of_range_reads_zero():
    module = HWModule("romtest")
    idx = module.add_input("idx", 8)
    table = [0xAB, 0x01, 0xFF, 0x7E]
    rom = Operation("comb.rom", [idx], [(8, None)], {"values": table})
    module.body.append(rom)
    module.add_output("r", rom.result)
    vectors = [{"idx": i} for i in (0, 1, 2, 3, 4, 5, 100, 255)]
    trace = engines_agree(module, vectors)
    for vector, out in zip(vectors, trace):
        expect = table[vector["idx"]] if vector["idx"] < len(table) else 0
        assert out["r"] == expect


# ---------------------------------------------------------------------------
# Hypothesis: random netlists
# ---------------------------------------------------------------------------

_WIDTHS = st.sampled_from(BOUNDARY_WIDTHS)
_KINDS = st.sampled_from(
    list(BINARY_OPS)
    + ["not", "icmp", "mux", "extract", "concat", "replicate", "rom",
       "const", "reg"])


@st.composite
def random_netlists(draw):
    """A random but well-typed netlist over boundary widths: mixed-width
    plumbing (extract/concat adapters), wide values, registers."""
    module = HWModule("rand")
    pool = []
    for i in range(draw(st.integers(1, 3))):
        pool.append(module.add_input(f"in{i}", draw(_WIDTHS)))

    def emit(op):
        module.body.append(op)
        pool.append(op.result)
        return op.result

    def adapt(value, width):
        if value.width == width:
            return value
        if value.width > width:
            return emit(Operation("comb.extract", [value],
                                  [(width, None)], {"low": 0}))
        pad = Operation("comb.constant", [],
                        [(width - value.width, None)], {"value": 0})
        module.body.append(pad)
        return emit(Operation("comb.concat", [pad.result, value],
                              [(width, None)]))

    for _ in range(draw(st.integers(2, 12))):
        kind = draw(_KINDS)
        a = draw(st.sampled_from(pool))
        width = a.width
        if kind in BINARY_OPS:
            b = adapt(draw(st.sampled_from(pool)), width)
            emit(Operation(kind, [a, b], [(width, None)]))
        elif kind == "not":
            emit(Operation("comb.not", [a], [(width, None)]))
        elif kind == "icmp":
            b = adapt(draw(st.sampled_from(pool)), width)
            emit(Operation("comb.icmp", [a, b], [(1, None)],
                           {"predicate": draw(
                               st.sampled_from(ICMP_PREDICATES))}))
        elif kind == "mux":
            cond = adapt(draw(st.sampled_from(pool)), 1)
            other = adapt(draw(st.sampled_from(pool)), width)
            emit(Operation("comb.mux", [cond, a, other], [(width, None)]))
        elif kind == "extract":
            low = draw(st.integers(0, width - 1))
            out_width = draw(st.integers(1, width - low))
            emit(Operation("comb.extract", [a], [(out_width, None)],
                           {"low": low}))
        elif kind == "concat":
            b = draw(st.sampled_from(pool))
            emit(Operation("comb.concat", [a, b],
                           [(width + b.width, None)]))
        elif kind == "replicate":
            times = draw(st.integers(1, 3))
            emit(Operation("comb.replicate", [a], [(width * times, None)]))
        elif kind == "rom":
            index = adapt(a, min(width, 8))
            values = draw(st.lists(st.integers(0, 255),
                                   min_size=1, max_size=8))
            emit(Operation("comb.rom", [index], [(8, None)],
                           {"values": values}))
        elif kind == "const":
            const_width = draw(_WIDTHS)
            emit(Operation("comb.constant", [], [(const_width, None)],
                           {"value": draw(
                               st.integers(0, mask(const_width)))}))
        else:  # reg
            enable = adapt(draw(st.sampled_from(pool)), 1)
            emit(Operation("seq.compreg", [a, enable], [(width, None)],
                           {"name": f"r{len(pool)}"}))
    for i, value in enumerate(pool[-4:]):
        module.add_output(f"out{i}", value)
    return module


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.too_slow])
@given(module=random_netlists(), seed=st.integers(0, 2 ** 16))
def test_random_netlists_three_engine_parity(module, seed):
    """Named for the three engines it once compared; two remain."""
    mismatch = crosscheck_engines(module, cycles=6, seed=seed,
                                  engines=("interp", "compiled"))
    assert mismatch is None, mismatch
