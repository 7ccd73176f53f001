"""Soundness and precision tests for the abstract-interpretation engine.

Three layers:

* unit tests for the :class:`AbsVal` domain algebra (cross-refinement,
  join/meet, signed reading) and the :class:`IntRange` companion domain;
* precision tests on hand-built graphs — the facts the optimizer, the
  lint rules, and the batch codegen rely on must actually be inferred;
* a hypothesis property: on random well-typed netlists, every concrete
  value an RTL simulation produces satisfies the engine's fact for it
  (:func:`repro.fuzz.oracles.check_range_soundness`, the same predicate
  the ``rangesound`` fuzz oracle enforces).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.absint import (
    ABSINT_COUNTS,
    AbsVal,
    IntRange,
    analyze_graph,
    analyze_module,
    clear_facts_cache,
    slice_source,
)
from repro.dialects.hw import HWModule
from repro.fuzz.oracles import check_range_soundness
from repro.ir.core import Graph, IRError, Operation
from repro.utils.bits import mask

from tests.sim.test_batched_engine import random_netlists


# ---------------------------------------------------------------------------
# AbsVal domain algebra
# ---------------------------------------------------------------------------

class TestAbsVal:
    def test_const_pins_all_bits(self):
        fact = AbsVal.const(8, 0xA5)
        assert (fact.lo, fact.hi) == (0xA5, 0xA5)
        assert fact.ones == 0xA5 and fact.zeros == 0x5A
        assert fact.is_const and fact.value == 0xA5

    def test_interval_refines_shared_leading_bits(self):
        # [0x40, 0x4F]: bits 7 and 4..6 agree across the whole interval.
        fact = AbsVal.from_interval(8, 0x40, 0x4F)
        assert fact.zeros == 0xB0
        assert fact.ones == 0x40

    def test_bits_refine_interval(self):
        fact = AbsVal.make(8, 0, 0xFF, zeros=0xF0, ones=0x01)
        assert fact.lo == 0x01
        assert fact.hi == 0x0F

    def test_contradiction_degrades_to_top(self):
        assert AbsVal.make(8, 5, 3).is_top()
        assert AbsVal.make(8, 0, 255, zeros=1, ones=1).is_top()

    def test_contains(self):
        fact = AbsVal.make(8, 0, 0x0F, zeros=0xF0)
        assert fact.contains(0) and fact.contains(0x0F)
        assert not fact.contains(0x10)

    def test_join_unions(self):
        joined = AbsVal.const(8, 4).join(AbsVal.const(8, 6))
        assert (joined.lo, joined.hi) == (4, 6)
        assert joined.contains(4) and joined.contains(6)
        # bit 2 is set in both 4 (100) and 6 (110): still known-one.
        assert joined.ones & 0b100

    def test_meet_refines_and_rejects_contradiction(self):
        met = AbsVal.from_interval(8, 0, 10).meet(AbsVal.from_interval(8, 5, 200))
        assert (met.lo, met.hi) == (5, 10)
        older = AbsVal.const(8, 3)
        # Contradictory refinement keeps the older fact, never widens.
        assert older.meet(AbsVal.const(8, 77)).same(older)

    def test_signed_interval(self):
        assert AbsVal.from_interval(8, 0, 5).signed_interval() == (0, 5)
        assert AbsVal.from_interval(8, 0xF0, 0xFF).signed_interval() == (-16, -1)
        assert AbsVal.top(8).signed_interval() is None


class TestIntRange:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            IntRange(3, 2)

    def test_arithmetic(self):
        a, b = IntRange(-2, 3), IntRange(1, 4)
        assert (a.add(b).lo, a.add(b).hi) == (-1, 7)
        assert (a.sub(b).lo, a.sub(b).hi) == (-6, 2)
        assert (a.mul(b).lo, a.mul(b).hi) == (-8, 12)
        assert (a.neg().lo, a.neg().hi) == (-3, 2)

    def test_shifts_guard_negatives(self):
        assert IntRange(-1, 1).shl(IntRange(1, 1)) is None
        assert IntRange(0, 3).shl(IntRange(0, 5000)) is None
        shifted = IntRange(1, 3).shl(IntRange(2, 2))
        assert (shifted.lo, shifted.hi) == (4, 12)

    def test_proven_compare(self):
        assert IntRange(0, 3).compare("<", IntRange(4, 9)) is True
        assert IntRange(5, 9).compare("<", IntRange(0, 5)) is False
        assert IntRange(0, 5).compare("<", IntRange(3, 9)) is None
        assert IntRange(2, 2).compare("==", IntRange(2, 2)) is True
        assert IntRange(0, 1).compare("!=", IntRange(4, 6)) is True


# ---------------------------------------------------------------------------
# Transfer precision on hand-built graphs
# ---------------------------------------------------------------------------

def _input(module_graph: Graph, width: int) -> Operation:
    op = Operation("hw.input", [], [(width, None)], {"name": "x"})
    module_graph.block.append(op)
    return op


def _emit(graph: Graph, name: str, operands, width: int, attrs=None):
    op = Operation(name, operands, [(width, None)], attrs or {})
    graph.block.append(op)
    return op


def _const(graph: Graph, value: int, width: int):
    return _emit(graph, "comb.constant", [], width, {"value": value})


class TestTransferPrecision:
    def test_and_mask_bounds(self):
        g = Graph("t")
        x = _input(g, 32)
        m = _const(g, 0xFF, 32)
        a = _emit(g, "comb.and", [x.result, m.result], 32)
        fact = analyze_graph(g).get(a.result)
        assert fact.hi == 0xFF and fact.zeros == 0xFFFFFF00

    def test_add_wraparound_window(self):
        g = Graph("t")
        x = _input(g, 8)
        m = _const(g, 0x0F, 8)
        nar = _emit(g, "comb.and", [x.result, m.result], 8)
        c = _const(g, 3, 8)
        s = _emit(g, "comb.add", [nar.result, c.result], 8)
        fact = analyze_graph(g).get(s.result)
        assert (fact.lo, fact.hi) == (3, 18)

    def test_shift_flush_is_constant_zero(self):
        g = Graph("t")
        x = _input(g, 8)
        amt = _const(g, 9, 8)
        sh = _emit(g, "comb.shl", [x.result, amt.result], 8)
        fact = analyze_graph(g).get(sh.result)
        assert fact.is_const and fact.value == 0

    def test_icmp_disjoint_intervals_proven(self):
        g = Graph("t")
        x = _input(g, 8)
        m = _const(g, 0x0F, 8)
        small = _emit(g, "comb.and", [x.result, m.result], 8)
        big = _const(g, 0x40, 8)
        lt = _emit(g, "comb.icmp", [small.result, big.result], 1,
                   {"predicate": "ult"})
        fact = analyze_graph(g).get(lt.result)
        assert fact.is_const and fact.value == 1

    def test_rom_range_covers_reachable_slice_only(self):
        g = Graph("t")
        x = _input(g, 2)
        rom = _emit(g, "comb.rom", [x.result], 8,
                    {"values": [3, 5, 7, 9]})
        fact = analyze_graph(g).get(rom.result)
        assert fact.lo == 3 and fact.hi == 9
        # Common set bit of all reachable entries (3,5,7,9 -> bit 0).
        assert fact.ones & 1

    def test_mux_joins_arms(self):
        g = Graph("t")
        c = _input(g, 1)
        a = _const(g, 4, 8)
        b = _const(g, 6, 8)
        mx = _emit(g, "comb.mux", [c.result, a.result, b.result], 8)
        fact = analyze_graph(g).get(mx.result)
        assert (fact.lo, fact.hi) == (4, 6)

    def test_concat_stacks_bounds(self):
        g = Graph("t")
        x = _input(g, 4)
        z = _const(g, 0, 4)
        cat = _emit(g, "comb.concat", [z.result, x.result], 8)
        fact = analyze_graph(g).get(cat.result)
        assert fact.hi == 0x0F and fact.zeros == 0xF0

    def test_extract_through_concat_slice_source(self):
        g = Graph("t")
        x = _input(g, 8)
        z = _const(g, 0, 8)
        cat = _emit(g, "comb.concat", [z.result, x.result], 16)
        ext = _emit(g, "comb.extract", [cat.result], 8, {"low": 8})
        src, low = slice_source(ext.operands[0], 8, 8)
        assert src is z.result and low == 0
        fact = analyze_graph(g).get(ext.result)
        assert fact.is_const and fact.value == 0


# ---------------------------------------------------------------------------
# Per-module memoization
# ---------------------------------------------------------------------------

class TestModuleCache:
    def test_cache_hit_and_edit_after_analysis_raises(self):
        module = HWModule("m")
        x = module.add_input("x", 8)
        m = Operation("comb.constant", [], [(8, None)], {"value": 0x0F})
        module.body.append(m)
        a = Operation("comb.and", [x, m.result], [(8, None)])
        module.body.append(a)
        module.add_output("y", a.result)

        clear_facts_cache()
        before = dict(ABSINT_COUNTS)
        first = analyze_module(module)
        second = analyze_module(module)
        assert second is first
        assert ABSINT_COUNTS["analyses"] == before["analyses"] + 1
        assert ABSINT_COUNTS["cache_hits"] == before["cache_hits"] + 1

        # The first analysis froze the module: an in-place edit raises
        # instead of leaving the memoized facts stale.
        with pytest.raises(IRError):
            m.attributes["value"] = 0x3F
        assert analyze_module(module) is first
        assert first.get(a.result).hi == 0x0F


# ---------------------------------------------------------------------------
# Hypothesis: every simulated value satisfies its fact
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(module=random_netlists(), seed=st.integers(0, 2 ** 16))
def test_random_netlists_facts_sound(module, seed):
    mismatch = check_range_soundness(module, cycles=6, seed=seed)
    assert mismatch is None, mismatch


def test_unsound_fact_reports_the_first_violation(monkeypatch):
    """A planted unsound transfer is reported at the first violating op in
    schedule order, with its cycle, module and concrete value."""
    from repro.analysis import absint
    from repro.sim.compile import random_stimulus

    module = HWModule("planted")
    a = module.add_input("a", 8)
    b = module.add_input("b", 8)
    xor = Operation("comb.xor", [a, b], [(8, None)])
    module.body.append(xor)
    total = Operation("comb.add", [xor.result, a], [(8, None)])
    module.body.append(total)
    module.add_output("r", total.result)
    monkeypatch.setitem(absint._TRANSFER, "comb.xor",
                        lambda op, val, width: AbsVal.const(width, 0))
    cycle, vector = next(
        (i, v) for i, v in enumerate(random_stimulus(module, 8, seed=3))
        if v["a"] != v["b"])
    assert check_range_soundness(module, cycles=8, seed=3) == (
        f"cycle {cycle}: 'comb.xor' in module 'planted' produced "
        f"{vector['a'] ^ vector['b']:#x}, outside its predicted "
        f"{AbsVal.const(8, 0)!r}")


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(module=random_netlists())
def test_random_netlists_facts_within_width(module):
    facts = analyze_graph(module.body)
    for op in module.body.operations:
        for result in op.results:
            fact = facts.get(result)
            w = mask(result.width)
            assert 0 <= fact.lo <= fact.hi <= w
            assert fact.zeros & fact.ones == 0
            assert (fact.zeros | fact.ones) & ~w == 0
