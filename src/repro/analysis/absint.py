"""Abstract interpretation over the lil/comb CDFG: intervals + known bits.

One sound value-range engine for the whole stack.  Before this module,
three subsystems re-derived "how wide is this value really":

* the batched simulator's lane-kind bounds (``repro.sim.compile``),
* the optimizer's width-narrowing and branch folding (``repro.opt``),
* the linter/verifier's truncation, shift and index rules.

They now all query the same analysis.  The engine makes one forward
pass over the single-block graph in block order and computes, per SSA
:class:`~repro.ir.core.Value`, an :class:`AbsVal` combining two
composable domains:

* an **unsigned interval** ``[lo, hi]`` over the value's masked bit
  pattern (``0 <= lo <= hi <= mask(width)``), and
* **known bits** — a must-zero mask and a must-one mask over the low
  ``width`` bits.

The domains cross-refine: known bits clamp the interval
(``lo >= ones``, ``hi <= ~zeros``) and the shared leading bits of
``lo``/``hi`` become known.  Transfer functions cover every ``comb``
operation — wrap-aware add/sub/mul, division and modulo with
the RISC-V ``/0`` semantics, shifts with the ``>= width`` clamp,
``icmp`` including mixed-width signed comparisons, ``mux`` joins,
extract/concat/replicate bit plumbing (with slice forwarding through
producers), and ROM reads refined by the index range.  Operations the
engine does not model — architectural interface reads (``lil.*``),
inputs, registers — soundly produce ``top``.  The analyzed graphs are
lil graphs and module bodies; lowering turns every ``hwarith`` op into
``comb`` before either exists.

Soundness contract (fuzzed by the ``rangesound`` oracle and
``tests/analysis/test_absint_soundness.py``): for every value ``v``
computed by any simulator engine, ``lo <= v <= hi``,
``v & zeros == 0`` and ``v & ones == ones``.

:func:`analyze_module` keeps its :class:`RangeFacts` on the hardware
module (:meth:`~repro.dialects.hw.HWModule.derived`), so they die with the
module and, as the first use freezes it, never go stale.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.dialects import comb
from repro.dialects.hw import HWModule
from repro.ir.core import Graph, IRError, Operation, Value
from repro.utils.bits import mask


# ---------------------------------------------------------------------------
# The abstract domain
# ---------------------------------------------------------------------------

class AbsVal:
    """Interval + known-bits fact for one ``width``-bit value.

    Immutable; construct through :meth:`top`, :meth:`const`,
    :meth:`from_interval` or :meth:`make` (which cross-refines and
    canonicalizes).  ``zeros``/``ones`` are bit masks confined to the low
    ``width`` bits; a bit may appear in at most one of them.
    """

    __slots__ = ("width", "lo", "hi", "zeros", "ones")

    def __init__(self, width: int, lo: int, hi: int,
                 zeros: int, ones: int):
        self.width = width
        self.lo = lo
        self.hi = hi
        self.zeros = zeros
        self.ones = ones

    # -- constructors -------------------------------------------------------
    @classmethod
    def top(cls, width: int) -> "AbsVal":
        return cls(width, 0, mask(width), 0, 0)

    @classmethod
    def const(cls, width: int, value: int) -> "AbsVal":
        w = mask(width)
        value &= w
        return cls(width, value, value, ~value & w, value)

    @classmethod
    def from_interval(cls, width: int, lo: int, hi: int) -> "AbsVal":
        return cls.make(width, lo, hi, 0, 0)

    @classmethod
    def make(cls, width: int, lo: int, hi: int,
             zeros: int = 0, ones: int = 0) -> "AbsVal":
        """Build a fact, clamping to the width and cross-refining the two
        domains.  A numerically contradictory input (empty intersection)
        degrades to ``top`` — soundness over precision."""
        w = mask(width)
        lo = max(lo, 0)
        hi = min(hi, w)
        zeros &= w
        ones &= w
        if lo > hi or zeros & ones:
            return cls.top(width)
        # Interval -> bits: bits above the highest differing bit of
        # lo/hi are equal in every value of the interval.
        diff = lo ^ hi
        known = w if diff == 0 else w & ~mask(diff.bit_length())
        ones |= lo & known
        zeros |= ~lo & known
        # Bits -> interval: every value v satisfies ones <= v <= ~zeros.
        lo = max(lo, ones)
        hi = min(hi, ~zeros & w)
        if lo > hi or zeros & ones:
            return cls.top(width)
        return cls(width, lo, hi, zeros, ones)

    # -- predicates ---------------------------------------------------------
    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> int:
        """The single concrete value (only meaningful when ``is_const``)."""
        return self.lo

    def contains(self, value: int) -> bool:
        """Does the concrete ``value`` satisfy this fact?"""
        return (self.lo <= value <= self.hi
                and value & self.zeros == 0
                and value & self.ones == self.ones)

    def is_top(self) -> bool:
        return (self.lo == 0 and self.hi == mask(self.width)
                and self.zeros == 0 and self.ones == 0)

    # -- lattice ------------------------------------------------------------
    def join(self, other: "AbsVal") -> "AbsVal":
        """Least upper bound (union of behaviours), e.g. at a mux."""
        return AbsVal.make(
            self.width,
            min(self.lo, other.lo), max(self.hi, other.hi),
            self.zeros & other.zeros, self.ones & other.ones)

    def meet(self, other: "AbsVal") -> "AbsVal":
        """Greatest lower bound: what both facts allow."""
        refined = AbsVal.make(
            self.width,
            max(self.lo, other.lo), min(self.hi, other.hi),
            self.zeros | other.zeros, self.ones | other.ones)
        # A contradictory meet (make() degraded to top) keeps the older,
        # still-sound fact instead of widening.
        if refined.is_top() and not (self.is_top() and other.is_top()):
            return self
        return refined

    def same(self, other: "AbsVal") -> bool:
        return (self.lo == other.lo and self.hi == other.hi
                and self.zeros == other.zeros and self.ones == other.ones)

    def signed_interval(self) -> Optional[Tuple[int, int]]:
        """The value's two's-complement reading as a mathematical
        interval, when the sign bit is determined: ``None`` if the
        interval straddles the sign boundary."""
        if self.width == 0:
            return (0, 0)
        half = 1 << (self.width - 1)
        if self.hi < half:
            return (self.lo, self.hi)
        if self.lo >= half:
            full = 1 << self.width
            return (self.lo - full, self.hi - full)
        return None

    def __repr__(self) -> str:
        return (f"AbsVal(w={self.width}, [{self.lo:#x}, {self.hi:#x}], "
                f"zeros={self.zeros:#x}, ones={self.ones:#x})")


# ---------------------------------------------------------------------------
# Mathematical integer ranges (the AST linter's domain)
# ---------------------------------------------------------------------------

class IntRange:
    """A closed mathematical-integer interval ``[lo, hi]``.

    The typed-AST linter works on CoreDSL expressions *before* lowering,
    where values are best modelled as plain integers (signed types reach
    below zero); this small companion domain shares the engine module so
    the lint rules and the CDFG analysis evolve together.  All operators
    are sound over-approximations; ``None`` bounds never occur — callers
    clamp to the expression's type range instead.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ValueError(f"empty IntRange [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def const(cls, value: int) -> "IntRange":
        return cls(value, value)

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def add(self, other: "IntRange") -> "IntRange":
        return IntRange(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "IntRange") -> "IntRange":
        return IntRange(self.lo - other.hi, self.hi - other.lo)

    def mul(self, other: "IntRange") -> "IntRange":
        corners = [a * b for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return IntRange(min(corners), max(corners))

    def neg(self) -> "IntRange":
        return IntRange(-self.hi, -self.lo)

    def shl(self, other: "IntRange") -> Optional["IntRange"]:
        if other.lo < 0 or other.hi > 4096 or self.lo < 0:
            return None
        return IntRange(self.lo << other.lo, self.hi << other.hi)

    def shr(self, other: "IntRange") -> Optional["IntRange"]:
        if other.lo < 0 or self.lo < 0:
            return None
        return IntRange(self.lo >> min(other.hi, 4096),
                        self.hi >> min(other.lo, 4096))

    def always_zero(self) -> bool:
        return self.lo == 0 and self.hi == 0

    # -- proven comparisons -------------------------------------------------
    def compare(self, op: str, other: "IntRange") -> Optional[bool]:
        """``True``/``False`` when the comparison is decided for *every*
        pair of values, ``None`` otherwise."""
        if op == "<":
            if self.hi < other.lo:
                return True
            if self.lo >= other.hi:
                return False
        elif op == "<=":
            if self.hi <= other.lo:
                return True
            if self.lo > other.hi:
                return False
        elif op == ">":
            if self.lo > other.hi:
                return True
            if self.hi <= other.lo:
                return False
        elif op == ">=":
            if self.lo >= other.hi:
                return True
            if self.hi < other.lo:
                return False
        elif op == "==":
            if (self.is_const and other.is_const
                    and self.lo == other.lo):
                return True
            if self.hi < other.lo or self.lo > other.hi:
                return False
        elif op == "!=":
            inverse = self.compare("==", other)
            return None if inverse is None else not inverse
        return None

    def __repr__(self) -> str:
        return f"IntRange[{self.lo}, {self.hi}]"


# ---------------------------------------------------------------------------
# Slice forwarding (shared with the simulator codegen)
# ---------------------------------------------------------------------------

def slice_source(value: Value, low: int, width: int) -> Tuple[Value, int]:
    """Resolve ``value[low +: width]`` through bit-plumbing producers.

    Extract-of-extract composes offsets; a slice fully contained in one
    ``comb.concat`` operand (or one ``comb.replicate`` chunk) forwards to
    that operand directly.  Netlists spend most of their ops assembling
    wide words from narrow pieces and slicing them back apart — forwarding
    lets both this analysis and the batch simulator reason about the
    pieces themselves, and (via liveness on the *resolved* operands) the
    codegen never materializes the wide word at all.
    """
    while True:
        owner = value.owner
        if owner is None:
            return value, low
        name = owner.name
        if name == "comb.extract":
            low += owner.attr("low")
            value = owner.operands[0]
            continue
        if name == "comb.concat":
            # Operands are MSB-first; walk from the LSB end.
            offset = 0
            forwarded = None
            for operand in reversed(owner.operands):
                top = offset + operand.width
                if low + width <= top:
                    if low >= offset:
                        forwarded = (operand, low - offset)
                    break
                offset = top
            if forwarded is None:
                return value, low  # slice spans an operand boundary
            value, low = forwarded
            continue
        if name == "comb.replicate":
            chunk = owner.operands[0].width
            if (low % chunk) + width <= chunk:
                value = owner.operands[0]
                low %= chunk
                continue
            return value, low
        return value, low


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------

_Lookup = Callable[[Value], AbsVal]
_Transfer = Callable[[Operation, _Lookup, int], AbsVal]
_TRANSFER: Dict[str, _Transfer] = {}


def _transfer(*names: str) -> Callable[[_Transfer], _Transfer]:
    def wrap(fn: _Transfer) -> _Transfer:
        for name in names:
            _TRANSFER[name] = fn
        return fn
    return wrap


@_transfer("comb.constant")
def _t_constant(op: Operation, val: _Lookup, width: int) -> AbsVal:
    return AbsVal.const(width, int(op.attr("value")))


@_transfer("comb.add")
def _t_add(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    w = mask(width)
    lo, hi = a.lo + b.lo, a.hi + b.hi
    if hi <= w:
        return AbsVal.make(width, lo, hi)
    if lo > w and hi <= 2 * w + 1:
        # Every sum wraps exactly once.
        return AbsVal.make(width, lo - w - 1, hi - w - 1)
    return AbsVal.top(width)


@_transfer("comb.sub")
def _t_sub(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    lo, hi = a.lo - b.hi, a.hi - b.lo
    if lo >= 0:
        return AbsVal.make(width, lo, hi)
    if hi < 0:
        full = mask(width) + 1
        return AbsVal.make(width, lo + full, hi + full)
    return AbsVal.top(width)


@_transfer("comb.mul")
def _t_mul(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    hi = a.hi * b.hi
    if hi <= mask(width):
        return AbsVal.make(width, a.lo * b.lo, hi)
    return AbsVal.top(width)


@_transfer("comb.divu")
def _t_divu(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    w = mask(width)
    if b.hi == 0:
        return AbsVal.const(width, w)        # x / 0 == all-ones
    if b.lo > 0:
        return AbsVal.make(width, a.lo // b.hi, a.hi // b.lo)
    # The divisor may or may not be zero.
    return AbsVal.make(width, min(a.lo // b.hi, w), w)


@_transfer("comb.modu")
def _t_modu(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    if b.hi == 0:
        return a                             # x % 0 == x
    if b.lo > 0:
        return AbsVal.make(width, 0, min(a.hi, b.hi - 1))
    return AbsVal.make(width, 0, a.hi)


@_transfer("comb.divs", "comb.mods")
def _t_signed_divmod(op: Operation, val: _Lookup, width: int) -> AbsVal:
    # The singleton shortcut in the engine loop folds constant operands
    # through comb.evaluate; anything else is top (sign analysis of
    # truncating division buys little on real netlists).
    return AbsVal.top(width)


@_transfer("comb.and")
def _t_and(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    return AbsVal.make(width, 0, min(a.hi, b.hi),
                       zeros=a.zeros | b.zeros, ones=a.ones & b.ones)


@_transfer("comb.or")
def _t_or(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    hi = mask(max(a.hi.bit_length(), b.hi.bit_length()))
    return AbsVal.make(width, max(a.lo, b.lo), hi,
                       zeros=a.zeros & b.zeros, ones=a.ones | b.ones)


@_transfer("comb.xor")
def _t_xor(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    hi = mask(max(a.hi.bit_length(), b.hi.bit_length()))
    return AbsVal.make(width, 0, hi,
                       zeros=(a.zeros & b.zeros) | (a.ones & b.ones),
                       ones=(a.ones & b.zeros) | (a.zeros & b.ones))


@_transfer("comb.not")
def _t_not(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a = val(op.operands[0])
    w = mask(width)
    return AbsVal.make(width, w - a.hi, w - a.lo,
                       zeros=a.ones, ones=a.zeros)


@_transfer("comb.shl")
def _t_shl(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    w = mask(width)
    if b.lo >= width:
        return AbsVal.const(width, 0)        # always flushed
    if b.is_const:
        amount = b.value
        zeros = ((a.zeros << amount) | mask(amount)) & w
        ones = (a.ones << amount) & w
        if a.hi << amount <= w:
            return AbsVal.make(width, a.lo << amount, a.hi << amount,
                               zeros=zeros, ones=ones)
        return AbsVal.make(width, 0, w, zeros=zeros, ones=ones)
    if b.hi < width and (a.hi << b.hi) <= w:
        return AbsVal.make(width, a.lo << b.lo, a.hi << b.hi,
                           zeros=mask(b.lo))
    # Shift counts >= width flush to 0, so 0 stays in the range; low
    # b.lo bits are zero either way.
    return AbsVal.make(width, 0, w, zeros=mask(min(b.lo, width)))


@_transfer("comb.shru")
def _t_shru(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    if b.lo >= width:
        return AbsVal.const(width, 0)        # always flushed
    hi = a.hi >> b.lo
    lo = (a.lo >> b.hi) if b.hi < width else 0
    if b.is_const:
        amount = b.value
        w = mask(width)
        zeros = ((a.zeros >> amount) | ~(w >> amount)) & w
        ones = (a.ones >> amount) & w
        return AbsVal.make(width, lo, hi, zeros=zeros, ones=ones)
    return AbsVal.make(width, lo, hi)


@_transfer("comb.shrs")
def _t_shrs(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    half = 1 << (width - 1) if width else 1
    if a.hi < half:
        # Sign bit provably clear: behaves like shru with the shift
        # count clamped to width-1.
        lo = a.lo >> min(b.hi, width - 1)
        hi = a.hi >> min(b.lo, width - 1)
        return AbsVal.make(width, lo, hi)
    if a.lo >= half:
        # Sign bit provably set: the fill keeps it set.
        return AbsVal.make(width, half, mask(width))
    return AbsVal.top(width)


def _prove_icmp(predicate: str, a: AbsVal, b: AbsVal) -> Optional[bool]:
    """Decide an icmp from the operand facts, or ``None``.

    Mirrors :func:`repro.dialects.comb.evaluate`: unsigned predicates
    compare bit patterns; signed predicates compare each operand's
    two's-complement reading *at its own width* (mixed widths occur on
    pre-verification netlists).
    """
    ra = IntRange(a.lo, a.hi)
    rb = IntRange(b.lo, b.hi)
    pred = comb.ICMP.get(predicate)
    if pred is None:
        return None                          # malformed, unverified IR
    if predicate in ("eq", "ne"):
        # eq/ne are bit-pattern comparisons, but only meaningful across
        # equal widths (the verifier enforces this; on unverified IR a
        # width mismatch still compares masked patterns).
        decided = ra.compare("==", rb)
        if decided is None and (a.zeros & b.ones or a.ones & b.zeros):
            decided = False                  # some bit provably differs
        if decided is None:
            return None
        return decided if predicate == "eq" else not decided
    if not pred.signed:
        return ra.compare(pred.symbol, rb)
    sa = a.signed_interval()
    sb = b.signed_interval()
    if sa is None or sb is None:
        return None
    return IntRange(*sa).compare(pred.symbol, IntRange(*sb))


@_transfer("comb.icmp")
def _t_icmp(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a, b = val(op.operands[0]), val(op.operands[1])
    decided = _prove_icmp(op.attr("predicate"), a, b)
    if decided is None:
        return AbsVal.make(width, 0, 1)
    return AbsVal.const(width, int(decided))


@_transfer("comb.mux")
def _t_mux(op: Operation, val: _Lookup, width: int) -> AbsVal:
    cond = val(op.operands[0])
    t, f = val(op.operands[1]), val(op.operands[2])
    if cond.is_const:
        taken = t if cond.value else f
        # Arm widths equal the result width on verified IR; clamp just
        # in case the graph predates verification.
        return AbsVal.make(width, taken.lo, taken.hi,
                           zeros=taken.zeros & mask(width),
                           ones=taken.ones & mask(width))
    return AbsVal.make(width, min(t.lo, f.lo), max(t.hi, f.hi),
                       zeros=t.zeros & f.zeros & mask(width),
                       ones=t.ones & f.ones & mask(width))


@_transfer("comb.extract")
def _t_extract(op: Operation, val: _Lookup, width: int) -> AbsVal:
    src, low = slice_source(op.operands[0], op.attr("low"), width)
    a = val(src)
    w = mask(width)
    zeros = (a.zeros >> low) & w
    ones = (a.ones >> low) & w
    hi = a.hi >> low
    if hi <= w:
        return AbsVal.make(width, a.lo >> low, hi,
                           zeros=zeros, ones=ones)
    return AbsVal.make(width, 0, w, zeros=zeros, ones=ones)


@_transfer("comb.concat")
def _t_concat(op: Operation, val: _Lookup, width: int) -> AbsVal:
    lo = hi = zeros = ones = 0
    for operand in op.operands:              # MSB-first
        a = val(operand)
        shift = operand.width
        lo = (lo << shift) | a.lo
        hi = (hi << shift) | a.hi
        zeros = (zeros << shift) | a.zeros
        ones = (ones << shift) | a.ones
    return AbsVal.make(width, lo, hi, zeros=zeros, ones=ones)


@_transfer("comb.replicate")
def _t_replicate(op: Operation, val: _Lookup, width: int) -> AbsVal:
    a = val(op.operands[0])
    chunk = op.operands[0].width
    times = width // chunk if chunk else 0
    repunit = sum(1 << (chunk * i) for i in range(times))
    return AbsVal.make(width, a.lo * repunit, a.hi * repunit,
                       zeros=a.zeros * repunit, ones=a.ones * repunit)


@_transfer("comb.rom")
def _t_rom(op: Operation, val: _Lookup, width: int) -> AbsVal:
    idx = val(op.operands[0])
    w = mask(width)
    values = [int(v) & w for v in op.attr("values")]
    reachable = values[idx.lo:idx.hi + 1]
    if idx.hi >= len(values):
        reachable.append(0)                  # out-of-range reads yield 0
    if not reachable:
        return AbsVal.const(width, 0)
    zeros = ones = w
    for v in reachable:
        zeros &= ~v
        ones &= v
    return AbsVal.make(width, min(reachable), max(reachable),
                       zeros=zeros & w, ones=ones)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------

class RangeFacts:
    """The analysis result for one graph: per-value :class:`AbsVal`.

    Lookups on values the engine never saw (or modelled as unknown)
    return ``top`` of the value's width, so every query is total.
    """

    __slots__ = ("_facts",)

    def __init__(self, facts: Dict[Value, AbsVal]):
        self._facts = facts

    def get(self, value: Value) -> AbsVal:
        fact = self._facts.get(value)
        return fact if fact is not None else AbsVal.top(value.width)

    def hi(self, value: Value) -> int:
        """Upper bound on the value's (masked) magnitude — the drop-in
        replacement for the batch codegen's legacy bound analysis."""
        return self.get(value).hi


def _transfer_op(op: Operation, val: _Lookup) -> List[AbsVal]:
    """Output facts for one operation (one per result)."""
    if not op.results:
        return []
    width = op.results[0].width
    # Singleton shortcut: all-constant comb operands evaluate through
    # the reference interpreter, so corner semantics (division by zero,
    # shifts past the width, signed compares) are exact by construction.
    if (op.name.startswith("comb.") and op.operands
            and len(op.results) == 1):
        ins = [val(operand) for operand in op.operands]
        if all(fact.is_const for fact in ins):
            try:
                value = comb.evaluate(op, [fact.value for fact in ins])
            except (IRError, IndexError, KeyError, TypeError):
                value = None
            if value is not None:
                return [AbsVal.const(width, int(value))]
    transfer = _TRANSFER.get(op.name)
    if transfer is not None and len(op.results) == 1:
        try:
            return [transfer(op, val, width)]
        except (ValueError, ZeroDivisionError, IndexError, TypeError):
            return [AbsVal.top(width)]
    # Unmodelled operation (interface reads, registers, inputs): top.
    return [AbsVal.top(result.width) for result in op.results]


def analyze_graph(graph: Graph) -> RangeFacts:
    """Analyze a single-block graph in one forward pass.

    Block order is def-before-use (IV001), so every operand's fact is
    final by the time its user is reached.  A register's data and enable
    may be defined later, but a register's own fact is ``top`` anyway; any
    other operand read before its definition is ``top`` too, so the pass
    stays sound on any order.
    """
    begin = time.perf_counter()
    ABSINT_COUNTS["graph_analyses"] += 1
    facts: Dict[Value, AbsVal] = {}

    def val(value: Value) -> AbsVal:
        fact = facts.get(value)
        return fact if fact is not None else AbsVal.top(value.width)

    for op in graph.operations:
        facts.update(zip(op.results, _transfer_op(op, val)))
    _ANALYSIS_SECONDS[0] += time.perf_counter() - begin
    return RangeFacts(facts)


# ---------------------------------------------------------------------------
# Per-module memoization
# ---------------------------------------------------------------------------

#: Analysis invocation counters, exposed for tests and benchmarks.
ABSINT_COUNTS: Dict[str, int] = {
    "analyses": 0, "cache_hits": 0, "graph_analyses": 0,
}
#: Cumulative wall-clock spent inside :func:`analyze_graph` (mutated
#: under the GIL; read by ``benchmarks/bench_absint.py``'s budget gate).
_ANALYSIS_SECONDS: List[float] = [0.0]


def analysis_seconds() -> float:
    """Total wall-clock spent in :func:`analyze_graph` since the last
    :func:`clear_facts_cache` (memoized hits cost nothing)."""
    return _ANALYSIS_SECONDS[0]


def analyze_module(module: HWModule) -> RangeFacts:
    """Memoized range analysis of a hardware module's body.

    Inputs and registers are ``top`` (their ranges are set by the
    environment), matching the assumptions the batch simulator's legacy
    bound analysis made.  The facts are kept on the module by
    :meth:`~repro.dialects.hw.HWModule.derived`, which freezes it.
    """
    analyses = ABSINT_COUNTS["analyses"]
    facts = module.derived("absint.facts", lambda: _analyze_body(module))
    if ABSINT_COUNTS["analyses"] == analyses:
        ABSINT_COUNTS["cache_hits"] += 1
    return facts


def _analyze_body(module: HWModule) -> RangeFacts:
    ABSINT_COUNTS["analyses"] += 1
    return analyze_graph(module.body)


def clear_facts_cache() -> None:
    """Reset the counters and :func:`analysis_seconds` (tests and benchmarks);
    the facts live on their modules, so nothing process-wide is dropped."""
    for key in ABSINT_COUNTS:
        ABSINT_COUNTS[key] = 0
    _ANALYSIS_SECONDS[0] = 0.0


def absint_cache_stats() -> Dict[str, int]:
    """Snapshot of the analysis counters (for tests/benchmarks)."""
    return dict(ABSINT_COUNTS)


__all__ = [
    "ABSINT_COUNTS",
    "AbsVal",
    "IntRange",
    "RangeFacts",
    "absint_cache_stats",
    "analysis_seconds",
    "analyze_graph",
    "analyze_module",
    "clear_facts_cache",
    "slice_source",
]
