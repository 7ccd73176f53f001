"""Range-driven narrowing: fold what the abstract interpreter proves.

The ``range-narrow`` pass queries the shared interval + known-bits engine
(:mod:`repro.analysis.absint`) and rewrites operations whose results or
operands are pinned by the inferred facts:

* any pure single-result ``comb`` op whose result is a proven singleton
  becomes a constant — this subsumes compares whose operand intervals are
  disjoint, shifts that provably flush to zero, and extracts above a
  value's possible range;
* ``comb.and`` drops an operand that is proven all-ones on every bit the
  other operand can possibly set (masks the lowering emits around
  already-narrow values);
* ``comb.or``/``comb.xor`` drop an operand proven zero;
* ``comb.modu x, d`` is the identity when ``hi(x) < lo(d)``;
* ``comb.mux`` with a proven condition collapses to the taken arm;
* path-sensitive correlation (the range engine's flow-insensitive facts
  refined by one branch level, as in LLVM's correlated-value
  propagation): inside a mux arm the condition is a known constant, so
  arm operands that are muxes on the same condition — or on its
  ``comb.not``, or on an icmp over the same operands that the outer
  condition implies or contradicts — resolve to the corresponding arm;
* shifts by a proven-zero amount are the identity;
* any non-constant operand of a pure ``comb`` op with a singleton fact is
  rewired to a fresh constant, exposing the regular folders
  (``propagate``, ``strength``, constant-shift wiring) on the next round.

All facts are computed once per invocation, before any mutation.  That is
sound because every rewrite here preserves the concrete value of every
pre-existing :class:`~repro.ir.core.Value` — facts about them stay true —
and the only operations created are constants, which need no facts.  The
pass manager re-runs the pass (with a fresh analysis) while rounds stay
dirty, so chains of enabled folds still reach a fixpoint.

Facts describe the *unsigned bit pattern* of each value, which is exactly
what ``comb`` semantics consume; ``hwarith`` operations read operand
``signed`` flags, so the pass never rewrites them and identity
replacements additionally require matching signedness flags.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.absint import AbsVal, RangeFacts, analyze_graph
from repro.dialects import comb
from repro.ir.core import Graph, Operation, Value
from repro.ir.passes import _constant_value, _make_constant
from repro.opt.passes import _is_pure, _replace, _rewire
from repro.utils.bits import mask


def _same_sign(a: Value, b: Value) -> bool:
    return bool(a.signed) == bool(b.signed)


def _replace_identity(op: Operation, value: Value) -> bool:
    """Replace ``op`` with an existing equal-valued operand, provided the
    substitution is transparent to signedness-sensitive users."""
    if value.width != op.result.width or not _same_sign(value, op.result):
        return False
    _replace(op, value)
    return True


def _fold_singleton_result(graph: Graph, op: Operation,
                           fact: AbsVal) -> bool:
    """Result proven to a single concrete value -> constant."""
    if not fact.is_const or op.result.signed:
        return False
    _replace(op, _make_constant(graph, op, fact.value, op.result.width))
    return True


def _drop_and_mask(op: Operation, facts: RangeFacts) -> bool:
    """``and(a, b) -> a`` when ``b`` is proven one on every bit ``a`` can
    possibly set (``b`` contributes nothing to the conjunction)."""
    width = op.result.width
    for keep_index in (0, 1):
        kept, other = op.operands[keep_index], op.operands[1 - keep_index]
        possibly_set = ~facts.get(kept).zeros & mask(width)
        if possibly_set & ~facts.get(other).ones & mask(width):
            continue
        if _replace_identity(op, kept):
            return True
    return False


def _drop_zero_operand(op: Operation, facts: RangeFacts) -> bool:
    """``or/xor(a, b) -> a`` when ``b`` is proven zero."""
    for keep_index in (0, 1):
        kept, other = op.operands[keep_index], op.operands[1 - keep_index]
        other_fact = facts.get(other)
        if not (other_fact.is_const and other_fact.value == 0):
            continue
        if _replace_identity(op, kept):
            return True
    return False


def _drop_redundant_modu(op: Operation, facts: RangeFacts) -> bool:
    """``modu(x, d) -> x`` when ``x`` is proven below every possible
    divisor (a zero divisor also returns ``x``, so ``lo(d) == 0`` with
    ``hi(x) == 0`` still folds through the singleton rule, not here)."""
    dividend, divisor = op.operands
    if facts.get(divisor).lo == 0:
        return False
    if facts.get(dividend).hi >= facts.get(divisor).lo:
        return False
    return _replace_identity(op, dividend)


def _fold_known_mux(op: Operation, facts: RangeFacts) -> bool:
    cond_fact = facts.get(op.operands[0])
    if not cond_fact.is_const:
        return False
    taken = op.operands[1] if cond_fact.value else op.operands[2]
    return _replace_identity(op, taken)


#: Given ``a p b`` known true, the predicates q for which ``a q b`` is
#: proven true / proven false.  eq/ne facts are sign-agnostic; orderings
#: only imply orderings of the same signedness.
_IMPLIES_TRUE = {
    "eq": ("eq", "ule", "uge", "sle", "sge"),
    "ne": ("ne",),
    "ult": ("ult", "ule", "ne"), "ule": ("ule",),
    "ugt": ("ugt", "uge", "ne"), "uge": ("uge",),
    "slt": ("slt", "sle", "ne"), "sle": ("sle",),
    "sgt": ("sgt", "sge", "ne"), "sge": ("sge",),
}
_IMPLIES_FALSE = {
    "eq": ("ne", "ult", "ugt", "slt", "sgt"),
    "ne": ("eq",),
    "ult": ("uge", "ugt", "eq"), "ule": ("ugt",),
    "ugt": ("ule", "ult", "eq"), "uge": ("ult",),
    "slt": ("sge", "sgt", "eq"), "sle": ("sgt",),
    "sgt": ("sle", "slt", "eq"), "sge": ("slt",),
}


def _cond_value_under(value: Value, cond: Value,
                      assumed: int) -> Optional[int]:
    """What the 1-bit ``value`` must be, given that ``cond == assumed``.

    Recognizes the condition itself, its ``comb.not`` (in either
    direction), and icmps over the same operand pair whose predicate the
    assumed fact implies or contradicts."""
    if value is cond:
        return assumed
    owner, cond_owner = value.owner, cond.owner
    if owner is not None and owner.name == "comb.not" \
            and owner.operands[0] is cond:
        return 1 - assumed
    if cond_owner is not None and cond_owner.name == "comb.not" \
            and cond_owner.operands[0] is value:
        return 1 - assumed
    if (owner is not None and cond_owner is not None
            and owner.name == "comb.icmp"
            and cond_owner.name == "comb.icmp"):
        a, b = cond_owner.operands
        x, y = owner.operands
        q = owner.attr("predicate")
        if x is b and y is a:
            q = comb.ICMP[q].swapped
        elif not (x is a and y is b):
            return None
        p = cond_owner.attr("predicate")
        fact = p if assumed else comb.ICMP[p].negated
        if q in _IMPLIES_TRUE[fact]:
            return 1
        if q in _IMPLIES_FALSE[fact]:
            return 0
    return None


def _correlate_mux_arms(graph: Graph, op: Operation) -> bool:
    """Path-sensitive arm refinement: inside arm ``index`` the condition
    is the constant ``assumed``, so an arm that is itself a mux whose
    condition is determined under that assumption resolves to the
    corresponding inner arm (iterated, so same-condition mux chains
    collapse in one visit)."""
    cond = op.operands[0]
    changed = False
    for index, assumed in ((1, 1), (2, 0)):
        while True:
            arm = op.operands[index]
            owner = arm.owner
            if owner is None or owner is op or owner.name != "comb.mux":
                break
            taken = _cond_value_under(owner.operands[0], cond, assumed)
            if taken is None:
                break
            _rewire(op, index, owner.operands[1 if taken else 2])
            changed = True
        arm = op.operands[index]
        if arm is cond:
            # A 1-bit arm that *is* the condition equals ``assumed``.
            _rewire(op, index, _make_constant(graph, op, assumed, 1))
            changed = True
    return changed


def _drop_zero_shift(op: Operation, facts: RangeFacts) -> bool:
    amount_fact = facts.get(op.operands[1])
    if not (amount_fact.is_const and amount_fact.value == 0):
        return False
    return _replace_identity(op, op.operands[0])


def _pin_singleton_operands(graph: Graph, op: Operation,
                            facts: RangeFacts) -> bool:
    """Rewire non-constant operands with singleton facts to fresh
    constants.  The rewrite itself is wiring-neutral; its value is that
    the regular folders (propagate, strength, constant-shift expansion)
    see a literal constant on the next round."""
    changed = False
    for index, operand in enumerate(list(op.operands)):
        if operand.signed or _constant_value(operand) is not None:
            continue
        fact = facts.get(operand)
        if not fact.is_const:
            continue
        _rewire(op, index, _make_constant(graph, op, fact.value,
                                          operand.width))
        changed = True
    return changed


def range_narrow_pass(graph: Graph) -> Tuple[int, int]:
    """Fold operations the abstract-interpretation engine proves constant
    or redundant.  Returns ``(removed, rewritten)`` like every pass."""
    facts = analyze_graph(graph)
    before = len(graph.operations)
    rewritten = 0
    for op in list(graph.operations):
        if op.parent is None or not _is_pure(op):
            continue
        if len(op.results) != 1 or not op.name.startswith("comb."):
            continue
        if op.name == "comb.constant":
            continue
        if _fold_singleton_result(graph, op, facts.get(op.result)):
            rewritten += 1
            continue
        fired: Optional[bool] = None
        if op.name == "comb.and":
            fired = _drop_and_mask(op, facts)
        elif op.name in ("comb.or", "comb.xor"):
            fired = _drop_zero_operand(op, facts)
        elif op.name == "comb.modu":
            fired = _drop_redundant_modu(op, facts)
        elif op.name == "comb.mux":
            fired = _fold_known_mux(op, facts) \
                or _correlate_mux_arms(graph, op)
        elif op.name in comb.SHIFT_OPS:
            fired = _drop_zero_shift(op, facts)
        if fired:
            rewritten += 1
            continue
        if _pin_singleton_operands(graph, op, facts):
            rewritten += 1
    removed = max(0, before - len(graph.operations))
    return removed, rewritten
