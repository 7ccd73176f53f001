"""Individual optimizer passes over flat CDFGs.

Every pass is a function ``(graph) -> (removed, rewritten)`` where
``removed`` counts operations erased net of replacements and ``rewritten``
counts operations modified in place or replaced by cheaper equivalents.
Passes only ever touch pure (side-effect-free, non-terminator, region-free)
operations, so interface ops — architectural reads/writes — are never
moved, duplicated, or deleted: the architectural trace of a graph is
invariant under every pass here (property-tested in
``tests/opt/test_property_equiv.py`` and enforced end-to-end by the
``optequiv`` fuzz oracle).

The pass order and -O level presets live in :mod:`repro.opt.pipeline`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.dialects import comb
from repro.ir.core import Graph, Operation, Value
from repro.ir.passes import (
    _constant_value,
    _make_constant,
    _rewrite_constant_shift,
    _simplify_algebraic,
    dedupe_constants,
)
from repro.ir.rewrite import Rule, apply_rules
from repro.opt.share import mux_push
from repro.utils.bits import mask

#: Commutative comb operations whose operands are sorted into a canonical
#: order (constants last) so CSE can see through operand permutations.
COMMUTATIVE_OPS = ("comb.add", "comb.mul", "comb.and", "comb.or", "comb.xor")


def _is_pure(op: Operation) -> bool:
    return (not op.opdef.has_side_effects and not op.opdef.is_terminator
            and not op.regions)


def _erase_dead_tree(root: Operation) -> None:
    """Erase ``root`` if dead, then any pure operand subtree that the
    erasure orphaned.  Eager cleanup matters beyond tidiness: dead feeder
    trees would otherwise linger until the round's DCE — and in the
    meantime block every single-use-gated fold, forcing an extra full
    pipeline round to pick up what the first one already exposed."""
    stack = [root]
    while stack:
        current = stack.pop()
        if current.parent is None or current.has_uses \
                or not _is_pure(current):
            continue
        # ``erase`` gives the op a fresh operand list; this one stays.
        operands = current.operands
        current.erase()
        for operand in operands:
            owner = operand.owner
            if owner is not None and owner.parent is not None:
                stack.append(owner)


def _replace(op: Operation, value: Value) -> None:
    op.result.replace_all_uses_with(value)
    _erase_dead_tree(op)


def _rewire(op: Operation, index: int, value: Value) -> None:
    """``set_operand`` plus eager cleanup of the disconnected subtree."""
    old = op.operands[index]
    op.set_operand(index, value)
    owner = old.owner
    if owner is not None and owner.parent is not None:
        _erase_dead_tree(owner)


# ---------------------------------------------------------------------------
# canonicalize: operand ordering, algebraic identities, wiring folds
# ---------------------------------------------------------------------------

def _order_commutative(graph: Graph) -> List[Operation]:
    """Sort operands of commutative ops: non-constants by block position,
    constants last ordered by value; returns the ops it swapped.
    Deterministic and idempotent."""
    position = {op: i for i, op in enumerate(graph.operations)}

    def key(value: Value) -> Tuple[int, int]:
        const = _constant_value(value)
        if const is not None:
            return (1, const)
        owner = value.owner
        return (0, position.get(owner, -1) if owner is not None else -1)

    swapped = []
    for op in graph.operations:
        if op.name not in COMMUTATIVE_OPS or len(op.operands) != 2:
            continue
        lhs, rhs = op.operands
        if key(lhs) > key(rhs):
            op.set_operand(0, rhs)
            op.set_operand(1, lhs)
            swapped.append(op)
    return swapped


def _simplify_self_inverse(graph: Graph, op: Operation) -> bool:
    """x ^ x -> 0, x - x -> 0, x & 0 -> 0, x * 0 -> 0 (need a fresh
    constant, so they cannot live in ``_simplify_algebraic``)."""
    name = op.name
    zero = False
    if name in ("comb.xor", "comb.sub") and op.operands[0] is op.operands[1]:
        zero = True
    if name in ("comb.and", "comb.mul"):
        if 0 in (_constant_value(op.operands[0]),
                 _constant_value(op.operands[1])):
            zero = True
    if not zero:
        return False
    _replace(op, _make_constant(graph, op, 0, op.result.width))
    return True


def _fold_extract(graph: Graph, op: Operation) -> bool:
    """extract-of-extract, extract-of-concat, extract-of-replicate."""
    src = op.operands[0].owner
    if src is None:
        return False
    low = op.attr("low", 0)
    width = op.result.width
    if src.name == "comb.extract":
        _rewire(op, 0, src.operands[0])
        op.attributes["low"] = low + src.attr("low", 0)
        return True
    if src.name == "comb.concat":
        offset = 0
        for operand in reversed(src.operands):
            if offset <= low and low + width <= offset + operand.width:
                if low == offset and width == operand.width:
                    _replace(op, operand)
                else:
                    _rewire(op, 0, operand)
                    op.attributes["low"] = low - offset
                return True
            offset += operand.width
        return False
    if src.name == "comb.replicate":
        inner = src.operands[0]
        start = low % inner.width
        if start == 0 and width % inner.width == 0:
            # Copy-aligned slice of a replication is a narrower replication.
            if width == inner.width:
                _replace(op, inner)
            else:
                rep = Operation("comb.replicate", [inner], [(width, None)])
                graph.block.insert_before(op, rep)
                _replace(op, rep.result)
            return True
        if start + width <= inner.width:
            if width == inner.width:
                _replace(op, inner)
            else:
                _rewire(op, 0, inner)
                op.attributes["low"] = start
            return True
    return False


def _slice_feasible(value: Value, rel_low: int, piece_width: int) -> bool:
    """True when ``_slice_value`` can produce this sub-slice without
    leaving an unfoldable extract behind."""
    if rel_low == 0 and piece_width == value.width:
        return True
    if _constant_value(value) is not None:
        return True
    owner = value.owner
    if owner is None or len(owner.result.uses) != 1:
        return False
    if owner.name == "comb.replicate":
        inner_width = owner.operands[0].width
        return (rel_low % inner_width == 0
                and piece_width % inner_width == 0)
    return owner.name == "comb.extract"


def _slice_value(graph: Graph, anchor: Operation, value: Value,
                 rel_low: int, piece_width: int) -> Value:
    """Materialize ``value[rel_low +: piece_width]`` in folded form
    (callers check :func:`_slice_feasible` first)."""
    if rel_low == 0 and piece_width == value.width:
        return value
    const = _constant_value(value)
    if const is not None:
        return _make_constant(graph, anchor,
                              (const >> rel_low) & mask(piece_width),
                              piece_width)
    owner = value.owner
    assert owner is not None
    if owner.name == "comb.replicate":
        inner = owner.operands[0]
        if piece_width == inner.width:
            return inner
        rep = Operation("comb.replicate", [inner], [(piece_width, None)])
        graph.block.insert_before(anchor, rep)
        return rep.result
    sliced = Operation("comb.extract", [owner.operands[0]],
                       [(piece_width, None)],
                       {"low": owner.attr("low", 0) + rel_low})
    graph.block.insert_before(anchor, sliced)
    return sliced.result


def _split_extract_of_concat(graph: Graph, op: Operation) -> bool:
    """Extract spanning several concat operands: split into per-operand
    slices — but only when every slice folds (full operand, constant,
    copy-aligned replicate, or a merged extract) and the concat dies, so
    the rewrite shrinks the graph."""
    src = op.operands[0].owner
    if (src is None or src.name != "comb.concat"
            or len(src.result.uses) != 1):
        return False
    low = op.attr("low", 0)
    width = op.result.width
    pieces = []
    offset = 0
    for operand in reversed(src.operands):
        piece_low = max(low, offset)
        piece_high = min(low + width, offset + operand.width)
        if piece_high > piece_low:
            pieces.append((operand, piece_low - offset,
                           piece_high - piece_low))
        offset += operand.width
    if len(pieces) < 2:
        return False
    if not all(_slice_feasible(v, rel, w) for v, rel, w in pieces):
        return False
    values = [_slice_value(graph, op, v, rel, w) for v, rel, w in pieces]
    values.reverse()  # back to MSB-first
    joined = Operation("comb.concat", values, [(width, None)])
    graph.block.insert_before(op, joined)
    _replace(op, joined.result)
    return True


def _fold_disjoint_bits(graph: Graph, op: Operation) -> bool:
    """or/xor/add of two concats whose set bits cannot overlap (one is
    zero-padded low, the other zero-padded high) is pure wiring: the
    rotate idiom ``(x << k) | (x >> (w-k))`` collapses to one concat."""
    if op.name not in ("comb.or", "comb.xor", "comb.add"):
        return False
    width = op.result.width
    for hi_index in (0, 1):
        hi, lo = op.operands[hi_index], op.operands[1 - hi_index]
        hi_op, lo_op = hi.owner, lo.owner
        if (hi_op is None or lo_op is None or hi_op is lo_op
                or hi_op.name != "comb.concat"
                or lo_op.name != "comb.concat"):
            continue
        tail, head = hi_op.operands[-1], lo_op.operands[0]
        if _constant_value(tail) != 0 or _constant_value(head) != 0:
            continue
        low_zeros, high_zeros = tail.width, head.width
        if low_zeros + high_zeros < width:
            continue  # set bits may overlap
        parts = list(hi_op.operands[:-1])
        middle = low_zeros + high_zeros - width
        if middle > 0:
            parts.append(_make_constant(graph, op, 0, middle))
        parts.extend(lo_op.operands[1:])
        if not parts:
            continue
        joined = Operation("comb.concat", parts, [(width, None)])
        graph.block.insert_before(op, joined)
        _replace(op, joined.result)
        return True
    return False


def _fold_concat(graph: Graph, op: Operation) -> bool:
    """Flatten nested concats, merge adjacent constants, and merge
    adjacent extracts of contiguous slices of one value (MSB-first)."""
    if any(v.owner is not None and v.owner.name == "comb.concat"
           for v in op.operands):
        flat: List[Value] = []
        for value in op.operands:
            owner = value.owner
            if owner is not None and owner.name == "comb.concat":
                flat.extend(owner.operands)
            else:
                flat.append(value)
        replacement = Operation("comb.concat", flat,
                                [(op.result.width, None)])
        graph.block.insert_before(op, replacement)
        _replace(op, replacement.result)
        return True

    def merge_pair(hi: Value, lo: Value, anchor: Operation) -> Optional[Value]:
        hi_const, lo_const = _constant_value(hi), _constant_value(lo)
        if hi_const is not None and lo_const is not None:
            merged = (hi_const << lo.width) | lo_const
            return _make_constant(graph, anchor, merged, hi.width + lo.width)
        hi_op, lo_op = hi.owner, lo.owner
        if (hi_op is not None and lo_op is not None
                and hi_op.name == "comb.extract"
                and lo_op.name == "comb.extract"
                and hi_op.operands[0] is lo_op.operands[0]
                and lo_op.attr("low", 0) + lo.width == hi_op.attr("low", 0)):
            joined = Operation(
                "comb.extract", [lo_op.operands[0]],
                [(hi.width + lo.width, None)], {"low": lo_op.attr("low", 0)})
            graph.block.insert_before(anchor, joined)
            return joined.result
        return None

    for i in range(len(op.operands) - 1):
        merged_value = merge_pair(op.operands[i], op.operands[i + 1], op)
        if merged_value is None:
            continue
        rest = op.operands[:i] + [merged_value] + op.operands[i + 2:]
        if len(rest) == 1:
            _replace(op, rest[0])
        else:
            replacement = Operation("comb.concat", rest,
                                    [(op.result.width, None)])
            graph.block.insert_before(op, replacement)
            _replace(op, replacement.result)
        return True
    return False


#: Ops a truncating extract narrows at any bit offset (bitwise: every
#: result bit depends only on the same-position operand bits).
_NARROW_ANY_LOW = ("comb.and", "comb.or", "comb.xor", "comb.not")
#: Ops a truncating extract narrows only at offset 0 (modular arithmetic:
#: low result bits depend only on low operand bits).  Shifts are excluded —
#: truncating a shift *amount* changes its value.
_NARROW_LOW_ZERO = ("comb.add", "comb.sub", "comb.mul")


def _narrow_through_extract(graph: Graph, op: Operation) -> bool:
    """Width-normalization: ``extract(f(a, b))`` -> ``f(extract(a),
    extract(b))`` so the widen-compute-truncate chains the hwarith lowering
    emits collapse to arithmetic at the consumed width.

    Applied only when the wide op has no other users and at least one
    operand's extract folds away immediately (a constant or wiring op), so
    the rewrite never grows the graph once the folds run.
    """
    src = op.operands[0].owner
    if src is None or len(src.results) != 1:
        return False
    if src.opdef.has_side_effects or src.regions:
        return False
    uses = src.result.uses
    if len(uses) != 1 or uses[0] is not op:
        return False
    low = op.attr("low", 0)
    width = op.result.width
    if src.name == "comb.mux":
        data_operands = src.operands[1:]
    elif src.name in _NARROW_ANY_LOW:
        data_operands = src.operands
    elif src.name in _NARROW_LOW_ZERO and low == 0:
        data_operands = src.operands
    else:
        return False

    def foldable(value: Value) -> bool:
        if _constant_value(value) is not None:
            return True
        owner = value.owner
        return owner is not None and owner.name in (
            "comb.concat", "comb.extract", "comb.replicate")

    if not any(foldable(v) for v in data_operands):
        return False
    new_operands: List[Value] = []
    for index, value in enumerate(src.operands):
        if src.name == "comb.mux" and index == 0:
            new_operands.append(value)
            continue
        sliced = Operation("comb.extract", [value], [(width, None)],
                           {"low": low})
        graph.block.insert_before(op, sliced)
        new_operands.append(sliced.result)
    narrow = Operation(src.name, new_operands, [(width, None)])
    graph.block.insert_before(op, narrow)
    _replace(op, narrow.result)
    return True


def _fold_mux_not(graph: Graph, op: Operation) -> bool:
    """mux(c,1,0) -> c; mux(c,0,1) -> !c; mux(!c,a,b) -> mux(c,b,a);
    !!x -> x; x ^ all-ones -> !x."""
    if op.name == "comb.mux":
        cond, t, f = op.operands
        if op.result.width == 1:
            t_const, f_const = _constant_value(t), _constant_value(f)
            if (t_const, f_const) == (1, 0):
                _replace(op, cond)
                return True
            if (t_const, f_const) == (0, 1):
                inverted = Operation("comb.not", [cond], [(1, None)])
                graph.block.insert_before(op, inverted)
                _replace(op, inverted.result)
                return True
        cond_op = cond.owner
        if cond_op is not None and cond_op.name == "comb.not":
            _rewire(op, 0, cond_op.operands[0])
            op.set_operand(1, f)
            op.set_operand(2, t)
            return True
        return False
    if op.name == "comb.not":
        inner = op.operands[0].owner
        if inner is not None and inner.name == "comb.not":
            _replace(op, inner.operands[0])
            return True
        return False
    if op.name == "comb.xor":
        for idx in (0, 1):
            if _constant_value(op.operands[idx]) == mask(op.result.width):
                other = op.operands[1 - idx]
                inverted = Operation("comb.not", [other],
                                     [(op.result.width, None)])
                graph.block.insert_before(op, inverted)
                _replace(op, inverted.result)
                return True
    return False


def _algebraic(graph: Graph, op: Operation) -> bool:
    """:func:`_simplify_algebraic` as a rule, erasing dead feeders."""
    simplified = _simplify_algebraic(op)
    if simplified is None:
        return False
    _replace(op, simplified)
    return True


#: Per-op-name canonicalization rules, tried in order.  Dispatching by
#: name keeps the hot path linear: an op only pays for the helpers that
#: can possibly apply to it, and the bulk of a lowered graph (constants,
#: wiring extracts/concats, interface ops) skips almost everything.
_CANON_RULES: Dict[str, Tuple[Rule, ...]] = {
    "comb.add": (_algebraic, _fold_disjoint_bits),
    "comb.sub": (_algebraic, _simplify_self_inverse),
    "comb.or": (_algebraic, _fold_disjoint_bits),
    "comb.xor": (_algebraic, _simplify_self_inverse, _fold_disjoint_bits,
                 _fold_mux_not),
    "comb.mul": (_algebraic, _simplify_self_inverse),
    "comb.and": (_algebraic, _simplify_self_inverse),
    "comb.shl": (_algebraic, _rewrite_constant_shift),
    "comb.shru": (_algebraic, _rewrite_constant_shift),
    "comb.shrs": (_rewrite_constant_shift,),
    "comb.mux": (_algebraic, _fold_mux_not),
    "comb.not": (_fold_mux_not,),
    "comb.extract": (_algebraic, _fold_extract, _split_extract_of_concat,
                     _narrow_through_extract),
    "comb.concat": (_algebraic, _fold_concat),
}


def canonicalize_pass(graph: Graph) -> Tuple[int, int]:
    """Commutative-operand ordering plus algebraic and wiring folds, on the
    rewrite driver (:mod:`repro.ir.rewrite`).

    Rewrites move ops, and the ordering key is block position, so the
    ordering runs again after each drain; the ops it swapped seed the next
    drain.  ``removed`` is the net size delta: rules erase whole dead
    feeder trees, and some removals mint a replacement constant.
    """
    before = len(graph.operations)
    swapped = _order_commutative(graph)
    rewritten = len(swapped) + apply_rules(graph, _CANON_RULES)
    while True:
        swapped = _order_commutative(graph)
        if not swapped:
            return max(0, before - len(graph.operations)), rewritten
        rewritten += len(swapped) + apply_rules(graph, _CANON_RULES, swapped)


# ---------------------------------------------------------------------------
# propagate: constant folding through registered folders + constant dedup
# ---------------------------------------------------------------------------

def _fold(graph: Graph, op: Operation) -> bool:
    """The dialect folder as a rule, erasing dead feeders."""
    folder = op.opdef.folder
    assert folder is not None
    result = folder(op, [_constant_value(v) for v in op.operands])
    if result is None:
        return False
    _replace(op, _make_constant(graph, op, result, op.result.width))
    return True


_FOLD_RULES = {name: (_fold,) for name in comb.FOLDED_OPS}


def propagate_pass(graph: Graph) -> Tuple[int, int]:
    """Fold pure ops whose operands are all constants, then merge identical
    constants (the copy-propagation half: every use of an equal constant
    flows to one defining op)."""
    before = len(graph.operations)
    rewritten = apply_rules(graph, _FOLD_RULES)
    dedupe_constants(graph)
    # Erased net of replacements: folds eagerly drop their now-dead
    # feeder constants, so the graph-size delta is the honest count.
    return max(0, before - len(graph.operations)), rewritten


# ---------------------------------------------------------------------------
# cse: global value numbering over the (single-block) graph
# ---------------------------------------------------------------------------

def _value_number_key(op: Operation) -> Tuple[object, ...]:
    attributes = op.attributes
    if attributes:
        try:
            attr_key: object = tuple(sorted(attributes.items()))
            hash(attr_key)
        except TypeError:
            # Unhashable attribute payloads (e.g. ROM value lists) fall
            # back to the repr form; the common int/str attrs stay cheap.
            attr_key = tuple(sorted(
                (k, repr(v)) for k, v in attributes.items()))
    else:
        attr_key = ()
    return (
        op.name,
        tuple(id(v) for v in op.operands),
        attr_key,
        tuple((r.width, r.signed) for r in op.results),
    )


def cse_pass(graph: Graph) -> Tuple[int, int]:
    """Merge structurally identical pure single-result operations.  Block
    order is def-before-use (IV001), so the first occurrence dominates."""
    # One in-order sweep reaches the fixpoint: operands precede their
    # users (IV001), so by the time an op is visited every merge among
    # its operands has already redirected them — value-number chains
    # collapse without a confirmation sweep.
    removed = 0
    seen: Dict[Tuple[object, ...], Operation] = {}
    for op in list(graph.operations):
        if not _is_pure(op) or len(op.results) != 1:
            continue
        key = _value_number_key(op)
        existing = seen.get(key)
        if existing is None:
            seen[key] = op
        else:
            _replace(op, existing.result)
            removed += 1
    return removed, 0


# ---------------------------------------------------------------------------
# strength: expensive ops -> cheap ops, compare canonicalization
# ---------------------------------------------------------------------------

def _reduce_mul(graph: Graph, op: Operation) -> bool:
    """mul by 2^k -> shift wiring; mul by 2^k - 1 -> (x << k) - x.  Both
    are signedness-agnostic under masked two's-complement arithmetic."""
    width = op.result.width
    for idx in (1, 0):
        const = _constant_value(op.operands[idx])
        if const is None or const in (0, 1):
            continue
        value = op.operands[1 - idx]
        if (const & (const - 1)) == 0:
            amount = const.bit_length() - 1
            replacement = _shift_wiring(graph, op, value, amount)
            _replace(op, replacement)
            return True
        if ((const + 1) & const) == 0 and const.bit_length() >= 2:
            # const == 2^k - 1 (binary repunit): x*(2^k-1) == (x<<k) - x.
            amount = const.bit_length()
            shl_value = _shift_wiring(graph, op, value, amount)
            sub = Operation("comb.sub", [shl_value, value], [(width, None)])
            graph.block.insert_before(op, sub)
            _replace(op, sub.result)
            return True
    return False


def _shift_wiring(graph: Graph, anchor: Operation, value: Value,
                  amount: int) -> Value:
    """Build ``value << amount`` as extract/concat wiring (no shifter)."""
    width = value.width
    if amount == 0:
        return value
    if amount >= width:
        return _make_constant(graph, anchor, 0, width)
    keep = width - amount
    low = Operation("comb.extract", [value], [(keep, None)], {"low": 0})
    graph.block.insert_before(anchor, low)
    pad = _make_constant(graph, anchor, 0, amount)
    concat = Operation("comb.concat", [low.result, pad], [(width, None)])
    graph.block.insert_before(anchor, concat)
    return concat.result


def _shrink_divmod(graph: Graph, op: Operation) -> bool:
    """Unsigned div/mod by powers of two -> wiring/mask; any div/mod by 1.
    Signed power-of-two division rounds toward zero, not minus infinity,
    so it is deliberately NOT rewritten to an arithmetic shift."""
    const = _constant_value(op.operands[1])
    if const is None or const == 0:
        # Division by zero has trap-like core-defined semantics; leave it.
        return False
    width = op.result.width
    if const == 1:
        if op.name in ("comb.divu", "comb.divs"):
            _replace(op, op.operands[0])
            return True
        if op.name in ("comb.modu", "comb.mods"):
            _replace(op, _make_constant(graph, op, 0, width))
            return True
        return False
    if (const & (const - 1)) != 0:
        return False
    amount = const.bit_length() - 1
    if op.name == "comb.divu":
        # x >> amount as wiring: zero-extend the top width-amount bits.
        keep = width - amount
        if keep <= 0:
            _replace(op, _make_constant(graph, op, 0, width))
            return True
        high = Operation("comb.extract", [op.operands[0]], [(keep, None)],
                         {"low": amount})
        graph.block.insert_before(op, high)
        pad = _make_constant(graph, op, 0, amount)
        concat = Operation("comb.concat", [pad, high.result], [(width, None)])
        graph.block.insert_before(op, concat)
        _replace(op, concat.result)
        return True
    if op.name == "comb.modu":
        mask_const = _make_constant(graph, op, const - 1, width)
        masked = Operation("comb.and", [op.operands[0], mask_const],
                           [(width, None)])
        graph.block.insert_before(op, masked)
        _replace(op, masked.result)
        return True
    return False


def _canonicalize_icmp(graph: Graph, op: Operation) -> bool:
    pred = op.attr("predicate")
    lhs, rhs = op.operands
    if lhs is rhs:
        # x P x holds exactly for the predicates that admit equality.
        reflexive = comb.ICMP[pred].symbol in ("==", "<=", ">=")
        _replace(op, _make_constant(graph, op, int(reflexive), 1))
        return True
    if _constant_value(lhs) is not None and _constant_value(rhs) is None:
        op.set_operand(0, rhs)
        op.set_operand(1, lhs)
        op.attributes["predicate"] = comb.ICMP[pred].swapped
        return True
    rhs_const = _constant_value(rhs)
    if rhs_const is None:
        return False
    width = lhs.width
    if rhs_const == 0:
        if pred == "ult":
            _replace(op, _make_constant(graph, op, 0, 1))
            return True
        if pred == "uge":
            _replace(op, _make_constant(graph, op, 1, 1))
            return True
        if pred in ("ule", "ugt"):
            op.attributes["predicate"] = "eq" if pred == "ule" else "ne"
            return True
    if rhs_const == mask(width):
        if pred == "ugt":
            _replace(op, _make_constant(graph, op, 0, 1))
            return True
        if pred == "ule":
            _replace(op, _make_constant(graph, op, 1, 1))
            return True
        if pred in ("uge", "ult"):
            op.attributes["predicate"] = "eq" if pred == "uge" else "ne"
            return True
    return False


def _invert_not_of_icmp(graph: Graph, op: Operation) -> bool:
    """!(a pred b) -> a invert(pred) b, when the compare has no other use."""
    inner = op.operands[0].owner
    if (inner is None or inner.name != "comb.icmp"
            or len(inner.result.uses) != 1):
        return False
    inverted = Operation(
        "comb.icmp", list(inner.operands), [(1, None)],
        {"predicate": comb.ICMP[inner.attr("predicate")].negated})
    graph.block.insert_before(op, inverted)
    _replace(op, inverted.result)
    return True


_STRENGTH_RULES: Dict[str, Tuple[Rule, ...]] = {
    "comb.mul": (_reduce_mul,),
    **{name: (_shrink_divmod,) for name in comb.DIVMOD_OPS},
    "comb.icmp": (_canonicalize_icmp,),
    "comb.not": (_invert_not_of_icmp,),
}


def strength_pass(graph: Graph) -> Tuple[int, int]:
    """Strength reduction and compare canonicalization."""
    return 0, apply_rules(graph, _STRENGTH_RULES)


# ---------------------------------------------------------------------------
# share / dce
# ---------------------------------------------------------------------------

def share_pass(graph: Graph) -> Tuple[int, int]:
    """Intra-graph resource sharing: push muxes through expensive ops so
    mutually exclusive users time-share one unit (see repro.opt.share)."""
    return mux_push(graph)


def dce_pass(graph: Graph) -> Tuple[int, int]:
    return graph.remove_dead_code(), 0
