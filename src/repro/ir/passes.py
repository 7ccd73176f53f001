"""IR passes: lowering's ``-O0`` cleanup (folding, constant dedup, DCE).

MLIR's "usual canonicalization patterns" (paper Section 4.5) are represented
here by one rule per ``comb`` operation, applied on the worklist driver of
:mod:`repro.ir.rewrite`: algebraic identities, constant shifts as wiring,
then the dialect-registered folder.  Constant dedup and dead-code
elimination follow.  The optimizer (:mod:`repro.opt.passes`) reuses the
rule helpers.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.dialects import comb
from repro.ir.core import Graph, Operation, Value
from repro.ir.rewrite import apply_rules


def _constant_value(value: Value) -> Optional[int]:
    owner = value.owner
    if owner is not None and owner.name == "comb.constant":
        return owner.attr("value")
    return None


def _make_constant(graph: Graph, anchor: Operation, value: int, width: int) -> Value:
    op = Operation("comb.constant", [], [(width, None)], {"value": value})
    graph.block.insert_before(anchor, op)
    return op.result


def _simplify_algebraic(op: Operation) -> Optional[Value]:
    """Identity simplifications that do not require all operands constant."""
    name = op.name
    if name in ("comb.add", "comb.sub", "comb.or", "comb.xor", "comb.shl",
                "comb.shru"):
        rhs = _constant_value(op.operands[1])
        if rhs == 0 and op.operands[0].width == op.result.width:
            return op.operands[0]
    if name in ("comb.add", "comb.or", "comb.xor"):
        lhs = _constant_value(op.operands[0])
        if lhs == 0 and op.operands[1].width == op.result.width:
            return op.operands[1]
    if name == "comb.mul":
        if _constant_value(op.operands[1]) == 1:
            return op.operands[0]
        if _constant_value(op.operands[0]) == 1:
            return op.operands[1]
    if name == "comb.and":
        all_ones = (1 << op.result.width) - 1
        if _constant_value(op.operands[1]) == all_ones:
            return op.operands[0]
        if _constant_value(op.operands[0]) == all_ones:
            return op.operands[1]
    if name == "comb.mux":
        cond = _constant_value(op.operands[0])
        if cond is not None:
            return op.operands[1] if cond else op.operands[2]
        if op.operands[1] is op.operands[2]:
            return op.operands[1]
    if name == "comb.extract":
        if op.attr("low") == 0 and op.result.width == op.operands[0].width:
            return op.operands[0]
    if name == "comb.concat" and len(op.operands) == 1:
        return op.operands[0]
    return None


def _rewrite_constant_shift(graph: Graph, op: Operation) -> bool:
    """Shifts by a constant amount are wiring, not shifters: rewrite them to
    extract/concat so neither area nor delay is attributed to them."""
    if op.name not in comb.SHIFT_OPS:
        return False
    amount = _constant_value(op.operands[1])
    if amount is None or amount == 0:
        return False
    width = op.result.width
    value = op.operands[0]
    replacement: Optional[Value] = None
    if op.name == "comb.shru" or (op.name == "comb.shrs" and amount < width):
        keep = width - min(amount, width)
        if keep == 0:
            replacement = _make_constant(graph, op, 0, width)
        else:
            high = Operation("comb.extract", [value], [(keep, None)],
                             {"low": amount})
            graph.block.insert_before(op, high)
            if op.name == "comb.shru":
                pad = _make_constant(graph, op, 0, width - keep)
                fill = pad
            else:
                msb = Operation("comb.extract", [value], [(1, None)],
                                {"low": width - 1})
                graph.block.insert_before(op, msb)
                if width - keep == 1:
                    fill = msb.result
                else:
                    rep = Operation("comb.replicate", [msb.result],
                                    [(width - keep, None)])
                    graph.block.insert_before(op, rep)
                    fill = rep.result
            concat = Operation("comb.concat", [fill, high.result],
                               [(width, None)])
            graph.block.insert_before(op, concat)
            replacement = concat.result
    elif op.name == "comb.shl":
        if amount >= width:
            replacement = _make_constant(graph, op, 0, width)
        else:
            keep = width - amount
            low = Operation("comb.extract", [value], [(keep, None)],
                            {"low": 0})
            graph.block.insert_before(op, low)
            pad = _make_constant(graph, op, 0, amount)
            concat = Operation("comb.concat", [low.result, pad],
                               [(width, None)])
            graph.block.insert_before(op, concat)
            replacement = concat.result
    if replacement is None:
        return False
    op.result.replace_all_uses_with(replacement)
    op.erase()
    return True


def _fold(graph: Graph, op: Operation) -> bool:
    """The ``-O0`` rule: an algebraic identity, else a constant shift as
    wiring, else the dialect folder."""
    replacement = _simplify_algebraic(op)
    if replacement is None:
        if _rewrite_constant_shift(graph, op):
            return True
        folder = op.opdef.folder
        assert folder is not None
        result = folder(op, [_constant_value(v) for v in op.operands])
        if result is None:
            return False
        replacement = _make_constant(graph, op, result, op.result.width)
    op.result.replace_all_uses_with(replacement)
    op.erase()
    return True


_CLEANUP_RULES = {name: (_fold,) for name in comb.FOLDED_OPS}


def dedupe_constants(graph: Graph) -> int:
    """Merge identical ``comb.constant`` operations into the first in block
    order, in one sweep; the block is compacted once, after it."""
    seen: Dict[tuple, Value] = {}
    removed = 0
    with graph.block.deferred_edits():
        for op in graph.operations:
            if op.name != "comb.constant":
                continue
            key = (op.attr("value"), op.result.width)
            existing = seen.get(key)
            if existing is None:
                seen[key] = op.result
            else:
                op.result.replace_all_uses_with(existing)
                op.erase()
                removed += 1
    return removed


def canonicalize(graph: Graph) -> None:
    """Fold to a fixed point, merge equal constants, then erase dead code.

    A replaced op is erased alone, and its dead feeders wait for the one
    DCE at the end.  :func:`dedupe_constants` keeps the first constant in
    block order, dead ones included, and the SystemVerilog printer numbers
    wires in block order: erasing dead feeders earlier would rename wires.
    A merge can enable a fold (``mux(c, k, k)``), so folding and dedup
    repeat until dedup merges nothing."""
    apply_rules(graph, _CLEANUP_RULES)
    while dedupe_constants(graph):
        apply_rules(graph, _CLEANUP_RULES)
    graph.remove_dead_code()
