"""One worklist driver for every rewrite pass over a flat graph.

MLIR applies its canonicalization patterns through one greedy worklist
driver; :func:`apply_rules` is that driver for lowering's ``-O0`` cleanup
(:func:`repro.ir.passes.canonicalize`) and the optimizer's rewrite passes
(:mod:`repro.opt.passes`, :mod:`repro.opt.share`).

A rule is ``(graph, op) -> bool``: it rewrites or replaces ``op`` and says
whether it did.  A rule table maps an op name to the rules tried on such
an op, in order; the first that fires wins.  The queue starts as every op
in block order.  After a rule fires on an op that survives, the op and
the users of its result are queued again.  While the queue drains, the
block reports every other edit a rule makes (see
:attr:`repro.ir.core.Block.listener`): the ops it inserted, the ops whose
operand it changed (a replaced op's users among them), and the remaining
users of every value that lost a use when an op was erased.  Eager
dead-tree erasure drops uses deep inside a feeder tree, and a single-use
rule on a far user may fire because of it.  So one drain reaches the
fixpoint without sweeping the graph again.

The block defers erase and insert while the queue drains
(:meth:`repro.ir.core.Block.deferred_edits`): an erased op stays in
``graph.operations`` as a tombstone, and an inserted op joins the list
only when the drain ends, in one rebuild.  A rule therefore never reads
``graph.operations`` for order or size; it reads the op it was given and
that op's operands and uses, which are always current.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Iterable, Mapping, Optional, Sequence, Set

from repro.ir.core import Graph, Operation

#: Rewrites or replaces the op; returns whether it did.
Rule = Callable[[Graph, Operation], bool]
#: Op name -> the rules tried on an op of that name, in order.
RuleTable = Mapping[str, Sequence[Rule]]


def apply_rules(graph: Graph, rules: RuleTable,
                seed: Optional[Iterable[Operation]] = None) -> int:
    """Apply ``rules`` until none fires; returns how many rewrites fired.

    ``seed`` is the first queue, every op in block order by default."""
    pending: Deque[Operation] = deque(
        op for op in (graph.operations if seed is None else seed)
        if op.name in rules)
    queued: Set[Operation] = set(pending)

    def push(ops: Iterable[Operation]) -> None:
        for op in ops:
            if op not in queued and op.name in rules:
                queued.add(op)
                pending.append(op)

    fired = 0
    block = graph.block
    block.listener = push
    try:
        # Erase and insert are deferred until the queue is empty: each
        # costs O(1), and the block is rebuilt once, also if a rule raises.
        with block.deferred_edits():
            while pending:
                op = pending.popleft()
                queued.discard(op)
                if op.parent is None:
                    continue
                for rule in rules[op.name]:
                    if rule(graph, op):
                        break
                else:
                    continue
                fired += 1
                # A replaced op's users were queued when their operand
                # changed.
                if op.parent is not None:
                    for value in op.results:
                        push(value.uses)
                    push((op,))
    finally:
        block.listener = None
    return fired
