"""Core IR data structures: values, operations, blocks, regions.

The model mirrors MLIR's: an :class:`Operation` has SSA operands and results,
a dictionary of attributes, and may carry nested :class:`Region`s of
:class:`Block`s.  Def-use chains are maintained eagerly: every
:class:`Value` keeps a use list, the operations that read it with one
entry per operand slot, so replace-all-uses-with and erase touch only the
operations involved.

While :func:`repro.ir.rewrite.apply_rules` drains, a block defers its
structural edits (:meth:`Block.deferred_edits`): erasing an operation
leaves a tombstone (its ``parent`` is ``None``) in
:attr:`Block.operations`, and inserting one records it against its
anchor.  The end of the drain rebuilds the list in one pass, so a drain
that erases or inserts k operations costs O(k + n), not O(k * n).
Outside a drain both edits are immediate.

Values carry a ``width`` (bits) and an optional ``signed`` flag: ``None``
means *signless* (the ``comb``/``lil``/``hw`` dialects, like CIRCT's), while
``True``/``False`` is used by the ``hwarith``/``coredsl`` level.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NoReturn,
                    Optional, Sequence, Tuple)


class IRError(Exception):
    """Raised on malformed IR (verifier failures, invalid rewrites)."""


class _FrozenAttributes(Dict[str, Any]):
    """The attributes of an operation in a frozen graph: a dict to every
    reader; setting or deleting an item raises :class:`IRError`."""

    def _refuse(self, *args: Any) -> NoReturn:
        raise IRError("cannot edit an attribute of a frozen graph")

    __setitem__ = __delitem__ = _refuse


# ---------------------------------------------------------------------------
# Operation registry
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class OpDef:
    """Registered definition of an operation kind.

    ``verifier`` receives the operation and raises :class:`IRError` on
    malformed uses.  ``folder`` receives the operation and a list of operand
    constant values (``None`` for non-constant operands) and may return a
    constant result value (int) to replace the op, or None.
    """

    name: str
    num_results: int = 1
    has_side_effects: bool = False
    is_terminator: bool = False
    verifier: Optional[Callable[["Operation"], None]] = None
    folder: Optional[Callable[["Operation", List[Optional[int]]], Optional[int]]] = None


_REGISTRY: Dict[str, OpDef] = {}


def register_op(opdef: OpDef) -> OpDef:
    if opdef.name in _REGISTRY:
        raise IRError(f"duplicate registration of operation '{opdef.name}'")
    _REGISTRY[opdef.name] = opdef
    return opdef


def lookup_op(name: str) -> OpDef:
    opdef = _REGISTRY.get(name)
    if opdef is None:
        raise IRError(f"unregistered operation '{name}'")
    return opdef


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

class Value:
    """An SSA value: result of an operation or a block argument."""

    __slots__ = ("width", "signed", "owner", "index", "name", "uses")

    def __init__(self, width: int, signed: Optional[bool] = None,
                 owner: Optional["Operation"] = None, index: int = 0,
                 name: Optional[str] = None) -> None:
        if width < 1:
            raise IRError(f"value width must be >= 1, got {width}")
        self.width = width
        self.signed = signed
        self.owner = owner
        self.index = index
        self.name = name
        #: The operations reading this value, one entry per operand slot
        #: (an op reading it twice is listed twice), in the order the
        #: slots were attached: ``len(uses)`` counts slots.
        self.uses: List["Operation"] = []

    def replace_all_uses_with(self, other: "Value") -> None:
        """Make every operand slot that reads this value read ``other``.

        A frozen user refuses before anything changes; a draining block's
        listener hears once, with every user."""
        users = self.uses
        if other is self or not users:
            return
        listener: Optional[Callable[[Iterable[Operation]], None]] = None
        for user in users:
            block = user.parent
            if block is not None:
                if block.frozen:
                    raise IRError(
                        f"cannot edit '{user.name}': its graph is frozen")
                if block.listener is not None:
                    listener = block.listener
        # One entry per slot: each entry rewires the first slot of its
        # user that still reads this value.
        for user in users:
            operands = user.operands
            operands[operands.index(self)] = other
        self.uses = []
        other.uses.extend(users)
        if listener is not None:
            listener(users)

    @property
    def type_str(self) -> str:
        if self.signed is None:
            return f"i{self.width}"
        return f"{'si' if self.signed else 'ui'}{self.width}"

    def __repr__(self) -> str:
        owner = self.owner.name if self.owner is not None else "blockarg"
        return f"<Value {self.type_str} of {owner}>"


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

#: The regions of every operation built without any: one shared tuple.
_NO_REGIONS: Tuple["Region", ...] = ()


class Operation:
    """An instruction in the IR.

    ``result_types`` is a list of ``(width, signed)`` pairs; the constructed
    results are available as ``op.results`` (and ``op.result`` when single).
    ``attributes`` is copied; ``regions`` is kept as given.
    """

    __slots__ = ("name", "opdef", "attributes", "operands", "parent",
                 "regions", "results")

    def __init__(self, name: str, operands: Optional[List[Value]] = None,
                 result_types: Optional[List[Tuple[int, Optional[bool]]]] = None,
                 attributes: Optional[Dict[str, Any]] = None,
                 regions: Optional[List["Region"]] = None) -> None:
        opdef = _REGISTRY.get(name)
        if opdef is None:
            raise IRError(f"unregistered operation '{name}'")
        self.name = name
        self.opdef = opdef
        self.attributes: Dict[str, Any] = (dict(attributes) if attributes
                                           else {})
        self.parent: Optional[Block] = None
        self.regions: Sequence[Region] = _NO_REGIONS
        if regions:
            self.regions = regions
            for region in regions:
                region.parent_op = self
        results: List[Value] = []
        if result_types:
            index = 0
            for width, signed in result_types:
                results.append(Value(width, signed, self, index))
                index += 1
        self.results = results
        self.operands: List[Value] = list(operands) if operands else []
        for value in self.operands:
            value.uses.append(self)

    # -- operand maintenance -----------------------------------------------
    def append_operand(self, value: Value) -> None:
        if self.parent is not None and self.parent.frozen:
            raise IRError(f"cannot edit '{self.name}': its graph is frozen")
        self.operands.append(value)
        value.uses.append(self)

    def set_operand(self, index: int, value: Value) -> None:
        block = self.parent
        if block is not None and block.frozen:
            raise IRError(f"cannot edit '{self.name}': its graph is frozen")
        operands = self.operands
        operands[index].uses.remove(self)
        operands[index] = value
        value.uses.append(self)
        if block is not None and block.listener is not None:
            block.listener((self,))

    # -- results ----------------------------------------------------------------
    @property
    def result(self) -> Value:
        if len(self.results) != 1:
            raise IRError(f"'{self.name}' has {len(self.results)} results")
        return self.results[0]

    @property
    def has_uses(self) -> bool:
        for result in self.results:
            if result.uses:
                return True
        return False

    # -- attributes ----------------------------------------------------------------
    def attr(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    # -- structural edits ----------------------------------------------------------
    def erase(self) -> None:
        """Detach this unused op from its operands and its block.  Inside
        :meth:`Block.deferred_edits` the op stays in the block's
        ``operations`` as a tombstone until the deferral ends."""
        block = self.parent
        if block is not None and block.frozen:
            raise IRError(f"cannot erase '{self.name}': its graph is frozen")
        if self.has_uses:
            raise IRError(f"cannot erase '{self.name}': results still in use")
        operands = self.operands
        for operand in operands:
            operand.uses.remove(self)
        self.operands = []
        if block is not None:
            self.parent = None
            if block._inserted is None:
                block.operations.remove(self)
            else:
                block._stale += 1
            if block.listener is not None:
                # Every operand lost a use, which may let a single-use
                # rule fire on one of its remaining users.
                block.listener([user for operand in operands
                                for user in operand.uses])

    def verify(self) -> None:
        if self.opdef.verifier is not None:
            self.opdef.verifier(self)
        for region in self.regions:
            for block in region.blocks:
                for operation in block.operations:
                    operation.verify()

    def __repr__(self) -> str:
        return f"<Operation {self.name}>"


# ---------------------------------------------------------------------------
# Blocks and regions
# ---------------------------------------------------------------------------

class Block:
    def __init__(self, arg_types: Optional[List[Tuple[int, Optional[bool]]]] = None) -> None:
        self.arguments: List[Value] = [
            Value(width, signed, owner=None, index=i)
            for i, (width, signed) in enumerate(arg_types or [])
        ]
        self.operations: List[Operation] = []
        self.parent: Optional[Region] = None
        #: Set while :func:`repro.ir.rewrite.apply_rules` drains: called
        #: with the ops an edit of this block may have made rewritable.
        self.listener: Optional[Callable[[Iterable[Operation]], None]] = None
        #: Set by :meth:`Graph.freeze`: every edit of the block or of one
        #: of its operations raises.
        self.frozen = False
        #: Inside :meth:`deferred_edits`: anchor -> the ops inserted
        #: before it, in insertion order; ``None`` when edits are immediate.
        self._inserted: Optional[Dict[Operation, List[Operation]]] = None
        #: Deferred edits (tombstones and inserts) not yet settled.
        self._stale = 0

    def append(self, operation: Operation) -> Operation:
        if self.frozen:
            raise IRError("cannot append to a frozen block")
        operation.parent = self
        self.operations.append(operation)
        return operation

    def insert_before(self, anchor: Operation, operation: Operation) -> Operation:
        if self.frozen:
            raise IRError("cannot insert into a frozen block")
        # Checked up front: a deferred insert before a foreign or erased
        # anchor would otherwise vanish when the block settles.
        if anchor.parent is not self:
            raise IRError(f"cannot insert before '{anchor.name}': it is not "
                          "an operation of this block")
        operation.parent = self
        inserted = self._inserted
        if inserted is None:
            operations = self.operations
            operations.insert(operations.index(anchor), operation)
        else:
            before = inserted.get(anchor)
            if before is None:
                inserted[anchor] = [operation]
            else:
                before.append(operation)
            self._stale += 1
        if self.listener is not None:
            self.listener((operation,))
        return operation

    @contextlib.contextmanager
    def deferred_edits(self) -> Iterator[None]:
        """Defer erase and insert inside the ``with`` body: an erased op
        stays in :attr:`operations` as a tombstone (``parent is None``),
        and an inserted op (``parent`` set) enters the list only at the
        end, which rebuilds the list in one pass, also when the body
        raises.  Until then no code may read :attr:`operations` for the
        block's order or size."""
        if self._inserted is not None:
            raise IRError("the edits of this block are already deferred")
        inserted: Dict[Operation, List[Operation]] = {}
        self._inserted = inserted
        try:
            yield
        finally:
            self._inserted = None
            if self._stale:
                self._stale = 0
                self._rebuild(inserted)

    def _rebuild(self, inserted: Dict[Operation, List[Operation]]) -> None:
        """Drop tombstones, and put every op of ``inserted`` right before
        its anchor, after those inserted before that anchor earlier (an
        op inserted before an inserted op lands in front of it)."""
        settled: List[Operation] = []
        keep = settled.append
        for anchor in self.operations:
            if anchor not in inserted:
                if anchor.parent is self:
                    keep(anchor)
                continue
            stack = [anchor]
            while stack:
                op = stack.pop()
                before = inserted.pop(op, None)
                if before is None:
                    if op.parent is self:
                        keep(op)
                else:
                    stack.append(op)
                    stack.extend(reversed(before))
        self.operations[:] = settled

    def __iter__(self) -> Iterator["Operation"]:
        return iter(list(self.operations))

    def __len__(self) -> int:
        return len(self.operations)


class Region:
    def __init__(self, blocks: Optional[List[Block]] = None) -> None:
        self.blocks: List[Block] = blocks or []
        for block in self.blocks:
            block.parent = self
        self.parent_op: Optional[Operation] = None

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]


class Graph:
    """A top-level, single-block container (used for lil graphs and hw
    modules).  MLIR equivalent: a symbol-owning op with one graph region."""

    def __init__(self, name: str, attributes: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.block = Block()

    @property
    def operations(self) -> List[Operation]:
        return self.block.operations

    def append(self, operation: Operation) -> Operation:
        return self.block.append(operation)

    def verify(self) -> None:
        for operation in self.operations:
            operation.verify()

    def freeze(self) -> None:
        """Make the graph read-only: appending or inserting an op, setting
        or adding an operand, erasing an op and setting or deleting an
        op's attribute raise :class:`IRError` from now on, before they
        change anything.  List-valued attributes become tuples; the tuple
        is a copy, so a list shared with another graph is left alone."""
        if self.block.frozen:
            return
        self.block.frozen = True
        for op in self.block.operations:
            op.attributes = _FrozenAttributes(
                (key, tuple(value) if isinstance(value, list) else value)
                for key, value in op.attributes.items())

    def topological_order(self) -> List[Operation]:
        """Operations sorted so every def precedes its uses; raises
        :class:`IRError` naming an op on a cycle.  Block order already is
        def-before-use (IV001), so passes walk :attr:`operations`; the
        verifier calls this to name the cycle behind an out-of-order
        operand (IV004).  As in IV001, a register's operands may come
        after it: it samples them at the clock edge, so a loop through a
        register is no cycle."""
        ops = self.operations
        index = {op: i for i, op in enumerate(ops)}
        state: Dict[Operation, int] = {}
        order: List[Operation] = []

        def visit(op: Operation) -> None:
            mark = state.get(op, 0)
            if mark == 2:
                return
            if mark == 1:
                raise IRError(f"cycle in graph '{self.name}' at '{op.name}'")
            state[op] = 1
            if op.name != "seq.compreg":
                for operand in op.operands:
                    if operand.owner is not None and operand.owner in index:
                        visit(operand.owner)
            state[op] = 2
            order.append(op)

        for op in ops:
            visit(op)
        return order

    def remove_dead_code(self) -> int:
        """Erase side-effect-free operations without uses; returns count.

        Block order is def-before-use (IV001), so one reverse sweep visits
        every user before the owners of its operands and removes whole
        dead trees; the block is compacted once, after the sweep."""
        removed = 0
        block = self.block
        with block.deferred_edits():
            for op in reversed(block.operations):
                opdef = op.opdef
                if opdef.has_side_effects or opdef.is_terminator \
                        or op.has_uses:
                    continue
                op.erase()
                removed += 1
        return removed

    def __repr__(self) -> str:
        return f"<Graph {self.name}: {len(self.operations)} ops>"
