"""Core IR data structures: values, operations, blocks, regions.

The model mirrors MLIR's: an :class:`Operation` has SSA operands and results,
a dictionary of attributes, and may carry nested :class:`Region`s of
:class:`Block`s.  Def-use chains are maintained eagerly so rewrites
(replace-all-uses-with, erase) are cheap and safe.

Values carry a ``width`` (bits) and an optional ``signed`` flag: ``None``
means *signless* (the ``comb``/``lil``/``hw`` dialects, like CIRCT's), while
``True``/``False`` is used by the ``hwarith``/``coredsl`` level.
"""

from __future__ import annotations

import dataclasses
from typing import (Any, Callable, Dict, Iterable, Iterator, List, NoReturn,
                    Optional, Set, Tuple)


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
        #: Set of (operation, operand_index) pairs using this value.
        self.uses: Set[Tuple["Operation", int]] = set()

    def replace_all_uses_with(self, other: "Value") -> None:
        if other is self:
            return
        for operation, idx in list(self.uses):
            operation.set_operand(idx, other)

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

class Operation:
    """An instruction in the IR.

    ``result_types`` is a list of ``(width, signed)`` pairs; the constructed
    results are available as ``op.results`` (and ``op.result`` when single).
    """

    def __init__(self, name: str, operands: Optional[List[Value]] = None,
                 result_types: Optional[List[Tuple[int, Optional[bool]]]] = None,
                 attributes: Optional[Dict[str, Any]] = None,
                 regions: Optional[List["Region"]] = None) -> None:
        self.name = name
        self.opdef = lookup_op(name)
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.operands: List[Value] = []
        self.parent: Optional[Block] = None
        self.regions: List[Region] = regions or []
        for region in self.regions:
            region.parent_op = self
        self.results: List[Value] = [
            Value(width, signed, owner=self, index=i)
            for i, (width, signed) in enumerate(result_types or [])
        ]
        for value in (operands or []):
            self.append_operand(value)

    # -- operand maintenance -----------------------------------------------
    def append_operand(self, value: Value) -> None:
        if self.parent is not None and self.parent.frozen:
            raise IRError(f"cannot edit '{self.name}': its graph is frozen")
        idx = len(self.operands)
        self.operands.append(value)
        value.uses.add((self, idx))

    def set_operand(self, index: int, value: Value) -> None:
        block = self.parent
        if block is not None and block.frozen:
            raise IRError(f"cannot edit '{self.name}': its graph is frozen")
        old = self.operands[index]
        old.uses.discard((self, index))
        self.operands[index] = value
        value.uses.add((self, index))
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
        return any(r.uses for r in self.results)

    # -- attributes ----------------------------------------------------------------
    def attr(self, key: str, default: Any = None) -> Any:
        return self.attributes.get(key, default)

    # -- structural edits ----------------------------------------------------------
    def erase(self) -> None:
        block = self.parent
        if block is not None and block.frozen:
            raise IRError(f"cannot erase '{self.name}': its graph is frozen")
        if self.has_uses:
            raise IRError(f"cannot erase '{self.name}': results still in use")
        for idx, operand in enumerate(self.operands):
            operand.uses.discard((self, idx))
        if block is not None:
            block.operations.remove(self)
            self.parent = None
            if block.listener is not None:
                # Every operand lost a use, which may let a single-use
                # rule fire on one of its remaining users.
                block.listener([use_op for operand in self.operands
                                for use_op, _ in operand.uses])
        self.operands = []

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

    def append(self, operation: Operation) -> Operation:
        if self.frozen:
            raise IRError("cannot append to a frozen block")
        operation.parent = self
        self.operations.append(operation)
        return operation

    def insert_before(self, anchor: Operation, operation: Operation) -> Operation:
        if self.frozen:
            raise IRError("cannot insert into a frozen block")
        idx = self.operations.index(anchor)
        operation.parent = self
        self.operations.insert(idx, operation)
        if self.listener is not None:
            self.listener((operation,))
        return operation

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
        dead trees."""
        removed = 0
        for op in reversed(list(self.operations)):
            if op.opdef.has_side_effects or op.opdef.is_terminator \
                    or op.has_uses:
                continue
            op.erase()
            removed += 1
        return removed

    def __repr__(self) -> str:
        return f"<Graph {self.name}: {len(self.operations)} ops>"
