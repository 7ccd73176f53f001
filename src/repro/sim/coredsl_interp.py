"""Golden model for CoreDSL behaviors.

Runs the decorated AST of an elaborated ISA against an architectural state,
with the value semantics guaranteed by the type system (operators never
overflow; casts truncate/reinterpret).  Serves as:

* the reference model for co-simulation against the generated RTL,
* the executor of every instruction, base and ISAX, inside the RV32IM
  instruction-set simulator,
* the always-block evaluator of the core timing models.

The model is translated, not walked: on the first execution, every
instruction behavior, always-block and function of the ISA becomes one
Python ``def``, each compiled once per distinct text, and the result is
kept for as long as the :class:`ElaboratedISA` lives.  The translation
reads only the typed AST, never the lowered IR, so co-simulation still
compares two paths that share just the parser and the type checker.

Every architectural-state update is also recorded as an :class:`Effect` so
tests can compare "what the hardware did" against "what the language says".
"""

from __future__ import annotations

import dataclasses
import weakref
from typing import Callable, Dict, List, Optional, Tuple

from repro.frontend import ast_nodes as ast
from repro.frontend.elaboration import ElaboratedISA
from repro.frontend.typecheck import FunctionSig, StateInfo, range_width
from repro.frontend.types import IntType
from repro.sim.compile import compile_text
from repro.utils.bits import mask, to_signed, to_unsigned
from repro.utils.diagnostics import CoreDSLError


@dataclasses.dataclass
class Effect:
    """One architectural-state update performed by a behavior."""

    kind: str                  # "gpr" | "pc" | "mem" | "custom"
    name: str
    index: Optional[int]
    value: int                 # unsigned bit-pattern
    width: int
    spawned: bool = False


class ArchState:
    """Architectural state visible to CoreDSL behaviors."""

    def __init__(self, isa: Optional[ElaboratedISA] = None):
        self.xregs: List[int] = [0] * 32
        self.pc: int = 0
        self.memory: Dict[int, int] = {}
        self.custom: Dict[str, List[int]] = {}
        self.custom_widths: Dict[str, int] = {}
        if isa is not None:
            self.add_custom_state(isa)

    def add_custom_state(self, isa: ElaboratedISA) -> None:
        """Instantiate the custom registers of (another) ISAX; registers
        with the same name are shared (paper Section 6: shared state between
        ISAXes is supported)."""
        for info in isa.custom_state():
            if info.name in self.custom:
                continue
            size = info.size or 1
            values = [0] * size
            if info.init_values:
                for i, value in enumerate(info.init_values[:size]):
                    values[i] = value
            self.custom[info.name] = values
            self.custom_widths[info.name] = info.element.width

    # -- general-purpose registers ------------------------------------------
    def read_x(self, index: int) -> int:
        return 0 if index == 0 else self.xregs[index % 32]

    def write_x(self, index: int, value: int) -> None:
        if index % 32 != 0:
            self.xregs[index % 32] = value & 0xFFFFFFFF

    # -- memory: byte addresses wrap at 2**32 ---------------------------------
    def read_mem_byte(self, address: int) -> int:
        return self.memory.get(address & 0xFFFFFFFF, 0)

    def write_mem_byte(self, address: int, value: int) -> None:
        self.memory[address & 0xFFFFFFFF] = value & 0xFF

    def read_mem(self, address: int, num_bytes: int) -> int:
        memory, value = self.memory, 0
        for i in range(num_bytes - 1, -1, -1):
            value = (value << 8) | memory.get((address + i) & 0xFFFFFFFF, 0)
        return value

    def write_mem(self, address: int, value: int, num_bytes: int) -> None:
        memory = self.memory
        for i in range(num_bytes):
            memory[(address + i) & 0xFFFFFFFF] = (value >> (8 * i)) & 0xFF

    # -- custom registers --------------------------------------------------------
    def read_custom(self, name: str, index: int = 0) -> int:
        values = self.custom[name]
        return values[index] if 0 <= index < len(values) else 0

    def write_custom(self, name: str, value: int, index: int = 0) -> None:
        values = self.custom[name]
        if 0 <= index < len(values):
            values[index] = to_unsigned(value, self.custom_widths[name])

    def snapshot(self) -> dict:
        return {
            "xregs": list(self.xregs),
            "pc": self.pc,
            "memory": dict(self.memory),
            "custom": {k: list(v) for k, v in self.custom.items()},
        }


#: Compiled instruction behaviors and always-blocks, by name.
Translation = Tuple[Dict[str, Callable], Dict[str, Callable]]

#: ``isa -> translation``, weakly keyed; nothing in a translation refers
#: back to its ISA, so an entry dies with its ISA.  No lock: two threads
#: that miss together both translate, and the last store wins.
_TRANSLATIONS: "weakref.WeakKeyDictionary[ElaboratedISA, Translation]" = \
    weakref.WeakKeyDictionary()


class CoreDSLInterpreter:
    """Executes instruction behaviors and always-blocks of one ISA."""

    def __init__(self, isa: ElaboratedISA):
        self.isa = isa
        self.effects: List[Effect] = []
        self._code: Optional[Translation] = None

    def _translation(self) -> Translation:
        if self._code is None:
            self._code = _TRANSLATIONS.get(self.isa)
            if self._code is None:
                self._code = _TRANSLATIONS[self.isa] = _translate(self.isa)
        return self._code

    def behavior(self, name: str) -> Callable:
        """The compiled behavior of instruction ``name``; call it as
        ``behavior(state, effects, fields)`` with the word's decoded
        encoding fields, and it appends its effects."""
        return self._translation()[0][name]

    def execute_instruction(self, state: ArchState, name: str,
                            word: int) -> List[Effect]:
        behavior = self.behavior(name)
        fields = self.isa.instructions[name].encoding.decode(word)
        self.effects = []
        behavior(state, self.effects, fields)
        return self.effects

    def execute_always(self, state: ArchState, name: str) -> List[Effect]:
        block = self._translation()[1][name]
        self.effects = []
        block(state, self.effects)
        return self.effects

    def match_instruction(self, word: int) -> Optional[str]:
        for name, instr in self.isa.instructions.items():
            if instr.encoding.matches(word):
                return name
        return None


#: Iterations after which a loop counts as runaway.
_LOOP_LIMIT = 10_000_000


def _div(lhs: int, rhs: int) -> int:
    """C division: the quotient truncates toward zero."""
    if rhs == 0:
        raise CoreDSLError("division by zero")
    quotient = abs(lhs) // abs(rhs)
    return -quotient if (lhs < 0) != (rhs < 0) else quotient


def _mod(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise CoreDSLError("modulo by zero")
    return lhs - _div(lhs, rhs) * rhs


def _bit(value: int, index: int, width: int) -> int:
    """``value[index]`` of a ``width``-bit value; 0 outside the value."""
    return (value >> index) & 1 if 0 <= index < width else 0


def _slice(value: int, low: int, count: int, width: int) -> int:
    """``value[low+count-1:low]``, cut off at the value's top bit."""
    high = min(low + count - 1, width - 1)
    if low > high:
        return 0
    return ((value & mask(width)) >> low) & mask(high - low + 1)


def _gather(read: Callable[[int], int], low: int, count: int,
            width: int) -> int:
    """Elements ``low+count-1`` down to ``low``, concatenated."""
    value = 0
    for i in range(count - 1, -1, -1):
        value = (value << width) | (read(low + i) & mask(width))
    return value


def _value(result: Optional[int], callee: str) -> int:
    """A call's result; a function that ends without ``return`` has none."""
    if result is None:
        raise CoreDSLError(f"void function '{callee}' used as value")
    return result


def _fail(message: str, *_operands: int) -> int:
    """Raise, after the operands, if any, have been evaluated."""
    raise CoreDSLError(message)


_HELPERS = {"_Effect": Effect, "_div": _div, "_mod": _mod, "_bit": _bit,
            "_slice": _slice, "_gather": _gather, "_value": _value,
            "_fail": _fail}
_INFIX = ("+", "-", "*", "&", "|", "^", "<<", ">>")
_COMPARE = ("==", "!=", "<", "<=", ">", ">=")


#: The def name of every compiled behavior and always-block.
_BEHAVIOR = "_run"


def _translate(isa: ElaboratedISA) -> Translation:
    """Compile every behavior, always-block and function of ``isa``.

    Each definition is its own text, compiled once per distinct text by
    :func:`~repro.sim.compile.compile_text` and executed into the ISA's
    one namespace: helpers and tables first, then functions, then
    behaviors.  Tables and callees are globals of that namespace, so a
    text shared by two ISAs reads each ISA's own.

    No CoreDSL name can capture a generated one: locals become
    ``l<n>_<name>``, encoding fields ``e_<name>``, functions
    ``f_<name>`` and ROM tables ``_t_<name>``, while the parameters ``S``
    (state), ``E`` (effects), ``F`` (fields) and ``sp`` (spawned), the
    helpers and the temporaries carry no such prefix."""
    emit = _Translator(isa)
    functions = [emit.function(sig) for sig in isa.functions.values()]
    behaviors = ({name: emit.behavior(instr.behavior, instr.fields)
                  for name, instr in isa.instructions.items()},
                 {name: emit.behavior(block.body, None)
                  for name, block in isa.always_blocks.items()})
    namespace = dict(_HELPERS, **emit.tables)

    def load(text: str) -> Optional[Callable]:
        """Execute one definition; the behavior it defines, if any."""
        code = compile_text(text, "<coredsl>")
        exec(code, namespace)  # noqa: S102 - generated from the typed AST only
        return namespace.pop(_BEHAVIOR, None)

    for text in functions:
        load(text)
    instructions, always = ({name: load(text) for name, text in group.items()}
                            for group in behaviors)
    return instructions, always


def _const(value: int) -> str:
    return repr(value) if value >= 0 else f"({value})"


def _wrap(code: str, type_: IntType) -> str:
    """``code`` wrapped into ``type_``'s range."""
    bits = f"{code} & {mask(type_.width):#x}"
    if not type_.is_signed:
        return f"({bits})"
    sign = f"{1 << (type_.width - 1):#x}"
    return f"((({bits}) ^ {sign}) - {sign})"


class _Translator:
    """Emits one ``def`` per behavior, always-block and function, each as
    its own text with its own local numbering.  Its scopes mirror the
    type checker's, so every name resolves statically: local, encoding
    field, parameter, then scalar register."""

    def __init__(self, isa: ElaboratedISA):
        self.isa = isa
        self.lines: List[str] = []
        self.tables: Dict[str, Dict[int, int]] = {}
        self.indent, self.names = 1, 0
        self.scopes: List[Dict[str, Tuple[str, IntType]]] = []
        self.fields: Dict[str, str] = {}
        self.spawned = "False"
        #: The function's return type, "void", or None outside functions.
        self.returns: object = None

    def behavior(self, body: ast.Stmt,
                 fields: Optional[Dict[str, IntType]]) -> str:
        self.scopes, self.spawned, self.returns = [], "False", None
        self.fields = {field: f"e_{field}" for field in fields or {}}
        self.names = 0
        self.lines = [
            f"def {_BEHAVIOR}(S, E{'' if fields is None else ', F'}):"]
        for field, local in self.fields.items():
            self.line(f"{local} = F[{field!r}]")
        self.block(body)
        return "\n".join(self.lines) + "\n"

    def function(self, sig: FunctionSig) -> str:
        self.scopes, self.fields, self.spawned = [{}], {}, "sp"
        self.returns = sig.return_type or "void"
        self.names = 0
        params = "".join(f", {self.declare(name, type_)}"
                         for name, type_ in sig.params)
        self.lines = [f"def f_{sig.name}(S, E, sp{params}):"]
        self.block(sig.definition.body)
        return "\n".join(self.lines) + "\n"

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def declare(self, name: str, type_: IntType) -> str:
        local = f"{self.fresh('l')}_{name}"
        self.scopes[-1][name] = (local, type_)
        return local

    def lookup(self, name: str) -> Optional[Tuple[str, IntType]]:
        return next((scope[name] for scope in reversed(self.scopes)
                     if name in scope), None)

    def state_of(self, name: str) -> Optional[StateInfo]:
        if self.lookup(name) is not None or name in self.fields:
            return None
        return self.isa.state.get(name)

    def effect(self, kind: str, name: str, index: str, width: int) -> None:
        self.line(f"E.append(_Effect({kind!r}, {name!r}, {index}, _v, "
                  f"{width}, {self.spawned}))")

    def elements(self, node: ast.RangeExpr) -> int:
        """Elements in ``[hi:lo]``, counted as the type checker counts."""
        return range_width(node.hi, node.lo, self.isa.parameters)

    # -- statements --------------------------------------------------------------
    def block(self, stmt: ast.Stmt, indent: int = 0) -> None:
        """A block opens a scope; any other statement runs in the current
        one."""
        self.indent += indent
        start = len(self.lines)
        if isinstance(stmt, ast.BlockStmt):
            self.scopes.append({})
            for child in stmt.statements:
                self.stmt(child)
            self.scopes.pop()
        else:
            self.stmt(stmt)
        if len(self.lines) == start:
            self.line("pass")
        self.indent -= indent

    def stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self.block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            value = ("0" if stmt.init is None
                     else _wrap(self.expr(stmt.init), stmt.decl_type))
            self.line(f"{self.declare(stmt.name, stmt.decl_type)} = {value}")
        elif isinstance(stmt, ast.Assign):
            self.assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.FunctionCall):
                self.line(self.call(stmt.expr))
        elif isinstance(stmt, ast.IfStmt):
            self.line(f"if {self.expr(stmt.cond)}:")
            self.block(stmt.then_body, 1)
            if stmt.else_body is not None:
                self.line("else:")
                self.block(stmt.else_body, 1)
        elif isinstance(stmt, (ast.ForStmt, ast.WhileStmt)):
            # A do-while tests its condition after the guard, where a
            # while loop tests it again.
            self.scopes.append({})
            if getattr(stmt, "init", None) is not None:
                self.stmt(stmt.init)
            counter = self.fresh("_g")
            self.line(f"{counter} = 0")
            do_while = getattr(stmt, "is_do_while", False)
            self.line("while True:" if stmt.cond is None or do_while
                      else f"while {self.expr(stmt.cond)}:")
            self.block(stmt.body, 1)
            self.indent += 1
            if getattr(stmt, "step", None) is not None:
                self.stmt(stmt.step)
            self.line(f"if ({counter} := {counter} + 1) > {_LOOP_LIMIT}:")
            self.line("    _fail('runaway loop in interpreter')")
            if do_while:
                self.line(f"if not {self.expr(stmt.cond)}:")
                self.line("    break")
            self.indent -= 1
            self.scopes.pop()
        elif isinstance(stmt, ast.SwitchStmt):
            # The first matching label runs, else the default; no
            # fall-through.
            value = self.fresh("_s")
            self.line(f"{value} = {self.expr(stmt.value)}")
            keyword = "if"
            for case in stmt.cases:
                if case.label is not None:
                    self.line(f"{keyword} {self.expr(case.label)} == {value}:")
                    self.block(case.body, 1)
                    keyword = "elif"
            default = [case for case in stmt.cases if case.label is None]
            if default and keyword == "elif":
                self.line("else:")
            if default:
                self.block(default[-1].body, int(keyword == "elif"))
        elif isinstance(stmt, ast.SpawnStmt):
            outer, self.spawned = self.spawned, "True"
            self.block(stmt.body)
            self.spawned = outer
        elif isinstance(stmt, ast.ReturnStmt):
            value = None if stmt.value is None else self.expr(stmt.value)
            if value is not None and isinstance(self.returns, IntType):
                self.line(f"return {_wrap(value, self.returns)}")
                return
            if value is not None:
                self.line(value)
            self.line("return" if self.returns
                      else "_fail(\"'return' outside of a function\")")
        else:
            self.line(f"_fail({f'cannot interpret {type(stmt).__name__}'!r})")

    def assign(self, stmt: ast.Assign) -> None:
        """``=`` evaluates the value, then the target's index; ``op=``
        reads the target, evaluates the value, then the index again."""
        target = stmt.target
        if stmt.op == "=":
            value = self.expr(stmt.value)
        else:
            value = self.binary(stmt.op[:-1], self.expr(target),
                                self.expr(stmt.value), stmt.value.ctype)
        local = (self.lookup(target.name)
                 if isinstance(target, ast.Identifier) else None)
        if local is not None:
            self.line(f"{local[0]} = {_wrap(value, local[1])}")
            return
        self.line(f"_v = {value}")
        base = target if isinstance(target, ast.Identifier) else \
            getattr(target, "base", None)
        info = (self.state_of(base.name)
                if isinstance(base, ast.Identifier) else None)
        if isinstance(target, ast.Identifier):
            if info is not None and info.kind == "scalar_reg":
                self.write(info, None)
            else:
                self.line(f"_fail({f'cannot assign {target.name!r}'!r})")
        elif isinstance(target, ast.IndexExpr) and info is not None:
            self.line(f"_i = {self.expr(target.index)}")
            self.write(info, "_i")
        elif isinstance(target, ast.RangeExpr) and info is not None \
                and info.kind == "mem":
            self.line(f"_i = {self.expr(target.lo)}")
            count = self.elements(target)
            self.line(f"_v &= {mask(count * 8):#x}")
            self.line(f"S.write_mem(_i, _v, {count})")
            self.effect("mem", info.name, "_i & 0xffffffff", count * 8)
        elif isinstance(target, ast.RangeExpr):
            self.line("_fail('unsupported range assignment')")
        else:
            self.line("_fail('unsupported assignment target')")

    def write(self, info: StateInfo, index: Optional[str]) -> None:
        """Store ``_v``, masked to the element width, and record it."""
        self.line(f"_v &= {mask(info.element.width):#x}")
        if info.is_pc:
            self.line("S.pc = _v")
            self.effect("pc", "PC", "None", 32)
        elif info.is_main_reg:
            self.line(f"S.write_x({index}, _v)")
            self.effect("gpr", "X", index, 32)
        elif info.is_main_mem:
            self.line(f"S.write_mem_byte({index}, _v)")
            self.effect("mem", info.name, f"{index} & 0xffffffff", 8)
        elif info.kind == "rom":
            message = f"cannot write constant register '{info.name}'"
            self.line(f"_fail({message!r})")
        else:
            self.line(f"S.write_custom({info.name!r}, _v, {index or 0})")
            self.effect("custom", info.name, index or "0",
                        info.element.width)

    # -- expressions -------------------------------------------------------------
    def binary(self, op: str, lhs: str, rhs: str, rhs_type: IntType) -> str:
        if op in ("<<", ">>") and rhs_type.is_signed:
            # The RTL shifts by the amount's bit pattern.
            rhs = f"({rhs} & {mask(rhs_type.width):#x})"
        if op in _INFIX:
            return f"({lhs} {op} {rhs})"
        if op in _COMPARE:
            return f"(1 if {lhs} {op} {rhs} else 0)"
        if op in ("/", "%"):
            return f"{'_div' if op == '/' else '_mod'}({lhs}, {rhs})"
        return f"_fail({f'cannot interpret operator {op!r}'!r}, {lhs}, {rhs})"

    def call(self, call: ast.FunctionCall) -> str:
        sig = self.isa.functions.get(call.callee)
        if sig is None:
            return f"_fail({f'unknown function {call.callee!r}'!r})"
        args = "".join(f", {_wrap(self.expr(arg), type_)}"
                       for arg, (_name, type_) in zip(call.args, sig.params))
        return f"f_{call.callee}(S, E, {self.spawned}{args})"

    def read(self, info: StateInfo, index: Optional[str]) -> str:
        """Raw read of a state element; ``index`` is None for a scalar."""
        if info.is_pc:
            return "S.pc"
        if info.is_main_reg:
            return f"S.read_x({index})"
        if info.is_main_mem:
            return f"S.read_mem_byte({index})"
        if info.kind == "rom":
            values = dict(enumerate(info.init_values or ()))
            if index is None:
                return _const(values.get(0, 0))
            table = f"_t_{info.name}"
            self.tables[table] = values
            return f"{table}.get({index}, 0)"
        return f"S.read_custom({info.name!r}, {index or 0})"

    def expr(self, expr: ast.Expr) -> str:
        """``expr`` as a Python expression whose operands evaluate left
        to right, as in the language."""
        if isinstance(expr, ast.IntLiteral):
            type_ = expr.explicit_type
            if type_ is not None and type_.is_signed:
                return _const(to_signed(expr.value, type_.width))
            return _const(expr.value)
        if isinstance(expr, ast.BoolLiteral):
            return "1" if expr.value else "0"
        if isinstance(expr, ast.Identifier):
            return self.identifier(expr.name)
        if isinstance(expr, ast.BinaryOp):
            lhs, rhs = self.expr(expr.lhs), self.expr(expr.rhs)
            if expr.op in ("&&", "||"):
                logic = "and" if expr.op == "&&" else "or"
                return f"(1 if {lhs} {logic} {rhs} else 0)"
            if expr.op == "::":
                lw, rw = expr.lhs.ctype.width, expr.rhs.ctype.width
                return (f"(({lhs} & {mask(lw):#x}) << {rw} "
                        f"| {rhs} & {mask(rw):#x})")
            return self.binary(expr.op, lhs, rhs, expr.rhs.ctype)
        if isinstance(expr, ast.UnaryOp):
            operand = self.expr(expr.operand)
            if expr.op == "-":
                return f"(-{operand})"
            if expr.op == "!":
                return f"(0 if {operand} else 1)"
            if expr.op == "~":
                return _wrap(f"(~{operand})", expr.operand.ctype)
            message = f"cannot interpret unary '{expr.op}'"
            return f"_fail({message!r}, {operand})"
        if isinstance(expr, ast.Conditional):
            return (f"({self.expr(expr.true_value)} if "
                    f"{self.expr(expr.cond)} else "
                    f"{self.expr(expr.false_value)})")
        if isinstance(expr, ast.Cast):
            width = expr.target_width or expr.operand.ctype.width
            return _wrap(self.expr(expr.operand),
                         IntType(width, expr.target_signed))
        if isinstance(expr, ast.FunctionCall):
            return f"_value({self.call(expr)}, {expr.callee!r})"
        if isinstance(expr, ast.IndexExpr):
            return self.index(expr)
        if isinstance(expr, ast.RangeExpr):
            return self.range(expr)
        return f"_fail({f'cannot interpret {type(expr).__name__}'!r})"

    def identifier(self, name: str) -> str:
        local = self.lookup(name)
        if local is not None:
            return local[0]
        if name in self.fields:
            return self.fields[name]
        if name in self.isa.parameters:
            return _const(self.isa.parameters[name])
        info = self.isa.state.get(name)
        if info is not None and info.kind == "scalar_reg":
            return _wrap(self.read(info, None), info.element)
        return f"_fail({f'cannot interpret identifier {name!r}'!r})"

    def index(self, expr: ast.IndexExpr) -> str:
        """``R[i]`` reads element ``i`` mod 2**32; ``v[i]`` selects a bit,
        unchecked on a scalar register, 0 outside any other value."""
        info = (self.state_of(expr.base.name)
                if isinstance(expr.base, ast.Identifier) else None)
        if info is not None and info.kind in ("array_reg", "mem", "rom"):
            index = f"({self.expr(expr.index)} & 0xffffffff)"
            return _wrap(self.read(info, index), info.element)
        if info is not None and info.kind == "scalar_reg":
            raw = _wrap(self.read(info, None),
                        IntType(info.element.width, False))
            return f"(({raw} >> {self.expr(expr.index)}) & 1)"
        base, index = self.expr(expr.base), self.expr(expr.index)
        width = expr.base.ctype.width
        if index.isdigit() and int(index) < width:
            return f"(({base} >> {index}) & 1)"
        return f"_bit({base}, {index}, {width})"

    def range(self, expr: ast.RangeExpr) -> str:
        count = self.elements(expr)
        info = (self.state_of(expr.base.name)
                if isinstance(expr.base, ast.Identifier) else None)
        kind = info.kind if info is not None else None
        if kind == "mem":
            return f"S.read_mem({self.expr(expr.lo)}, {count})"
        if kind in ("array_reg", "rom"):
            return (f"_gather((lambda i: {self.read(info, 'i')}), "
                    f"{self.expr(expr.lo)}, {count}, {info.element.width})")
        if kind == "scalar_reg":
            raw = _wrap(self.read(info, None),
                        IntType(info.element.width, False))
            return f"(({raw} >> {self.expr(expr.lo)}) & {mask(count):#x})"
        base, low = self.expr(expr.base), self.expr(expr.lo)
        return f"_slice({base}, {low}, {count}, {expr.base.ctype.width})"
