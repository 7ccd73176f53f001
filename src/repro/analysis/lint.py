"""The CoreDSL semantic linter (Tier A of the static-analysis subsystem).

Rules run over the *typed* AST of an :class:`ElaboratedISA` — every
expression already carries a ``ctype`` and, where known, a ``const_value``
— so checks are width- and signedness-aware without re-implementing the
type system.  Each rule has a stable code (``LNxxx``), a slug, a default
severity and a docstring; :data:`LINT_RULES` is the registry the CLI's
``--enable``/``--disable`` flags and the documentation generator consume.

The whole rule set shares a single AST traversal: :class:`LintContext`
flattens every behavior's statements and expressions once (and computes
state read/write sets once), so linting stays well under the documented
5% overhead budget of a cold compile (benchmarks/bench_lint_overhead.py).

========  ==========================  ========================================
code      rule                        finding
========  ==========================  ========================================
LN001     implicit-truncation         compound assignment silently truncates
LN002     shift-width                 constant shift amount >= operand width
LN003     sign-compare                relational compare mixes signedness
LN004     state-read-before-write     custom state read but never initialized
LN005     unused-state                custom state element never referenced
LN006     unused-function             function unreachable from any behavior
LN007     unused-field                encoding operand field never used
LN008     unreachable-code            statement after return/spawn
LN009     dead-branch                 branch condition is compile-time constant
LN010     encoding-overlap            two instructions match the same word
LN011     encoding-overlap-cross      overlap across ISAXes of one compile job
LN012     proven-comparison           comparison decided by proven value ranges
LN013     proven-division-by-zero     divisor's proven range is exactly zero
LN014     array-index-out-of-range    index's proven range misses the array
LN015     field-dead-bits             encoding never fills some field bits
========  ==========================  ========================================

LN012-LN015 are range rules: they evaluate expressions in the
mathematical-integer interval domain (:class:`repro.analysis.absint.IntRange`
— encoding operand fields get their exact decoded range from the
placement masks, other expressions their type range) and only report
what is *proven* for every reachable input.  LN015 carries ``note``
severity: unfilled field bits read as zero, which is well-defined and
occasionally intentional, so it never gates ``--werror``.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.absint import IntRange
from repro.frontend import ast_nodes as ast
from repro.frontend.elaboration import ElabInstruction, ElaboratedISA, elaborate
from repro.frontend.typecheck import StateInfo
from repro.utils.diagnostics import (
    Diagnostic,
    Severity,
    SourceLocation,
    sort_diagnostics,
)

# ---------------------------------------------------------------------------
# Typed-AST walking helpers
# ---------------------------------------------------------------------------

def child_stmts(stmt: ast.Stmt) -> List[ast.Stmt]:
    """Direct child statements of one statement (no recursion)."""
    if isinstance(stmt, ast.BlockStmt):
        return list(stmt.statements)
    if isinstance(stmt, ast.IfStmt):
        return [s for s in (stmt.then_body, stmt.else_body) if s is not None]
    if isinstance(stmt, ast.ForStmt):
        return [s for s in (stmt.init, stmt.step, stmt.body) if s is not None]
    if isinstance(stmt, ast.WhileStmt):
        return [stmt.body] if stmt.body is not None else []
    if isinstance(stmt, ast.SwitchStmt):
        return [case.body for case in stmt.cases if case.body is not None]
    if isinstance(stmt, ast.SpawnStmt):
        return [stmt.body] if stmt.body is not None else []
    return []


def stmt_exprs(stmt: ast.Stmt) -> List[ast.Expr]:
    """Expressions directly owned by one statement (no recursion)."""
    if isinstance(stmt, ast.VarDecl):
        return [stmt.init] if stmt.init is not None else []
    if isinstance(stmt, ast.Assign):
        return [e for e in (stmt.target, stmt.value) if e is not None]
    if isinstance(stmt, ast.ExprStmt):
        return [stmt.expr] if stmt.expr is not None else []
    if isinstance(stmt, ast.IfStmt):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, ast.ForStmt):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, ast.WhileStmt):
        return [stmt.cond] if stmt.cond is not None else []
    if isinstance(stmt, ast.SwitchStmt):
        exprs = [stmt.value] if stmt.value is not None else []
        exprs.extend(c.label for c in stmt.cases if c.label is not None)
        return exprs
    if isinstance(stmt, ast.ReturnStmt):
        return [stmt.value] if stmt.value is not None else []
    return []


def expr_children(expr: ast.Expr) -> List[ast.Expr]:
    if isinstance(expr, ast.BinaryOp):
        return [e for e in (expr.lhs, expr.rhs) if e is not None]
    if isinstance(expr, ast.UnaryOp):
        return [expr.operand] if expr.operand is not None else []
    if isinstance(expr, ast.Conditional):
        return [e for e in (expr.cond, expr.true_value, expr.false_value)
                if e is not None]
    if isinstance(expr, ast.Cast):
        return [expr.operand] if expr.operand is not None else []
    if isinstance(expr, ast.FunctionCall):
        return list(expr.args)
    if isinstance(expr, ast.IndexExpr):
        return [e for e in (expr.base, expr.index) if e is not None]
    if isinstance(expr, ast.RangeExpr):
        return [e for e in (expr.base, expr.hi, expr.lo) if e is not None]
    return []


def iter_stmts(root: Optional[ast.Stmt]) -> Iterator[ast.Stmt]:
    """Pre-order traversal over all statements under (and including) root."""
    if root is None:
        return
    stack: List[ast.Stmt] = [root]
    while stack:
        stmt = stack.pop()
        yield stmt
        stack.extend(reversed(child_stmts(stmt)))


def _flatten_exprs(roots: Iterable[ast.Expr]) -> List[ast.Expr]:
    """All expression nodes under the given roots, pre-order."""
    flat: List[ast.Expr] = []
    stack = list(roots)
    stack.reverse()
    while stack:
        expr = stack.pop()
        flat.append(expr)
        stack.extend(reversed(expr_children(expr)))
    return flat


# ---------------------------------------------------------------------------
# Rule framework
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Behavior:
    """One lintable behavior with enough context to locate findings."""

    kind: str                       # "instruction" | "always" | "function"
    name: str
    body: Optional[ast.BlockStmt]
    loc: Optional[SourceLocation] = None
    fields: Tuple[str, ...] = ()    # encoding operand fields (instructions)


#: One pre-computed traversal: (behavior, all statements, all expressions).
Walk = Tuple[Behavior, List[ast.Stmt], List[ast.Expr]]


class LintContext:
    """Shared input for every rule: one primary ISA plus, for cross-job
    rules, all ISAs of the compile job.

    The context owns the single shared AST traversal (:meth:`walks`) and
    the combined state access sets (:meth:`state_accesses`); rules iterate
    the cached results instead of re-walking the tree.
    """

    def __init__(self, isa: ElaboratedISA,
                 isas: Sequence[ElaboratedISA] = ()) -> None:
        self.isa = isa
        self.isas: Tuple[ElaboratedISA, ...] = tuple(isas) or (isa,)
        self._walks: Optional[List[Walk]] = None
        self._accesses: Optional[Tuple[Dict[str, SourceLocation],
                                       Set[str]]] = None
        self._field_ranges: Dict[str, Dict[str, IntRange]] = {}

    def walks(self, include_functions: bool = True) -> List[Walk]:
        if self._walks is None:
            behaviors = [
                Behavior("instruction", i.name, i.behavior, i.loc,
                         tuple(i.fields))
                for i in self.isa.instructions.values()
            ]
            behaviors.extend(
                Behavior("always", a.name, a.body, a.loc)
                for a in self.isa.always_blocks.values()
            )
            behaviors.extend(
                Behavior("function", sig.name, sig.definition.body,
                         sig.definition.loc)
                for sig in self.isa.functions.values()
            )
            self._walks = []
            for behavior in behaviors:
                stmts = list(iter_stmts(behavior.body))
                exprs = _flatten_exprs(
                    e for stmt in stmts for e in stmt_exprs(stmt))
                self._walks.append((behavior, stmts, exprs))
        if include_functions:
            return self._walks
        return [w for w in self._walks if w[0].kind != "function"]

    def custom_regs(self) -> List[StateInfo]:
        return [s for s in self.isa.custom_state()
                if s.kind in ("scalar_reg", "array_reg")]

    def state_accesses(self) -> Tuple[Dict[str, SourceLocation], Set[str]]:
        """Combined over every behavior: (first read location per state
        element, set of written state elements).  Compound assignments
        count as both; index/range expressions on a write target count
        their subscripts as reads."""
        if self._accesses is None:
            state = self.isa.state
            first_read: Dict[str, SourceLocation] = {}
            written: Set[str] = set()

            def record_reads(roots: Iterable[ast.Expr]) -> None:
                for node in _flatten_exprs(roots):
                    if isinstance(node, ast.Identifier) \
                            and node.name in state:
                        first_read.setdefault(node.name, node.loc)

            for _behavior, stmts, _exprs in self.walks():
                for stmt in stmts:
                    if not isinstance(stmt, ast.Assign):
                        record_reads(stmt_exprs(stmt))
                        continue
                    target = stmt.target
                    name = None
                    if isinstance(target, ast.Identifier):
                        name = target.name
                    elif isinstance(target, (ast.IndexExpr, ast.RangeExpr)) \
                            and isinstance(target.base, ast.Identifier):
                        name = target.base.name
                    if name is not None and name in state:
                        written.add(name)
                        if stmt.op != "=":
                            first_read.setdefault(
                                name, target.loc if target else stmt.loc)
                    if isinstance(target, ast.IndexExpr):
                        record_reads([target.index] if target.index else [])
                    elif isinstance(target, ast.RangeExpr):
                        record_reads([e for e in (target.hi, target.lo)
                                      if e is not None])
                    if stmt.value is not None:
                        record_reads([stmt.value])
            self._accesses = (first_read, written)
        return self._accesses


    def field_ranges(self, behavior: Behavior) -> Dict[str, IntRange]:
        """Proven value range per encoding operand field of an instruction
        behavior (empty for always-blocks and functions).

        The range comes from the *decoded* value, not just the declared
        width: field bits no encoding slice fills are always zero, so a
        field assembled from slices ``[4:3]`` and ``[0:0]`` tops out at
        ``0b11001``, not ``0b11111``."""
        if behavior.kind != "instruction":
            return {}
        cached = self._field_ranges.get(behavior.name)
        if cached is not None:
            return cached
        ranges: Dict[str, IntRange] = {}
        instruction = self.isa.instructions.get(behavior.name)
        if instruction is not None:
            for name, field in instruction.encoding.fields.items():
                covered = 0
                for placement in field.placements:
                    covered |= ((1 << (placement.field_hi + 1)) -
                                (1 << placement.field_lo))
                ranges[name] = IntRange(0, covered)
        self._field_ranges[behavior.name] = ranges
        return ranges


# ---------------------------------------------------------------------------
# Expression ranges (the AST face of the abstract-interpretation engine)
# ---------------------------------------------------------------------------

_COMPARISON_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _type_range(ctype: object) -> Optional[IntRange]:
    min_value = getattr(ctype, "min_value", None)
    max_value = getattr(ctype, "max_value", None)
    if min_value is None or max_value is None:
        return None
    return IntRange(min_value, max_value)


def expr_range(expr: Optional[ast.Expr],
               fields: Dict[str, IntRange]) -> Optional[IntRange]:
    """Sound mathematical value range of a typed expression.

    Flow-insensitive: encoding operand fields get their decoded range
    from ``fields``, every other identifier its type range.  CoreDSL
    operators compute in widened result types, so the recursion only
    narrows below the type range, never wraps; whenever a computed range
    escapes the expression's own type range (a container the semantics
    would truncate into) it is widened back to the full type range.
    ``None`` means no claim (untyped or unmodelled node).
    """
    if expr is None:
        return None
    if expr.const_value is not None:
        return IntRange.const(expr.const_value)
    type_rng = _type_range(expr.ctype)
    result: Optional[IntRange] = None
    if isinstance(expr, ast.Identifier):
        result = fields.get(expr.name)
    elif isinstance(expr, ast.BinaryOp) \
            and expr.lhs is not None and expr.rhs is not None:
        a = expr_range(expr.lhs, fields)
        b = expr_range(expr.rhs, fields)
        if expr.op in _COMPARISON_OPS:
            result = IntRange(0, 1)
        elif expr.op in ("&&", "||"):
            result = IntRange(0, 1)
        elif a is not None and b is not None:
            op = expr.op
            if op == "+":
                result = a.add(b)
            elif op == "-":
                result = a.sub(b)
            elif op == "*":
                result = a.mul(b)
            elif op == "<<":
                result = a.shl(b)
            elif op == ">>":
                result = a.shr(b)
            elif op == "/" and b.lo > 0 and a.lo >= 0:
                result = IntRange(a.lo // b.hi, a.hi // b.lo)
            elif op == "%" and b.lo > 0 and a.lo >= 0:
                result = IntRange(0, min(a.hi, b.hi - 1))
            elif op == "&" and a.lo >= 0 and b.lo >= 0:
                result = IntRange(0, min(a.hi, b.hi))
            elif op in ("|", "^") and a.lo >= 0 and b.lo >= 0:
                bits = max(a.hi.bit_length(), b.hi.bit_length())
                result = IntRange(0, (1 << bits) - 1)
    elif isinstance(expr, ast.UnaryOp) and expr.operand is not None:
        a = expr_range(expr.operand, fields)
        if expr.op == "!":
            result = IntRange(0, 1)
        elif expr.op == "-" and a is not None:
            result = a.neg()
    elif isinstance(expr, ast.Conditional):
        a = expr_range(expr.true_value, fields)
        b = expr_range(expr.false_value, fields)
        if a is not None and b is not None:
            result = IntRange(min(a.lo, b.lo), max(a.hi, b.hi))
    elif isinstance(expr, ast.Cast) and expr.operand is not None:
        a = expr_range(expr.operand, fields)
        if a is not None and type_rng is not None \
                and type_rng.lo <= a.lo and a.hi <= type_rng.hi:
            result = a          # value-preserving re-encoding
    if result is None:
        return type_rng
    if type_rng is not None \
            and (result.lo < type_rng.lo or result.hi > type_rng.hi):
        return type_rng         # truncating container: all bets off
    return result


RuleCheck = Callable[[LintContext], Iterable[Diagnostic]]


@dataclasses.dataclass(frozen=True)
class LintRule:
    code: str
    name: str
    severity: Severity
    description: str
    check: RuleCheck

    def diagnostic(self, message: str, loc: Optional[SourceLocation] = None,
                   fix_hint: Optional[str] = None) -> Diagnostic:
        return Diagnostic(self.code, self.severity, message, loc,
                          rule=self.name, fix_hint=fix_hint)


#: Registry: code -> rule.  Ordered by code; the CLI and docs rely on it.
LINT_RULES: Dict[str, LintRule] = {}


def lint_rule(code: str, name: str, severity: Severity,
              description: str) -> Callable[[RuleCheck], RuleCheck]:
    def wrap(check: RuleCheck) -> RuleCheck:
        if code in LINT_RULES:
            raise ValueError(f"duplicate lint rule code {code}")
        LINT_RULES[code] = LintRule(code, name, severity, description, check)
        return check
    return wrap


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@lint_rule("LN001", "implicit-truncation", Severity.WARNING,
           "A compound assignment ('a op= b') truncates the operation's "
           "result back to the target's width; a right-hand side wider than "
           "the target silently loses its upper bits.")
def _check_implicit_truncation(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN001"]
    for behavior, stmts, _exprs in ctx.walks():
        for stmt in stmts:
            if not isinstance(stmt, ast.Assign) or stmt.op == "=":
                continue
            target, value = stmt.target, stmt.value
            if target is None or value is None:
                continue
            if target.ctype is None or value.ctype is None:
                continue
            if value.ctype.width > target.ctype.width:
                yield rule.diagnostic(
                    f"'{stmt.op}' truncates a {value.ctype.width}-bit value "
                    f"to the {target.ctype.width}-bit target in "
                    f"{behavior.kind} '{behavior.name}'",
                    stmt.loc,
                    fix_hint="widen the target or cast the right-hand side "
                             "explicitly",
                )


@lint_rule("LN002", "shift-width", Severity.WARNING,
           "A shift amount — constant, or non-constant with a proven value "
           "range — that never drops below the operand width always "
           "produces 0 (or the sign fill); almost certainly an off-by-one "
           "in the shift distance.  Field-bounded amounts (e.g. a 5-bit "
           "shamt on a 32-bit operand) stay clean.")
def _check_shift_width(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN002"]
    for behavior, _stmts, exprs in ctx.walks():
        fields = ctx.field_ranges(behavior)
        for expr in exprs:
            if not isinstance(expr, ast.BinaryOp) \
                    or expr.op not in ("<<", ">>"):
                continue
            lhs, rhs = expr.lhs, expr.rhs
            if lhs is None or rhs is None or lhs.ctype is None:
                continue
            amount = rhs.const_value
            if amount is not None:
                if amount >= lhs.ctype.width:
                    yield rule.diagnostic(
                        f"shift amount {amount} >= operand width "
                        f"{lhs.ctype.width} in {behavior.kind} "
                        f"'{behavior.name}'; the result is constant",
                        expr.loc,
                    )
                continue
            # Non-constant amount: flag only when the proven interval
            # never drops below the operand width.
            rng = expr_range(rhs, fields)
            if rng is not None and rng.lo >= lhs.ctype.width:
                yield rule.diagnostic(
                    f"shift amount is proven to stay in "
                    f"[{rng.lo}, {rng.hi}], never below the operand width "
                    f"{lhs.ctype.width}, in {behavior.kind} "
                    f"'{behavior.name}'; the result is constant",
                    expr.loc,
                    fix_hint="reduce the shift distance or widen the "
                             "shifted operand",
                )


@lint_rule("LN003", "sign-compare", Severity.WARNING,
           "A relational comparison between a signed and an unsigned "
           "operand converts both to a common type; negative values then "
           "compare as large positive numbers.")
def _check_sign_compare(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN003"]
    for behavior, _stmts, exprs in ctx.walks():
        for expr in exprs:
            if not isinstance(expr, ast.BinaryOp) \
                    or expr.op not in ("<", "<=", ">", ">="):
                continue
            lhs, rhs = expr.lhs, expr.rhs
            if lhs is None or rhs is None:
                continue
            if lhs.ctype is None or rhs.ctype is None:
                continue
            if lhs.ctype.is_signed == rhs.ctype.is_signed:
                continue
            # A non-negative constant on either side is always safe: it is
            # representable in the common supertype with its value intact.
            consts = [e.const_value for e in (lhs, rhs)
                      if e.const_value is not None]
            if consts and all(value >= 0 for value in consts):
                continue
            yield rule.diagnostic(
                f"comparison '{expr.op}' mixes "
                f"{lhs.ctype} and {rhs.ctype} in {behavior.kind} "
                f"'{behavior.name}'",
                expr.loc,
                fix_hint="cast one operand so both sides share signedness",
            )


@lint_rule("LN004", "state-read-before-write", Severity.WARNING,
           "A custom state element is read by some behavior but has no "
           "initializer and is never written anywhere in the ISA: every "
           "read observes an undefined power-on value.")
def _check_state_read_before_write(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN004"]
    first_read, written = ctx.state_accesses()
    for info in ctx.custom_regs():
        if info.init_values is not None:
            continue
        if info.name in first_read and info.name not in written:
            diag = rule.diagnostic(
                f"custom state '{info.name}' is read but never written and "
                "has no initializer",
                first_read[info.name],
                fix_hint=f"add an initializer to '{info.name}' or write it "
                         "in a setup instruction",
            )
            if info.loc is not None:
                diag.with_note(f"'{info.name}' declared here", info.loc)
            yield diag


@lint_rule("LN005", "unused-state", Severity.WARNING,
           "A custom state element (register, register file or constant "
           "register) is never read or written by any instruction, "
           "always-block or function.")
def _check_unused_state(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN005"]
    first_read, written = ctx.state_accesses()
    referenced = set(first_read) | written
    for info in ctx.isa.custom_state():
        if info.name not in referenced:
            yield rule.diagnostic(
                f"custom state '{info.name}' is never used",
                info.loc,
                fix_hint=f"remove '{info.name}' or reference it in a "
                         "behavior",
            )


@lint_rule("LN006", "unused-function", Severity.WARNING,
           "A function is not reachable from any instruction or "
           "always-block (directly or through other called functions).")
def _check_unused_function(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN006"]
    calls: Dict[Tuple[str, str], Set[str]] = {}
    for behavior, _stmts, exprs in ctx.walks():
        calls[(behavior.kind, behavior.name)] = {
            expr.callee for expr in exprs
            if isinstance(expr, ast.FunctionCall)
        }
    reachable: Set[str] = set()
    frontier: Set[str] = set()
    for (kind, _name), callees in calls.items():
        if kind != "function":
            frontier |= callees
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        frontier |= calls.get(("function", name), set()) - reachable
    for name, sig in ctx.isa.functions.items():
        if name not in reachable:
            yield rule.diagnostic(
                f"function '{name}' is never called from any instruction "
                "or always-block",
                sig.definition.loc,
            )


@lint_rule("LN007", "unused-field", Severity.WARNING,
           "An operand field declared in an instruction's encoding is never "
           "referenced by its behavior; the instruction ignores those "
           "instruction-word bits.")
def _check_unused_field(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN007"]
    for behavior, _stmts, exprs in ctx.walks(include_functions=False):
        if behavior.kind != "instruction" or not behavior.fields:
            continue
        used = {expr.name for expr in exprs
                if isinstance(expr, ast.Identifier)}
        for field in behavior.fields:
            if field not in used:
                yield rule.diagnostic(
                    f"operand field '{field}' of instruction "
                    f"'{behavior.name}' is never used in its behavior",
                    behavior.loc,
                )


@lint_rule("LN008", "unreachable-code", Severity.WARNING,
           "Statements that follow a 'return' or 'spawn' in the same block "
           "can never execute.")
def _check_unreachable(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN008"]
    for behavior, stmts, _exprs in ctx.walks():
        for stmt in stmts:
            if not isinstance(stmt, ast.BlockStmt):
                continue
            for prev, nxt in zip(stmt.statements, stmt.statements[1:]):
                if isinstance(prev, (ast.ReturnStmt, ast.SpawnStmt)):
                    kind = ("return" if isinstance(prev, ast.ReturnStmt)
                            else "spawn")
                    yield rule.diagnostic(
                        f"statement in {behavior.kind} '{behavior.name}' is "
                        f"unreachable after '{kind}'",
                        nxt.loc,
                    )
                    break   # one finding per block is enough


@lint_rule("LN009", "dead-branch", Severity.WARNING,
           "A branch or loop condition folds to a compile-time constant, "
           "so one arm can never execute.")
def _check_dead_branch(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN009"]
    for behavior, stmts, exprs in ctx.walks():
        for stmt in stmts:
            if isinstance(stmt, ast.IfStmt) and stmt.cond is not None \
                    and stmt.cond.const_value is not None:
                always = bool(stmt.cond.const_value)
                dead = "else branch" if always else "then branch"
                yield rule.diagnostic(
                    f"condition is always "
                    f"{'true' if always else 'false'}; the {dead} of "
                    f"this 'if' in {behavior.kind} '{behavior.name}' "
                    "is dead",
                    stmt.cond.loc,
                )
            elif isinstance(stmt, ast.WhileStmt) and not stmt.is_do_while \
                    and stmt.cond is not None \
                    and stmt.cond.const_value == 0:
                yield rule.diagnostic(
                    f"'while' condition is always false in {behavior.kind} "
                    f"'{behavior.name}'; the loop body is dead",
                    stmt.cond.loc,
                )
        for expr in exprs:
            if isinstance(expr, ast.Conditional) and expr.cond is not None \
                    and expr.cond.const_value is not None:
                always = bool(expr.cond.const_value)
                yield rule.diagnostic(
                    f"conditional expression is always "
                    f"{'true' if always else 'false'} in {behavior.kind} "
                    f"'{behavior.name}'",
                    expr.cond.loc,
                )


@lint_rule("LN010", "encoding-overlap", Severity.ERROR,
           "Two instructions of the same ISA match at least one common "
           "instruction word: the decoder cannot distinguish them.")
def _check_encoding_overlap(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN010"]
    for a_name, b_name in ctx.isa.check_encoding_conflicts():
        a = ctx.isa.instructions[a_name]
        b = ctx.isa.instructions[b_name]
        diag = rule.diagnostic(
            f"encodings of '{a_name}' ({a.encoding.pattern}) and "
            f"'{b_name}' ({b.encoding.pattern}) overlap",
            b.loc,
            fix_hint="disambiguate the fixed bits (opcode/funct fields) of "
                     "one encoding",
        )
        if a.loc is not None:
            diag.with_note(f"'{a_name}' defined here", a.loc)
        yield diag


@lint_rule("LN011", "encoding-overlap-cross", Severity.WARNING,
           "Two instructions from *different* ISAXes of the same compile "
           "job match a common instruction word; integrating both on one "
           "core creates a decode conflict.")
def _check_encoding_overlap_cross(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN011"]
    if len(ctx.isas) < 2:
        return
    flat: List[Tuple[str, ElabInstruction]] = []
    for isa in ctx.isas:
        flat.extend((isa.name, instr) for instr in isa.instructions.values())
    for i, (isa_a, a) in enumerate(flat):
        for isa_b, b in flat[i + 1:]:
            if isa_a == isa_b:
                continue        # intra-ISA pairs are LN010's job
            if a.encoding.overlaps(b.encoding):
                diag = rule.diagnostic(
                    f"encoding of '{isa_b}.{b.name}' "
                    f"({b.encoding.pattern}) overlaps "
                    f"'{isa_a}.{a.name}' ({a.encoding.pattern})",
                    b.loc,
                )
                if a.loc is not None:
                    diag.with_note(f"'{isa_a}.{a.name}' defined here", a.loc)
                yield diag


@lint_rule("LN012", "proven-comparison", Severity.WARNING,
           "A comparison whose operands have non-overlapping (or fully "
           "ordered) proven value ranges is decided at compile time for "
           "every reachable input; one outcome can never occur.")
def _check_proven_comparison(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN012"]
    for behavior, _stmts, exprs in ctx.walks():
        fields = ctx.field_ranges(behavior)
        for expr in exprs:
            if not isinstance(expr, ast.BinaryOp) \
                    or expr.op not in _COMPARISON_OPS:
                continue
            lhs, rhs = expr.lhs, expr.rhs
            if lhs is None or rhs is None:
                continue
            # All-constant comparisons fold upstream (LN009's territory);
            # a range proof is only news when a side is dynamic.
            if expr.const_value is not None \
                    or (lhs.const_value is not None
                        and rhs.const_value is not None):
                continue
            # Mixed-signedness comparisons convert values (LN003 warns);
            # the mathematical proof below would not match the semantics.
            if lhs.ctype is None or rhs.ctype is None \
                    or lhs.ctype.is_signed != rhs.ctype.is_signed:
                continue
            a = expr_range(lhs, fields)
            b = expr_range(rhs, fields)
            if a is None or b is None:
                continue
            decided = a.compare(expr.op, b)
            if decided is None:
                continue
            yield rule.diagnostic(
                f"comparison '{expr.op}' is always "
                f"{'true' if decided else 'false'} in {behavior.kind} "
                f"'{behavior.name}': left side stays in [{a.lo}, {a.hi}], "
                f"right side in [{b.lo}, {b.hi}]",
                expr.loc,
                fix_hint="simplify the condition or fix the compared "
                         "bound",
            )


@lint_rule("LN013", "proven-division-by-zero", Severity.WARNING,
           "The divisor's proven value range is exactly zero: every "
           "execution divides by zero (all-ones result in hardware; "
           "undefined in C semantics).")
def _check_proven_division_by_zero(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN013"]
    for behavior, _stmts, exprs in ctx.walks():
        fields = ctx.field_ranges(behavior)
        for expr in exprs:
            if not isinstance(expr, ast.BinaryOp) \
                    or expr.op not in ("/", "%"):
                continue
            rng = expr_range(expr.rhs, fields)
            if rng is not None and rng.always_zero():
                yield rule.diagnostic(
                    f"divisor of '{expr.op}' is proven to be zero on "
                    f"every execution in {behavior.kind} "
                    f"'{behavior.name}'",
                    expr.loc,
                )


@lint_rule("LN014", "array-index-out-of-range", Severity.WARNING,
           "The index's proven value range lies entirely beyond a "
           "register-file or ROM array: every access misses the array "
           "(reads return 0, writes are dropped).")
def _check_array_index_range(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN014"]
    state = ctx.isa.state
    for behavior, _stmts, exprs in ctx.walks():
        fields = ctx.field_ranges(behavior)
        for expr in exprs:
            if not isinstance(expr, ast.IndexExpr) \
                    or not isinstance(expr.base, ast.Identifier):
                continue
            info = state.get(expr.base.name)
            if info is None or info.kind not in ("array_reg", "rom") \
                    or not info.size:
                continue
            rng = expr_range(expr.index, fields)
            if rng is not None and rng.lo >= info.size:
                yield rule.diagnostic(
                    f"index into '{info.name}' ({info.size} elements) is "
                    f"proven to stay in [{rng.lo}, {rng.hi}] in "
                    f"{behavior.kind} '{behavior.name}'; every access is "
                    "out of range",
                    expr.loc,
                    fix_hint=f"bound the index below {info.size} or grow "
                             f"'{info.name}'",
                )


@lint_rule("LN015", "field-dead-bits", Severity.NOTE,
           "An encoding operand field's declared width exceeds the bits "
           "its encoding slices actually fill; the unfilled bits decode "
           "as constant zero.  Well-defined — and occasionally intended — "
           "so this is a note, never a '--werror' gate.")
def _check_field_dead_bits(ctx: LintContext) -> Iterator[Diagnostic]:
    rule = LINT_RULES["LN015"]
    for instruction in ctx.isa.instructions.values():
        for name, field in instruction.encoding.fields.items():
            covered = 0
            for placement in field.placements:
                covered |= ((1 << (placement.field_hi + 1)) -
                            (1 << placement.field_lo))
            dead = ((1 << field.width) - 1) & ~covered
            if dead:
                dead_bits = [i for i in range(field.width)
                             if dead & (1 << i)]
                yield rule.diagnostic(
                    f"field '{name}' of instruction '{instruction.name}' "
                    f"is {field.width} bits wide but the encoding never "
                    f"fills bit{'s' if len(dead_bits) != 1 else ''} "
                    f"{', '.join(map(str, dead_bits))}; they always "
                    "decode as 0",
                    instruction.loc,
                )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def _selected_rules(enable: Optional[Sequence[str]],
                    disable: Optional[Sequence[str]]) -> List[LintRule]:
    known = set(LINT_RULES)
    for requested in list(enable or []) + list(disable or []):
        if requested not in known:
            raise ValueError(f"unknown lint rule {requested!r}; known rules: "
                             + ", ".join(sorted(known)))
    codes = set(enable) if enable else known
    codes -= set(disable or [])
    return [LINT_RULES[code] for code in sorted(codes)]


def run_lints(isa: ElaboratedISA,
              enable: Optional[Sequence[str]] = None,
              disable: Optional[Sequence[str]] = None,
              isas: Optional[Sequence[ElaboratedISA]] = None
              ) -> List[Diagnostic]:
    """Run the (selected) lint rules over one elaborated ISA.

    ``enable`` restricts to the given codes; ``disable`` removes codes
    (applied after ``enable``).  ``isas`` supplies the whole compile job
    for cross-ISAX rules; defaults to just ``isa``.
    """
    ctx = LintContext(isa, tuple(isas) if isas else ())
    diagnostics: List[Diagnostic] = []
    for rule in _selected_rules(enable, disable):
        diagnostics.extend(rule.check(ctx))
    return sort_diagnostics(diagnostics)


def lint_cross_isa(isas: Sequence[ElaboratedISA]) -> List[Diagnostic]:
    """Cross-ISAX rules only (LN011), over a whole compile job."""
    if len(isas) < 2:
        return []
    ctx = LintContext(isas[0], tuple(isas))
    return sort_diagnostics(
        list(LINT_RULES["LN011"].check(ctx))
    )


def lint_source(source: str, top: Optional[str] = None,
                filename: str = "<input>",
                enable: Optional[Sequence[str]] = None,
                disable: Optional[Sequence[str]] = None
                ) -> Tuple[ElaboratedISA, List[Diagnostic]]:
    """Elaborate a CoreDSL source and lint it; raises CoreDSLError if the
    source does not elaborate."""
    isa = elaborate(source, top=top, filename=filename)
    return isa, run_lints(isa, enable=enable, disable=disable)
