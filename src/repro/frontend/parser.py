"""Recursive-descent parser for CoreDSL (grammar of paper Figure 2).

Produces the AST defined in :mod:`repro.frontend.ast_nodes`.  The statement
and expression sublanguage follows C with the paper's extensions:

* the concatenation operator ``::``,
* the array-subscript operator on scalars (single bit) and with ranges
  (``x[hi:lo]``),
* Verilog-sized literals,
* ``spawn { ... }`` blocks,
* bitwidth-parameterized types ``signed<expr>`` / ``unsigned<expr>``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import Token, tokenize
from repro.frontend.types import ALIASES, IntType
from repro.utils.diagnostics import CoreDSLError

_TYPE_KEYWORDS = {"signed", "unsigned", "int", "char", "short", "long", "bool"}
_STORAGE_KEYWORDS = {"register", "extern", "const", "volatile", "static"}

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Binary operator precedence, higher binds tighter.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "::": 8,
    "<<": 9, ">>": 9,
    "+": 10, "-": 10,
    "*": 11, "/": 11, "%": 11,
}


class Parser:
    """Token-stream parser; one instance per source file."""

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers --------------------------------------------------------
    # ``advance`` never moves past the EOF token, so ``tokens[pos]`` is
    # always in range; only a lookahead can run past the end.
    def peek(self, offset: int = 0) -> Token:
        tokens = self.tokens
        index = self.pos + offset
        return tokens[index] if index < len(tokens) else tokens[-1]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind in ("op", "keyword") and tok.text == text

    def accept(self, text: str) -> bool:
        if self.check(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        if not self.check(text):
            tok = self.peek()
            raise CoreDSLError(f"expected {text!r}, found {tok.text!r}", tok.loc)
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise CoreDSLError(f"expected identifier, found {tok.text!r}", tok.loc)
        return self.advance()

    def error(self, message: str) -> CoreDSLError:
        return CoreDSLError(message, self.peek().loc)

    # -- top level -------------------------------------------------------------
    def parse_description(self) -> ast.Description:
        desc = ast.Description(loc=self.peek().loc)
        while self.accept("import"):
            tok = self.peek()
            if tok.kind != "string":
                raise self.error("expected string literal after 'import'")
            self.advance()
            self.accept(";")  # Figure 1 of the paper omits the semicolon
            desc.imports.append(tok.text)
        while self.peek().kind != "eof":
            if self.check("InstructionSet"):
                desc.instruction_sets.append(self.parse_instruction_set())
            elif self.check("Core"):
                desc.cores.append(self.parse_core())
            else:
                raise self.error(
                    f"expected 'InstructionSet' or 'Core', found {self.peek().text!r}"
                )
        return desc

    def parse_instruction_set(self) -> ast.InstructionSetDef:
        loc = self.expect("InstructionSet").loc
        name = self.expect_ident().text
        extends = None
        if self.accept("extends"):
            extends = self.expect_ident().text
        body = self.parse_isa_body()
        return ast.InstructionSetDef(loc=loc, name=name, extends=extends, body=body)

    def parse_core(self) -> ast.CoreDef:
        loc = self.expect("Core").loc
        name = self.expect_ident().text
        provides: List[str] = []
        if self.accept("provides"):
            provides.append(self.expect_ident().text)
            while self.accept(","):
                provides.append(self.expect_ident().text)
        body = self.parse_isa_body()
        return ast.CoreDef(loc=loc, name=name, provides=provides, body=body)

    def parse_isa_body(self) -> ast.ISABody:
        loc = self.expect("{").loc
        body = ast.ISABody(loc=loc)
        while not self.accept("}"):
            if self.check("architectural_state"):
                self.advance()
                self.expect("{")
                while not self.accept("}"):
                    body.state.extend(self.parse_state_decl())
            elif self.check("instructions"):
                self.advance()
                self.expect("{")
                while not self.accept("}"):
                    body.instructions.append(self.parse_instruction())
            elif self.check("always"):
                self.advance()
                self.expect("{")
                while not self.accept("}"):
                    name_tok = self.expect_ident()
                    block = self.parse_block()
                    body.always_blocks.append(
                        ast.AlwaysDef(loc=name_tok.loc, name=name_tok.text, body=block)
                    )
            elif self.check("functions"):
                self.advance()
                self.expect("{")
                while not self.accept("}"):
                    body.functions.append(self.parse_function())
            else:
                raise self.error(
                    "expected 'architectural_state', 'instructions', 'always' "
                    f"or 'functions', found {self.peek().text!r}"
                )
        return body

    # -- architectural state ------------------------------------------------
    def parse_state_decl(self) -> List[ast.StateDecl]:
        loc = self.peek().loc
        storage = "param"
        while self.peek().kind == "keyword" and self.peek().text in _STORAGE_KEYWORDS:
            word = self.advance().text
            if word in ("register", "extern", "const"):
                storage = word
        is_signed, width_expr = self.parse_type_spec()
        decls: List[ast.StateDecl] = []
        while True:
            name_tok = self.expect_ident()
            decl = ast.StateDecl(
                loc=loc, storage=storage, is_signed=is_signed,
                width_expr=width_expr, name=name_tok.text,
            )
            is_attr_start = (
                self.check("[")
                and self.peek(1).kind == "op"
                and self.peek(1).text == "["
            )
            if self.check("[") and not is_attr_start:
                self.advance()
                decl.array_size_expr = self.parse_expr()
                self.expect("]")
            while self.check("[") and self.peek(1).kind == "op" and self.peek(1).text == "[":
                self.advance()
                self.advance()
                decl.attributes.append(self.expect_ident().text)
                self.expect("]")
                self.expect("]")
            if self.accept("="):
                if self.check("{"):
                    self.advance()
                    decl.init_list = []
                    if not self.check("}"):
                        decl.init_list.append(self.parse_expr())
                        while self.accept(","):
                            decl.init_list.append(self.parse_expr())
                    self.expect("}")
                else:
                    decl.init = self.parse_expr()
            decls.append(decl)
            if not self.accept(","):
                break
        self.expect(";")
        return decls

    def parse_type_spec(self):
        """Return ``(is_signed, width_expr)``.  ``width_expr`` is an Expr
        (usually a constant) to support parameterized widths."""
        tok = self.peek()
        if tok.kind != "keyword" or tok.text not in _TYPE_KEYWORDS:
            raise self.error(f"expected type, found {tok.text!r}")
        self.advance()
        word = tok.text
        if word in ("signed", "unsigned"):
            if self.accept("<"):
                # Width expressions stop before relational operators so the
                # closing '>' of the type is not mistaken for "greater-than".
                width = self.parse_binary(_BINARY_PRECEDENCE["::"])
                self.expect(">")
                return word == "signed", width
            # 'unsigned int', 'unsigned char', ... or bare (defaults to 32 bit)
            nxt = self.peek()
            if nxt.kind == "keyword" and nxt.text in ALIASES:
                self.advance()
                base = ALIASES[nxt.text]
                return word == "signed", _const_expr(base.width, tok)
            return word == "signed", _const_expr(32, tok)
        base = ALIASES[word]
        return base.is_signed, _const_expr(base.width, tok)

    # -- instructions ----------------------------------------------------------
    def parse_instruction(self) -> ast.InstructionDef:
        name_tok = self.expect_ident()
        self.expect("{")
        self.expect("encoding")
        self.expect(":")
        encoding = self.parse_encoding()
        # Optional (ignored) assembly section, part of full CoreDSL.
        if self.accept("assembly"):
            self.expect(":")
            while not self.check(";"):
                self.advance()
            self.expect(";")
        self.expect("behavior")
        self.expect(":")
        behavior = self.parse_statement()
        if not isinstance(behavior, ast.BlockStmt):
            behavior = ast.BlockStmt(loc=behavior.loc, statements=[behavior])
        self.expect("}")
        return ast.InstructionDef(
            loc=name_tok.loc, name=name_tok.text, encoding=encoding, behavior=behavior
        )

    def parse_encoding(self) -> List[ast.EncodingComponent]:
        comps: List[ast.EncodingComponent] = []
        while True:
            tok = self.peek()
            if tok.kind == "verilog_number":
                self.advance()
                comps.append(ast.EncBits(loc=tok.loc, width=tok.width, value=tok.value))
            elif tok.kind == "ident":
                self.advance()
                self.expect("[")
                hi = self._expect_int()
                self.expect(":")
                lo = self._expect_int()
                self.expect("]")
                comps.append(ast.EncField(loc=tok.loc, name=tok.text, hi=hi, lo=lo))
            else:
                raise self.error(
                    "encoding component must be a sized literal (e.g. 7'b0001011) "
                    f"or a field slice (e.g. rs1[4:0]), found {tok.text!r}"
                )
            if not self.accept("::"):
                break
        self.expect(";")
        return comps

    def _expect_int(self) -> int:
        tok = self.peek()
        if tok.kind not in ("number", "verilog_number"):
            raise self.error(f"expected integer, found {tok.text!r}")
        self.advance()
        return tok.value

    # -- functions --------------------------------------------------------------
    def parse_function(self) -> ast.FunctionDef:
        loc = self.peek().loc
        if self.accept("void"):
            ret_signed, ret_width = False, None
        else:
            ret_signed, ret_width = self.parse_type_spec()
        name = self.expect_ident().text
        self.expect("(")
        params: List[ast.FunctionParam] = []
        if not self.check(")"):
            while True:
                p_signed, p_width = self.parse_type_spec()
                p_name = self.expect_ident().text
                params.append(ast.FunctionParam(
                    loc=loc, is_signed=p_signed, width_expr=p_width, name=p_name
                ))
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.parse_block()
        return ast.FunctionDef(
            loc=loc, name=name, return_signed=ret_signed,
            return_width_expr=ret_width, params=params, body=body,
        )

    # -- statements ---------------------------------------------------------------
    def parse_block(self) -> ast.BlockStmt:
        loc = self.expect("{").loc
        stmts: List[ast.Stmt] = []
        while not self.accept("}"):
            stmts.append(self.parse_statement())
        return ast.BlockStmt(loc=loc, statements=stmts)

    def parse_statement(self) -> ast.Stmt:
        tok = self.peek()
        if self.check("{"):
            return self.parse_block()
        if self.accept(";"):
            return ast.BlockStmt(loc=tok.loc)
        if self.check("if"):
            return self.parse_if()
        if self.check("for"):
            return self.parse_for()
        if self.check("while"):
            return self.parse_while()
        if self.check("do"):
            return self.parse_do_while()
        if self.check("switch"):
            return self.parse_switch()
        if self.check("spawn"):
            self.advance()
            body = self.parse_block()
            return ast.SpawnStmt(loc=tok.loc, body=body)
        if self.check("return"):
            self.advance()
            value = None if self.check(";") else self.parse_expr()
            self.expect(";")
            return ast.ReturnStmt(loc=tok.loc, value=value)
        if tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS:
            stmt = self.parse_var_decl()
            self.expect(";")
            return stmt
        stmt = self.parse_expr_or_assign()
        self.expect(";")
        return stmt

    def parse_body(self, keyword: str) -> ast.Stmt:
        """The body of ``if``, ``else``, ``for``, ``while`` or ``do``.  As
        in C, a declaration is not a statement, so it cannot stand there
        unbraced: its scope would be unclear."""
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS:
            raise CoreDSLError(
                f"a declaration cannot be the body of '{keyword}'; "
                "wrap it in braces", tok.loc)
        return self.parse_statement()

    def parse_var_decl(self) -> ast.Stmt:
        loc = self.peek().loc
        is_signed, width_expr = self.parse_type_spec()
        decls: List[ast.Stmt] = []
        while True:
            name = self.expect_ident().text
            init = self.parse_expr() if self.accept("=") else None
            decls.append(ast.VarDecl(
                loc=loc, is_signed=is_signed, width_expr=width_expr,
                name=name, init=init,
            ))
            if not self.accept(","):
                break
        if len(decls) == 1:
            return decls[0]
        return ast.BlockStmt(loc=loc, statements=decls)

    def parse_expr_or_assign(self) -> ast.Stmt:
        loc = self.peek().loc
        # Prefix increment/decrement as statements: ``--COUNT;``
        if self.check("++") or self.check("--"):
            op = self.advance().text
            target = self.parse_unary()
            one = ast.IntLiteral(loc=loc, value=1)
            return ast.Assign(loc=loc, target=target, op=op[0] + "=", value=one)
        expr = self.parse_expr()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _ASSIGN_OPS:
            self.advance()
            value = self.parse_expr()
            return ast.Assign(loc=loc, target=expr, op=tok.text, value=value)
        if tok.kind == "op" and tok.text in ("++", "--"):
            self.advance()
            one = ast.IntLiteral(loc=loc, value=1)
            return ast.Assign(loc=loc, target=expr, op=tok.text[0] + "=", value=one)
        return ast.ExprStmt(loc=loc, expr=expr)

    def parse_if(self) -> ast.IfStmt:
        loc = self.expect("if").loc
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_body("if")
        else_body = None
        if self.accept("else"):
            else_body = self.parse_body("else")
        return ast.IfStmt(loc=loc, cond=cond, then_body=then_body, else_body=else_body)

    def parse_for(self) -> ast.ForStmt:
        loc = self.expect("for").loc
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if not self.check(";"):
            tok = self.peek()
            if tok.kind == "keyword" and tok.text in _TYPE_KEYWORDS:
                init = self.parse_var_decl()
            else:
                init = self.parse_expr_or_assign()
        self.expect(";")
        cond = None if self.check(";") else self.parse_expr()
        self.expect(";")
        step: Optional[ast.Stmt] = None
        if not self.check(")"):
            step = self.parse_expr_or_assign()
        self.expect(")")
        body = self.parse_body("for")
        return ast.ForStmt(loc=loc, init=init, cond=cond, step=step, body=body)

    def parse_while(self) -> ast.WhileStmt:
        loc = self.expect("while").loc
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_body("while")
        return ast.WhileStmt(loc=loc, cond=cond, body=body)

    def parse_do_while(self) -> ast.WhileStmt:
        loc = self.expect("do").loc
        body = self.parse_body("do")
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        self.expect(";")
        return ast.WhileStmt(loc=loc, cond=cond, body=body, is_do_while=True)

    def parse_switch(self) -> ast.SwitchStmt:
        loc = self.expect("switch").loc
        self.expect("(")
        value = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases: List[ast.SwitchCase] = []
        seen_default = False
        while not self.accept("}"):
            case_loc = self.peek().loc
            if self.accept("case"):
                label = self.parse_expr()
            elif self.accept("default"):
                if seen_default:
                    raise CoreDSLError("duplicate 'default' label", case_loc)
                seen_default = True
                label = None
            else:
                raise self.error("expected 'case' or 'default'")
            self.expect(":")
            statements: List[ast.Stmt] = []
            terminated = False
            while not (self.check("case") or self.check("default")
                       or self.check("}")):
                if self.accept("break"):
                    self.expect(";")
                    terminated = True
                    break
                statements.append(self.parse_statement())
            if not terminated and not (label is None and self.check("}")):
                # Arms must be break-terminated; only the final 'default'
                # arm may fall off the end of the switch.
                raise CoreDSLError(
                    "switch arms must end with 'break' (fall-through is "
                    "not supported)",
                    case_loc,
                )
            cases.append(ast.SwitchCase(
                loc=case_loc, label=label,
                body=ast.BlockStmt(loc=case_loc, statements=statements),
            ))
        return ast.SwitchStmt(loc=loc, value=value, cases=cases)

    # -- expressions ------------------------------------------------------------
    def parse_expr(self) -> ast.Expr:
        return self.parse_conditional()

    def parse_conditional(self) -> ast.Expr:
        cond = self.parse_binary(1)
        if self.accept("?"):
            true_value = self.parse_expr()
            self.expect(":")
            false_value = self.parse_conditional()
            return ast.Conditional(
                loc=cond.loc, cond=cond, true_value=true_value, false_value=false_value
            )
        return cond

    def parse_binary(self, min_prec: int) -> ast.Expr:
        lhs = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind != "op":
                break
            prec = _BINARY_PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self.advance()
            rhs = self.parse_binary(prec + 1)
            lhs = ast.BinaryOp(loc=tok.loc, op=tok.text, lhs=lhs, rhs=rhs)
        return lhs

    def parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "~", "!", "+"):
            self.advance()
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return ast.UnaryOp(loc=tok.loc, op=tok.text, operand=operand)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while self.check("["):
            self.advance()
            first = self.parse_expr()
            if self.accept(":"):
                second = self.parse_expr()
                self.expect("]")
                expr = ast.RangeExpr(loc=expr.loc, base=expr, hi=first, lo=second)
            else:
                self.expect("]")
                expr = ast.IndexExpr(loc=expr.loc, base=expr, index=first)
        return expr

    def _looks_like_cast(self) -> bool:
        """A '(' starts a cast iff the next token is a type keyword."""
        nxt = self.peek(1)
        return nxt.kind == "keyword" and nxt.text in _TYPE_KEYWORDS

    def parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return ast.IntLiteral(loc=tok.loc, value=tok.value)
        if tok.kind == "verilog_number":
            self.advance()
            lit_type = IntType(tok.width, tok.signed)
            return ast.IntLiteral(loc=tok.loc, value=tok.value, explicit_type=lit_type)
        if self.check("true") or self.check("false"):
            self.advance()
            return ast.BoolLiteral(loc=tok.loc, value=tok.text == "true")
        if tok.kind == "ident":
            self.advance()
            if self.check("("):
                self.advance()
                args: List[ast.Expr] = []
                if not self.check(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                return ast.FunctionCall(loc=tok.loc, callee=tok.text, args=args)
            return ast.Identifier(loc=tok.loc, name=tok.text)
        if self.check("("):
            if self._looks_like_cast():
                return self.parse_cast()
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        raise self.error(f"expected expression, found {tok.text!r}")

    def parse_cast(self) -> ast.Expr:
        loc = self.expect("(").loc
        word = self.peek().text
        has_explicit_width = False
        if word in ("signed", "unsigned"):
            self.advance()
            is_signed = word == "signed"
            width_expr: Optional[ast.Expr] = None
            if self.accept("<"):
                width_expr = self.parse_binary(_BINARY_PRECEDENCE["::"])
                self.expect(">")
                has_explicit_width = True
            elif self.peek().kind == "keyword" and self.peek().text in ALIASES:
                alias = ALIASES[self.advance().text]
                width_expr = _const_expr(alias.width, self.peek())
                has_explicit_width = True
        else:
            alias = ALIASES[self.advance().text]
            is_signed = alias.is_signed
            width_expr = _const_expr(alias.width, self.peek())
            has_explicit_width = True
        self.expect(")")
        operand = self.parse_unary()
        return ast.Cast(
            loc=loc, target_signed=is_signed,
            width_expr=width_expr if has_explicit_width else None,
            operand=operand,
        )


def _const_expr(value: int, tok: Token) -> ast.IntLiteral:
    return ast.IntLiteral(loc=tok.loc, value=value)


def parse_description(text: str, filename: str = "<input>") -> ast.Description:
    """Parse a CoreDSL source string into a :class:`Description` AST."""
    parser = Parser(tokenize(text, filename))
    return parser.parse_description()
