"""Parser tests, covering the grammar of paper Figure 2."""

import pytest

from repro.frontend import ast_nodes as ast
from repro.frontend.parser import parse_description
from repro.frontend.types import signed, unsigned
from repro.utils.diagnostics import CoreDSLError


def parse_single_set(text):
    desc = parse_description(text)
    assert len(desc.instruction_sets) == 1
    return desc.instruction_sets[0]


class TestTopLevel:
    def test_imports(self):
        desc = parse_description('import "RV32I.core_desc";\nInstructionSet A {}')
        assert desc.imports == ["RV32I.core_desc"]

    def test_import_without_semicolon(self):
        desc = parse_description('import "RV32I.core_desc"\nInstructionSet A {}')
        assert desc.imports == ["RV32I.core_desc"]

    def test_instruction_set_extends(self):
        iset = parse_single_set("InstructionSet X extends RV32I {}")
        assert iset.name == "X"
        assert iset.extends == "RV32I"

    def test_core_provides(self):
        desc = parse_description("Core MyCore provides A, B {}")
        assert desc.cores[0].name == "MyCore"
        assert desc.cores[0].provides == ["A", "B"]

    def test_garbage_rejected(self):
        with pytest.raises(CoreDSLError):
            parse_description("bogus")


class TestArchitecturalState:
    def test_register_declaration(self):
        iset = parse_single_set(
            "InstructionSet A { architectural_state {"
            " register unsigned<32> COUNT; } }"
        )
        decl = iset.body.state[0]
        assert decl.storage == "register"
        assert decl.name == "COUNT"
        assert not decl.is_signed

    def test_multiple_declarators(self):
        iset = parse_single_set(
            "InstructionSet A { architectural_state {"
            " register unsigned<32> START_PC, END_PC, COUNT; } }"
        )
        names = [d.name for d in iset.body.state]
        assert names == ["START_PC", "END_PC", "COUNT"]

    def test_array_with_attribute(self):
        iset = parse_single_set(
            "InstructionSet A { architectural_state {"
            " register unsigned<32> X[32] [[is_main_reg]]; } }"
        )
        decl = iset.body.state[0]
        assert decl.array_size_expr is not None
        assert decl.attributes == ["is_main_reg"]

    def test_scalar_with_attribute(self):
        iset = parse_single_set(
            "InstructionSet A { architectural_state {"
            " register unsigned<32> PC [[is_pc]]; } }"
        )
        assert iset.body.state[0].attributes == ["is_pc"]

    def test_parameter_declaration(self):
        iset = parse_single_set(
            "InstructionSet A { architectural_state { unsigned int XLEN = 32; } }"
        )
        decl = iset.body.state[0]
        assert decl.storage == "param"
        assert decl.init is not None

    def test_extern_address_space(self):
        iset = parse_single_set(
            "InstructionSet A { architectural_state {"
            " extern unsigned<8> MEM[4294967296] [[is_main_mem]]; } }"
        )
        assert iset.body.state[0].storage == "extern"

    def test_const_rom_with_initializer_list(self):
        iset = parse_single_set(
            "InstructionSet A { architectural_state {"
            " const unsigned<8> SBOX[4] = {1, 2, 3, 4}; } }"
        )
        decl = iset.body.state[0]
        assert decl.storage == "const"
        assert len(decl.init_list) == 4


class TestEncodings:
    ISAX = """
    InstructionSet A {
      instructions {
        foo {
          encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
          behavior: { }
        }
      }
    }
    """

    def test_components(self):
        iset = parse_single_set(self.ISAX)
        enc = iset.body.instructions[0].encoding
        assert isinstance(enc[0], ast.EncBits)
        assert enc[0].width == 7 and enc[0].value == 0
        assert isinstance(enc[1], ast.EncField)
        assert enc[1].name == "rs2" and enc[1].hi == 4 and enc[1].lo == 0

    def test_unsized_literal_rejected(self):
        bad = "InstructionSet A { instructions { foo { encoding: 15; behavior: {} } } }"
        with pytest.raises(CoreDSLError):
            parse_description(bad)


class TestStatements:
    #: The source text before a wrapped body.
    PREFIX = ("InstructionSet A { instructions { foo {"
              " encoding: 25'd0 :: 7'b0001011; behavior: { ")

    def wrap(self, body):
        text = f"{self.PREFIX}{body} }} }} }} }}"
        iset = parse_single_set(text)
        return iset.body.instructions[0].behavior.statements

    def test_var_decl_with_init(self):
        (stmt,) = self.wrap("signed<32> res = 0;")
        assert isinstance(stmt, ast.VarDecl)
        assert stmt.is_signed and stmt.name == "res"

    def test_assignment(self):
        (stmt,) = self.wrap("COUNT = 5;")
        assert isinstance(stmt, ast.Assign) and stmt.op == "="

    def test_compound_assignment(self):
        (stmt,) = self.wrap("res += prod;")
        assert stmt.op == "+="

    def test_prefix_decrement(self):
        (stmt,) = self.wrap("--COUNT;")
        assert isinstance(stmt, ast.Assign) and stmt.op == "-="

    def test_postfix_increment(self):
        (stmt,) = self.wrap("ADDR++;")
        assert isinstance(stmt, ast.Assign) and stmt.op == "+="

    def test_if_else(self):
        (stmt,) = self.wrap("if (a) { b = 1; } else { b = 2; }")
        assert isinstance(stmt, ast.IfStmt)
        assert stmt.else_body is not None

    def test_for_loop(self):
        (stmt,) = self.wrap("for (int i = 0; i < 32; i += 8) { }")
        assert isinstance(stmt, ast.ForStmt)
        assert isinstance(stmt.init, ast.VarDecl)

    def test_spawn_block(self):
        (stmt,) = self.wrap("spawn { X[rd] = (unsigned) res; }")
        assert isinstance(stmt, ast.SpawnStmt)

    def test_indexed_assignment(self):
        (stmt,) = self.wrap("X[rd] = val;")
        assert isinstance(stmt.target, ast.IndexExpr)

    def test_range_assignment(self):
        (stmt,) = self.wrap("MEM[addr+3:addr] = val;")
        assert isinstance(stmt.target, ast.RangeExpr)

    @pytest.mark.parametrize("keyword, body, declaration", [
        ("if", "if (X[rs1] == 0) unsigned<8> x = 5; X[rd] = x;",
         "unsigned<8> x"),
        ("else", "if (a) b = 1; else signed<4> c = 2;", "signed<4> c"),
        ("for", "for (int i = 0; i < 4; i += 1) int j = i;", "int j"),
        ("while", "while (a) bool done = 1;", "bool done"),
        ("do", "do unsigned<2> k = 1; while (a);", "unsigned<2> k"),
    ], ids=["if", "else", "for", "while", "do"])
    def test_declaration_as_unbraced_body_rejected(self, keyword, body,
                                                   declaration):
        """As in C, a declaration is no statement: an unbraced body of a
        control statement cannot be one, and the error points at it."""
        with pytest.raises(CoreDSLError, match=f"body of '{keyword}'") as err:
            self.wrap(body)
        assert err.value.loc is not None
        assert (err.value.loc.line, err.value.loc.column) == \
            (1, len(self.PREFIX) + body.index(declaration) + 1)

    def test_braced_declaration_in_body_accepted(self):
        (stmt,) = self.wrap("if (a) { unsigned<8> x = 5; X[rd] = x; }")
        assert isinstance(stmt.then_body.statements[0], ast.VarDecl)


class TestExpressions:
    def expr(self, text):
        src = (
            "InstructionSet A { instructions { foo {"
            " encoding: 25'd0 :: 7'b0001011;"
            f" behavior: {{ x = {text}; }} }} }} }}"
        )
        desc = parse_description(src)
        stmt = desc.instruction_sets[0].body.instructions[0].behavior.statements[0]
        return stmt.value

    def test_precedence_mul_over_add(self):
        e = self.expr("a + b * c")
        assert e.op == "+" and e.rhs.op == "*"

    def test_precedence_shift_over_concat(self):
        e = self.expr("a :: b << 2")
        assert e.op == "::" and e.rhs.op == "<<"

    def test_precedence_concat_over_comparison(self):
        e = self.expr("a :: b == c :: d")
        assert e.op == "==" and e.lhs.op == "::" and e.rhs.op == "::"

    def test_conditional(self):
        e = self.expr("a ? b : c")
        assert isinstance(e, ast.Conditional)

    def test_cast_sign_only(self):
        e = self.expr("(unsigned) res")
        assert isinstance(e, ast.Cast)
        assert e.width_expr is None and not e.target_signed

    def test_cast_with_width(self):
        e = self.expr("(signed<16>) v")
        assert isinstance(e, ast.Cast) and e.target_signed

    def test_cast_alias(self):
        e = self.expr("(int) v")
        assert isinstance(e, ast.Cast) and e.target_signed

    def test_cast_binds_tighter_than_mul(self):
        e = self.expr("(signed) a * (signed) b")
        assert e.op == "*"
        assert isinstance(e.lhs, ast.Cast) and isinstance(e.rhs, ast.Cast)

    def test_nested_subscripts(self):
        e = self.expr("X[rs1][i+7:i]")
        assert isinstance(e, ast.RangeExpr)
        assert isinstance(e.base, ast.IndexExpr)

    def test_single_bit_index(self):
        e = self.expr("v[3]")
        assert isinstance(e, ast.IndexExpr)

    def test_call_with_args(self):
        e = self.expr("rotr(a, 31)")
        assert isinstance(e, ast.FunctionCall)
        assert e.callee == "rotr" and len(e.args) == 2

    def test_verilog_literal_type(self):
        e = self.expr("3'b111")
        assert e.explicit_type == unsigned(3)

    def test_parenthesized(self):
        e = self.expr("(a + b) * c")
        assert e.op == "*" and e.lhs.op == "+"

    def test_unary_minus(self):
        e = self.expr("-a")
        assert isinstance(e, ast.UnaryOp) and e.op == "-"

    def test_logical_ops(self):
        e = self.expr("a != 0 && b == c")
        assert e.op == "&&"


class TestFunctions:
    def test_function_definition(self):
        text = """
        InstructionSet A {
          functions {
            unsigned<32> rotr(unsigned<32> x, unsigned<5> amount) {
              return (unsigned<32>) ((x >> amount) | (x << (32 - amount)));
            }
          }
        }
        """
        iset = parse_single_set(text)
        fn = iset.body.functions[0]
        assert fn.name == "rotr"
        assert len(fn.params) == 2
        assert fn.return_width_expr is not None

    def test_void_function(self):
        text = "InstructionSet A { functions { void nop() { } } }"
        iset = parse_single_set(text)
        assert iset.body.functions[0].return_width_expr is None


class TestAlways:
    def test_always_block(self):
        text = "InstructionSet A { always { zol { PC = START_PC; } } }"
        iset = parse_single_set(text)
        assert iset.body.always_blocks[0].name == "zol"
