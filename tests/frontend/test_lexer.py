"""Tests for the CoreDSL tokenizer."""

import pytest

from repro.frontend.lexer import tokenize
from repro.utils.diagnostics import CoreDSLError


def kinds(text):
    return [t.kind for t in tokenize(text)][:-1]


def texts(text):
    return [t.text for t in tokenize(text)][:-1]


class TestBasics:
    def test_empty_input_yields_eof(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        toks = tokenize("InstructionSet my_isa extends RV32I")
        assert [t.kind for t in toks[:-1]] == ["keyword", "ident", "keyword", "ident"]

    def test_punctuation(self):
        assert texts("{ } ( ) [ ] ; ,") == ["{", "}", "(", ")", "[", "]", ";", ","]

    def test_multichar_operators_maximal_munch(self):
        assert texts("a <<= b") == ["a", "<<=", "b"]
        assert texts("a << b") == ["a", "<<", "b"]
        assert texts("x::y") == ["x", "::", "y"]
        assert texts("i += 8") == ["i", "+=", "8"]
        assert texts("--COUNT") == ["--", "COUNT"]

    def test_line_comment(self):
        assert texts("a // comment\n b") == ["a", "b"]

    def test_block_comment(self):
        assert texts("a /* multi\nline */ b") == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CoreDSLError):
            tokenize("/* never ends")

    def test_string_literal(self):
        toks = tokenize('import "RV32I.core_desc"')
        assert toks[1].kind == "string"
        assert toks[1].text == "RV32I.core_desc"

    def test_locations(self):
        toks = tokenize("a\n  b")
        assert toks[0].loc.line == 1 and toks[0].loc.column == 1
        assert toks[1].loc.line == 2 and toks[1].loc.column == 3

    def test_locations_after_a_multiline_string(self):
        toks = tokenize('import "a\nb";\nx')
        assert toks[1].text == "a\nb"
        assert (toks[2].loc.line, toks[2].loc.column) == (2, 3)
        assert (toks[3].loc.line, toks[3].loc.column) == (3, 1)


class TestNumbers:
    def test_decimal(self):
        tok = tokenize("42")[0]
        assert tok.kind == "number" and tok.value == 42

    def test_hex(self):
        assert tokenize("0xcafe")[0].value == 0xCAFE

    def test_binary(self):
        assert tokenize("0b1011")[0].value == 0b1011

    def test_underscores(self):
        assert tokenize("1_000_000")[0].value == 1000000

    def test_verilog_decimal(self):
        tok = tokenize("6'd42")[0]
        assert tok.kind == "verilog_number"
        assert tok.value == 42 and tok.width == 6 and not tok.signed

    def test_verilog_binary(self):
        tok = tokenize("3'b111")[0]
        assert tok.value == 7 and tok.width == 3

    def test_verilog_hex(self):
        tok = tokenize("12'hfff")[0]
        assert tok.value == 0xFFF and tok.width == 12

    def test_verilog_signed(self):
        tok = tokenize("8'shff")[0]
        assert tok.signed and tok.width == 8 and tok.value == 0xFF

    def test_verilog_overflow_rejected(self):
        with pytest.raises(CoreDSLError):
            tokenize("3'd9")

    def test_verilog_bad_digits_rejected(self):
        with pytest.raises(CoreDSLError):
            tokenize("4'b3")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(CoreDSLError):
            tokenize("a $ b")

    def test_unterminated_string(self):
        with pytest.raises(CoreDSLError):
            tokenize('"no end')


class TestMalformedIntegers:
    @pytest.mark.parametrize("literal", ["010", "007", "0x_", "0b_", "0o_",
                                         "00_1"])
    def test_malformed_literal_is_located_error(self, literal):
        with pytest.raises(CoreDSLError) as info:
            tokenize(f"x = {literal};", "m.core_desc")
        assert info.value.message == f"invalid integer literal {literal!r}"
        assert str(info.value.loc) == "m.core_desc:1:5"

    @pytest.mark.parametrize("literal", ["0", "00", "0_0", "000"])
    def test_zero_spellings_stay_valid(self, literal):
        tok = tokenize(literal)[0]
        assert tok.kind == "number" and tok.value == 0

    def test_octal_needs_its_prefix(self):
        assert tokenize("0o17")[0].value == 0o17
        assert tokenize("0O1_7")[0].value == 0o17

    def test_malformed_literal_in_behavior_fails_the_compile(self):
        from repro.frontend.elaboration import elaborate

        source = """InstructionSet T extends RV32I {
  instructions {
    ADDO {
      encoding: 7'd0 :: rs2[4:0] :: rs1[4:0] :: 3'd0 :: rd[4:0] :: 7'b0001011;
      behavior: X[rd] = X[rs1] + 010;
    }
  }
}
"""
        with pytest.raises(CoreDSLError, match="invalid integer literal '010'"):
            elaborate(source, filename="t.core_desc")
