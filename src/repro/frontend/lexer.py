"""Tokenizer for CoreDSL source text.

Handles C-style identifiers, comments, punctuation, multi-character
operators, string literals, C integer literals (``42``, ``0xcafe``,
``0b101``, ``0o17``) and Verilog-style sized literals (``6'd42``,
``3'b111``, ``12'shfff``), which the paper adopts for precise control over
literal types (Section 2.3).  A plain literal with a leading zero
(``010``) is rejected, since C would read it as octal; ``0o`` spells
octal, and ``00`` and ``0_0`` are zero.

One compiled pattern matches the next token per step.  Its named
alternatives are tried in priority order: a newline, a run of blanks, a
line comment, a block-comment opener, a string opener, a sized literal, a
plain number, an identifier or keyword, and then the operators longest
first, so the alternation munches maximally.  ``m.lastgroup`` names the
alternative that matched.  A block comment and a string are closed by a
scan from their opener, which counts the newlines inside them.
"""

from __future__ import annotations

import dataclasses
import re
from typing import List, Optional

from repro.utils.diagnostics import CoreDSLError, SourceLocation

KEYWORDS = {
    "import", "InstructionSet", "Core", "extends", "provides",
    "architectural_state", "instructions", "always", "functions",
    "if", "else", "for", "while", "do", "return", "spawn",
    "switch", "case", "default", "break",
    "register", "extern", "const", "volatile", "static",
    "signed", "unsigned", "int", "char", "short", "long", "bool", "void",
    "true", "false", "encoding", "behavior", "assembly",
}

#: Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    "<<=", ">>=", "...",
    "::", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]

_TOKEN_RE = re.compile("|".join([
    r"(?P<newline>\n)",
    r"(?P<space>[ \t\r]+)",
    r"(?P<line_comment>//[^\n]*)",
    r"(?P<block_comment>/\*)",
    r'(?P<string>")',
    r"(?P<verilog_number>(?P<width>\d+)'(?P<signed>s?)(?P<radix>[bdho])"
    r"(?P<digits>[0-9a-fA-F_xzXZ]+))",
    r"(?P<number>0[xX][0-9a-fA-F_]+|0[bB][01_]+|0[oO][0-7_]+|\d[\d_]*)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_]*)",
    "(?P<op>" + "|".join(re.escape(op) for op in OPERATORS) + ")",
]))

#: The rest of a string literal after its opening quote: a backslash
#: escapes the character after it, whatever it is.
_STRING_TAIL_RE = re.compile(r'[^"\\]*(?:\\[\s\S][^"\\]*)*"')


@dataclasses.dataclass
class Token:
    """A single lexical token.

    ``kind`` is one of ``"ident"``, ``"keyword"``, ``"number"``,
    ``"verilog_number"``, ``"string"``, ``"op"`` or ``"eof"``.  Numeric tokens
    carry their integer ``value``; Verilog-sized literals additionally carry
    ``width`` and ``signed``.
    """

    kind: str
    text: str
    loc: SourceLocation
    value: Optional[int] = None
    width: Optional[int] = None
    signed: bool = False

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r})"


_RADIX = {"b": 2, "o": 8, "d": 10, "h": 16}


def tokenize(text: str, filename: str = "<input>") -> List[Token]:
    """Tokenize CoreDSL source ``text`` into a list ending with an EOF token."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = match(text, pos)
        if m is None:
            raise CoreDSLError(
                f"unexpected character {text[pos]!r}",
                SourceLocation(filename, line, pos - line_start + 1))
        kind = m.lastgroup
        end = m.end()
        if kind == "space" or kind == "line_comment":
            pos = end
            continue
        if kind == "newline":
            line += 1
            pos = line_start = end
            continue
        loc = SourceLocation(filename, line, pos - line_start + 1)
        if kind == "ident":
            word = m.group()
            append(Token("keyword" if word in KEYWORDS else "ident", word,
                         loc))
        elif kind == "op":
            append(Token("op", m.group(), loc))
        elif kind == "number":
            literal = m.group()
            try:
                value = int(literal.replace("_", ""), 0)
            except ValueError:
                raise CoreDSLError(
                    f"invalid integer literal {literal!r}", loc) from None
            append(Token("number", literal, loc, value=value))
        elif kind == "verilog_number":
            literal = m.group()
            width = int(m.group("width"))
            try:
                value = int(m.group("digits").replace("_", ""),
                            _RADIX[m.group("radix")])
            except ValueError:
                raise CoreDSLError(
                    f"invalid digits in literal {literal!r}", loc) from None
            if value.bit_length() > width:
                raise CoreDSLError(
                    f"literal {literal!r} does not fit in {width} bits", loc)
            append(Token("verilog_number", literal, loc, value=value,
                         width=width, signed=m.group("signed") == "s"))
        elif kind == "string":
            tail = _STRING_TAIL_RE.match(text, end)
            if tail is None:
                raise CoreDSLError("unterminated string literal", loc)
            append(Token("string", text[end:tail.end() - 1], loc))
            last = text.rfind("\n", end, tail.end())
            if last != -1:
                line += text.count("\n", end, tail.end())
                line_start = last + 1
            end = tail.end()
        else:  # block_comment
            close = text.find("*/", end)
            if close == -1:
                raise CoreDSLError("unterminated block comment", loc)
            last = text.rfind("\n", pos, close)
            if last != -1:
                line += text.count("\n", pos, close)
                line_start = last + 1
            end = close + 2
        pos = end
    append(Token("eof", "", SourceLocation(filename, line, pos - line_start + 1)))
    return tokens
