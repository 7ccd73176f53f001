"""Round-trip property tests of the CoreDSL tokenizer.

Random token sequences are rendered to text with random whitespace and
comments between them; ``tokenize`` must give back exactly the drawn
tokens, values and 1-based positions.  Positions are recomputed from the
rendered text, so the oracle shares no code with the lexer.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.lexer import KEYWORDS, OPERATORS, tokenize

_WORD_CHARS = set(string.ascii_letters + string.digits + "_")
_IDENT_START = string.ascii_letters + "_"
_IDENT_REST = string.ascii_letters + string.digits + "_"


def _underscored(draw, digits: str) -> str:
    """``digits`` with underscores drawn into every gap after the first
    digit (runs and a trailing one included)."""
    out = [digits[0]]
    for digit in digits[1:]:
        out.append("_" * draw(st.integers(0, 2)) + digit)
    out.append("_" * draw(st.integers(0, 1)))
    return "".join(out)


def _mixed_case(draw, digits: str) -> str:
    return "".join(d.upper() if draw(st.booleans()) else d for d in digits)


@st.composite
def identifiers(draw):
    word = draw(st.text(_IDENT_START, min_size=1, max_size=1)) + draw(
        st.text(_IDENT_REST, max_size=8))
    kind = "keyword" if word in KEYWORDS else "ident"
    return (kind, word, None, None, False)


@st.composite
def keywords(draw):
    return ("keyword", draw(st.sampled_from(sorted(KEYWORDS))), None, None,
            False)


@st.composite
def numbers(draw):
    value = draw(st.integers(0, (1 << 40) - 1))
    base = draw(st.sampled_from(["dec", "x", "b", "o"]))
    if base == "dec":
        text = _underscored(draw, str(value))
    else:
        digits = "0" * draw(st.integers(0, 2)) + format(value, base)
        if base == "x":
            digits = _mixed_case(draw, digits)
        prefix = "0" + (base.upper() if draw(st.booleans()) else base)
        text = prefix + "_" * draw(st.integers(0, 1)) + _underscored(
            draw, digits)
    return ("number", text, value, None, False)


@st.composite
def sized_literals(draw):
    width = draw(st.integers(1, 48))
    value = draw(st.integers(0, (1 << width) - 1))
    signed = draw(st.booleans())
    radix = draw(st.sampled_from("bodh"))
    digits = format(value, {"b": "b", "o": "o", "d": "d", "h": "x"}[radix])
    if radix == "h":
        digits = _mixed_case(draw, digits)
    text = f"{width}'{'s' if signed else ''}{radix}" + _underscored(
        draw, digits)
    return ("verilog_number", text, value, width, signed)


@st.composite
def strings(draw):
    plain = st.text(st.characters(blacklist_characters='"\\',
                                  blacklist_categories=("Cs",)), max_size=6)
    escape = st.sampled_from(['\\"', "\\\\", "\\n", "\\t", "\\x", "\\\n"])
    # A raw newline in a string moves the lines of every later token.
    parts = draw(st.lists(st.one_of(plain, escape, st.just("\n")),
                          max_size=5))
    return ("string", "".join(parts), None, None, False)


@st.composite
def operators(draw):
    return ("op", draw(st.sampled_from(OPERATORS)), None, None, False)


TOKENS = st.one_of(identifiers(), keywords(), numbers(), sized_literals(),
                   strings(), operators())


@st.composite
def separators(draw, min_pieces=0):
    pieces = []
    for _ in range(draw(st.integers(min_pieces, 3))):
        choice = draw(st.sampled_from(["blank", "newline", "line", "block"]))
        if choice == "blank":
            pieces.append(draw(st.text(" \t\r", min_size=1, max_size=3)))
        elif choice == "newline":
            pieces.append("\n" * draw(st.integers(1, 2)))
        elif choice == "line":
            body = draw(st.text(st.characters(blacklist_characters="\n",
                                              blacklist_categories=("Cs",)),
                                max_size=8))
            pieces.append("//" + body + "\n")
        else:
            body = draw(st.text("ab */\n\t", max_size=10).filter(
                lambda text: "*/" not in text))
            pieces.append("/*" + body + "*/")
    return "".join(pieces)


def _source_text(kind, text):
    return f'"{text}"' if kind == "string" else text


def _would_merge(left: str, right: str) -> bool:
    """True when ``left`` directly followed by ``right`` does not lex as
    those two tokens."""
    if left[-1] in _WORD_CHARS and right[0] in _WORD_CHARS:
        return True
    if left.endswith("/") and right[0] in "/*":
        return True
    joined = left + right
    return any(len(op) > len(left) and op.startswith(left)
               and (joined.startswith(op) or op.startswith(joined))
               for op in OPERATORS)


def _position(text: str, offset: int):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, column


@settings(max_examples=300, deadline=None)
@given(st.lists(TOKENS, max_size=30), st.data())
def test_tokenize_round_trips_drawn_tokens(drawn, data):
    def separate(separator: str) -> str:
        # A comment right after a '/' token would lex as one comment.
        if text.endswith("/") and separator.startswith("/"):
            return " " + separator
        return separator

    text = data.draw(separators(), label="leading")
    offsets = []
    previous = None
    for kind, token_text, *_ in drawn:
        source = _source_text(kind, token_text)
        if previous is not None:
            text += separate(data.draw(separators(
                min_pieces=1 if _would_merge(previous, source) else 0)))
        offsets.append(len(text))
        text += source
        previous = source
    text += separate(data.draw(separators(), label="trailing"))

    tokens = tokenize(text, "p.core_desc")
    assert [t.kind for t in tokens] == [d[0] for d in drawn] + ["eof"]
    for token, (kind, token_text, value, width, signed), offset in zip(
            tokens, drawn, offsets):
        assert token.text == token_text
        assert (token.value, token.width, token.signed) == (
            value, width, signed)
        assert token.loc.filename == "p.core_desc"
        assert (token.loc.line, token.loc.column) == _position(text, offset)
    eof = tokens[-1]
    assert (eof.loc.line, eof.loc.column) == _position(text, len(text))


def _longest_munch(text: str):
    out, pos = [], 0
    while pos < len(text):
        op = max((o for o in OPERATORS if text.startswith(o, pos)), key=len)
        out.append(op)
        pos += len(op)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(OPERATORS), min_size=1, max_size=12).map(
    "".join).filter(lambda text: "//" not in text and "/*" not in text))
def test_adjacent_operators_munch_maximally(text):
    expected = _longest_munch(text)
    tokens = tokenize(text)[:-1]
    assert [(t.kind, t.text) for t in tokens] == [("op", op)
                                                  for op in expected]
    columns = [1]
    for op in expected[:-1]:
        columns.append(columns[-1] + len(op))
    assert [t.loc.column for t in tokens] == columns
