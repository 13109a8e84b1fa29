"""Lexer for the Section III script notation.

Keywords are recognised case-insensitively (the figures set them in upper
case); identifiers are case-sensitive.  Comments are Pascal-style
``{ ... }`` braces; they do not nest, as in standard Pascal.

One compiled pattern, ``_TOKEN``, is matched at each position in turn.
Its alternatives are a newline with the indentation after it, other
blanks, a comment, a number, a word, a string literal and the operators,
longest first; a last one-character alternative catches anything else,
which is an error.  A word is a run of ``\\w`` characters (those passing
``str.isalnum()``, and ``_``) whose first character passes
``str.isalpha()`` or is ``_``; it is a keyword when its ``upper()`` is
one.  A number is a run of ``str.isdecimal()`` characters, the digits
``int()`` accepts.  Line and column come from the offset of the last
newline passed.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import KEYWORDS, Token, TokenType

#: Operator and punctuation spellings (every non-alphabetic token value).
_OPERATORS = {t.value: t for t in TokenType if not t.value.isalpha()}

_TOKEN = re.compile("|".join((
    r"(?P<newline>\n[ \t\r]*)",
    r"(?P<blank>[ \t\r]+)",
    r"(?P<comment>\{[^}]*\})",
    r"(?P<number>\d+)",
    r"(?P<word>\w+)",
    # Possessive: a doubled quote inside a literal is always an escaped
    # quote.  With a plain ``*`` the engine backtracks over ``''``, takes
    # its first quote as the close, and an unterminated literal ends early.
    r"(?P<string>'(?:[^']|'')*+')",
    "(?P<operator>" + "|".join(
        re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True))
    + ")",
    r"(?P<other>.)",
)), re.DOTALL)

# Module constants: on Python 3.11 each ``TokenType.X`` lookup goes
# through ``EnumType.__getattr__``, once per token here.
_IDENT = TokenType.IDENT
_KEYWORD = TokenType.KEYWORD
_NUMBER = TokenType.NUMBER
_STRING = TokenType.STRING


def tokenize(source: str) -> list[Token]:
    """Tokenise ``source``; the list ends with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0            # offset of the first character of ``line``
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind == "blank":
            continue
        start = match.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        text = match.group()
        column = start - line_start + 1
        if kind == "word":
            first = text[0]
            if not (first.isalpha() or first == "_"):
                raise LexError(f"unexpected character {first!r}", line,
                               column)
            upper = text.upper()
            if upper in KEYWORDS:
                append(Token(_KEYWORD, upper, line, column))
            else:
                append(Token(_IDENT, text, line, column))
        elif kind == "operator":
            append(Token(_OPERATORS[text], text, line, column))
        elif kind == "number":
            append(Token(_NUMBER, text, line, column))
        elif kind == "other":
            if text == "{":
                raise LexError("unterminated comment", line, column)
            if text == "'":
                raise LexError("unterminated string literal", line, column)
            raise LexError(f"unexpected character {text!r}", line, column)
        else:                 # a comment or a string: either may span lines
            if kind == "string":
                append(Token(_STRING, text[1:-1].replace("''", "'"), line,
                             column))
            newline = text.rfind("\n")
            if newline >= 0:
                line += text.count("\n")
                line_start = start + newline + 1
    append(Token(TokenType.EOF, "", line, len(source) - line_start + 1))
    return tokens
