"""Tokens for the Section III script notation.

The paper presents scripts in "Pascal with extensions for communication
(synchronized send and receive with the same semantics as the ``!`` and
``?`` instructions of CSP) and non-deterministic guarded commands (if and
do)".  The token set covers Figures 3, 4 and 5.
"""

from __future__ import annotations

import dataclasses
import enum


class TokenType(enum.Enum):
    """Token categories of the script notation."""

    # Literals and names
    IDENT = "identifier"
    NUMBER = "number"
    STRING = "string"
    # Punctuation
    SEMI = ";"
    COLON = ":"
    COMMA = ","
    DOT = "."
    DOTDOT = ".."
    LPAREN = "("
    RPAREN = ")"
    LBRACK = "["
    RBRACK = "]"
    ASSIGN = ":="
    ARROW = "->"
    BOX = "[]"          # guard separator in guarded commands
    # Operators
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    # Keywords
    KEYWORD = "keyword"
    EOF = "eof"


#: Keywords, uppercase (matching is case-insensitive).
KEYWORDS = frozenset({
    "SCRIPT", "END", "ROLE", "BEGIN", "VAR", "CONST",
    "INITIATION", "TERMINATION", "CRITICAL", "DELAYED", "IMMEDIATE",
    "SEND", "TO", "RECEIVE", "FROM",
    "IF", "THEN", "ELSE", "FI",
    "DO", "OD",
    "ARRAY", "OF", "SET",
    "AND", "OR", "NOT", "IN",
    "TRUE", "FALSE",
    "SKIP",
})


@dataclasses.dataclass(slots=True)
class Token:
    """One lexical token with its source position.

    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which more than triples the cost of the one
    construction per token.  A keyword's ``value`` is its upper-case
    spelling, so a parser compares it with ``==``.
    """

    type: TokenType
    value: str
    line: int
    column: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.type.name}({self.value!r})@{self.line}:{self.column}"
