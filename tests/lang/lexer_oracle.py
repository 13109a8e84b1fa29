"""Reference lexer for the Section III notation: one character at a time.

This is the character-loop lexer that ``repro.lang.lexer`` replaced with
one compiled pattern.  It is kept, unchanged apart from this docstring and
its imports, as the oracle of ``test_frontend_equivalence.py``: the
production lexer must return the same (type, value, line, column) tokens,
or raise a ``LexError`` with the same message and position, on every
input.  The one deliberate difference: this lexer takes any
``str.isdigit()`` character as a digit, while the production lexer lexes
numbers from ``str.isdecimal()`` runs, which ``int()`` accepts.
"""

from __future__ import annotations

from repro.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenType

_SINGLE = {
    ";": TokenType.SEMI,
    ",": TokenType.COMMA,
    "(": TokenType.LPAREN,
    ")": TokenType.RPAREN,
    "]": TokenType.RBRACK,
    "=": TokenType.EQ,
    "+": TokenType.PLUS,
    "*": TokenType.STAR,
    "/": TokenType.SLASH,
}


class Lexer:
    """Tokenises a script source string."""

    def __init__(self, source: str):
        self.source = source
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.column = 1
        else:
            self.column += 1
        return ch

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "{":
                start_line, start_col = self.line, self.column
                self._advance()
                while self.pos < len(self.source) and self._peek() != "}":
                    self._advance()
                if self.pos >= len(self.source):
                    raise LexError("unterminated comment",
                                   start_line, start_col)
                self._advance()  # closing brace
            else:
                return

    # -- tokenisation -----------------------------------------------------

    def tokens(self) -> list[Token]:
        """Tokenise the whole source, ending with an EOF token."""
        result: list[Token] = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    def _make(self, type_: TokenType, value: str, line: int,
              column: int) -> Token:
        return Token(type_, value, line, column)

    def _next_token(self) -> Token:
        self._skip_trivia()
        line, column = self.line, self.column
        if self.pos >= len(self.source):
            return self._make(TokenType.EOF, "", line, column)
        ch = self._peek()

        if ch.isalpha() or ch == "_":
            return self._identifier(line, column)
        if ch.isdigit():
            return self._number(line, column)
        if ch == "'":
            return self._string(line, column)

        # Multi-character operators first.
        two = self._peek() + self._peek(1)
        if two == ":=":
            self._advance(); self._advance()
            return self._make(TokenType.ASSIGN, ":=", line, column)
        if two == "->":
            self._advance(); self._advance()
            return self._make(TokenType.ARROW, "->", line, column)
        if two == "..":
            self._advance(); self._advance()
            return self._make(TokenType.DOTDOT, "..", line, column)
        if two == "[]":
            self._advance(); self._advance()
            return self._make(TokenType.BOX, "[]", line, column)
        if two == "<>":
            self._advance(); self._advance()
            return self._make(TokenType.NE, "<>", line, column)
        if two == "<=":
            self._advance(); self._advance()
            return self._make(TokenType.LE, "<=", line, column)
        if two == ">=":
            self._advance(); self._advance()
            return self._make(TokenType.GE, ">=", line, column)

        if ch == ":":
            self._advance()
            return self._make(TokenType.COLON, ":", line, column)
        if ch == ".":
            self._advance()
            return self._make(TokenType.DOT, ".", line, column)
        if ch == "[":
            self._advance()
            return self._make(TokenType.LBRACK, "[", line, column)
        if ch == "<":
            self._advance()
            return self._make(TokenType.LT, "<", line, column)
        if ch == ">":
            self._advance()
            return self._make(TokenType.GT, ">", line, column)
        if ch == "-":
            self._advance()
            return self._make(TokenType.MINUS, "-", line, column)
        if ch in _SINGLE:
            self._advance()
            return self._make(_SINGLE[ch], ch, line, column)

        raise LexError(f"unexpected character {ch!r}", line, column)

    def _identifier(self, line: int, column: int) -> Token:
        chars = []
        while self._peek().isalnum() or self._peek() == "_":
            chars.append(self._advance())
        word = "".join(chars)
        if word.upper() in KEYWORDS:
            return self._make(TokenType.KEYWORD, word.upper(), line, column)
        return self._make(TokenType.IDENT, word, line, column)

    def _number(self, line: int, column: int) -> Token:
        chars = []
        while self._peek().isdigit():
            chars.append(self._advance())
        return self._make(TokenType.NUMBER, "".join(chars), line, column)

    def _string(self, line: int, column: int) -> Token:
        self._advance()  # opening quote
        chars = []
        while True:
            if self.pos >= len(self.source):
                raise LexError("unterminated string literal", line, column)
            ch = self._advance()
            if ch == "'":
                if self._peek() == "'":   # doubled quote escapes a quote
                    chars.append(self._advance())
                    continue
                break
            chars.append(ch)
        return self._make(TokenType.STRING, "".join(chars), line, column)


def tokenize(source: str) -> list[Token]:
    """Convenience wrapper: tokenise ``source``."""
    return Lexer(source).tokens()
