"""Tests for the script-language lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LexError
from repro.lang import analyze, parse_script, tokenize
from repro.lang.tokens import TokenType


def types(source):
    return [t.type for t in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [t.value for t in tokenize(source)][:-1]


def test_keywords_case_insensitive():
    for word in ("SCRIPT", "script", "Script"):
        tokens = tokenize(word)
        assert tokens[0].type is TokenType.KEYWORD
        assert tokens[0].value == "SCRIPT"


def test_identifiers_preserve_case():
    tokens = tokenize("myVar")
    assert tokens[0].type is TokenType.IDENT
    assert tokens[0].value == "myVar"


def test_numbers():
    tokens = tokenize("42 007")
    assert [t.value for t in tokens[:-1]] == ["42", "007"]
    assert all(t.type is TokenType.NUMBER for t in tokens[:-1])


def test_string_literals_with_escaped_quote():
    tokens = tokenize("'hello' 'it''s'")
    assert tokens[0].value == "hello"
    assert tokens[1].value == "it's"


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize("'oops")


def test_multichar_operators():
    assert types(":= -> .. [] <> <= >=") == [
        TokenType.ASSIGN, TokenType.ARROW, TokenType.DOTDOT, TokenType.BOX,
        TokenType.NE, TokenType.LE, TokenType.GE]


def test_single_char_tokens():
    assert types("; : , . ( ) [ ] = < > + - * /") == [
        TokenType.SEMI, TokenType.COLON, TokenType.COMMA, TokenType.DOT,
        TokenType.LPAREN, TokenType.RPAREN, TokenType.LBRACK,
        TokenType.RBRACK, TokenType.EQ, TokenType.LT, TokenType.GT,
        TokenType.PLUS, TokenType.MINUS, TokenType.STAR, TokenType.SLASH]


def test_brack_vs_box_disambiguation():
    # "[]" is a guard separator; "[ ]" is two brackets (empty set display).
    assert types("[]") == [TokenType.BOX]
    assert types("[ ]") == [TokenType.LBRACK, TokenType.RBRACK]
    assert types("a[1]") == [TokenType.IDENT, TokenType.LBRACK,
                             TokenType.NUMBER, TokenType.RBRACK]


def test_comments_are_skipped():
    assert values("x { a comment } y") == ["x", "y"]


def test_unterminated_comment_raises():
    with pytest.raises(LexError):
        tokenize("x { never closed")


def test_positions_tracked():
    tokens = tokenize("a\n  b")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[1].line, tokens[1].column) == (2, 3)


def test_unexpected_character_raises_with_position():
    with pytest.raises(LexError) as excinfo:
        tokenize("a\n@")
    assert excinfo.value.line == 2


def test_eof_token_present():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].type is TokenType.EOF


def test_range_vs_dot():
    assert types("1..5") == [TokenType.NUMBER, TokenType.DOTDOT,
                             TokenType.NUMBER]
    assert types("r.terminated") == [TokenType.IDENT, TokenType.DOT,
                                     TokenType.IDENT]


def test_superscript_digit_is_a_lex_error():
    # str.isdigit() accepts '²' but int() does not: numbers are decimal runs.
    with pytest.raises(LexError) as excinfo:
        parse_script("SCRIPT s; CONST k = ²; END s;")
    assert str(excinfo.value) == ("unexpected character '²' "
                                  "at line 1, column 21")
    assert (excinfo.value.line, excinfo.value.column) == (1, 21)


def test_non_ascii_decimal_digits_are_numbers():
    assert values("٣ 1٣") == ["٣", "1٣"]
    program = parse_script("SCRIPT s; CONST k = ٣ + 1; "
                           "ROLE a (); BEGIN SKIP END a; END s;")
    assert analyze(program).constants["k"] == 4


@given(text=st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_every_number_token_is_an_int(text):
    try:
        tokens = tokenize(text)
    except LexError:
        return
    for token in tokens:
        if token.type is TokenType.NUMBER:
            int(token.value)
