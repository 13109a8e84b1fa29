"""The Section III front end keeps its behaviour: lexer, parser, printer.

Three groups of tests:

* differential — ``tokenize`` against the character-loop lexer kept in
  ``lexer_oracle.py``, on generated text over the full Unicode range;
* corpus goldens — ``repr(parse_script(source))`` for every figure,
  every ``examples/scripts`` script and every analysis fixture, and the
  printer round trip on each;
* error goldens — seeded single-token deletions, duplications and
  adjacent swaps of the corpus, each with the exception it raises (type,
  message, line and column) or the digest of the AST it parses to.

The goldens pin the front end as it parsed before the one-pattern lexer.
After a deliberate change of front-end behaviour, regenerate them from
the repository root with::

    PYTHONPATH=src python -m tests.lang.test_frontend_equivalence
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import figure_corpus
from repro.errors import LexError
from repro.lang import format_program, parse_script, tokenize
from repro.lang.tokens import KEYWORDS, TokenType

from .lexer_oracle import Lexer as OracleLexer
from .test_printer import strip_positions

ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden"
CORPUS_GOLDEN = GOLDEN / "frontend_corpus.json"
MUTANT_GOLDEN = GOLDEN / "frontend_mutants.json"

MUTANTS = 200
MUTANT_SEED = 1983


def corpus() -> list[tuple[str, str]]:
    """(label, source) for every figure, example script and fixture."""
    pairs = list(figure_corpus())
    for pattern in ("examples/scripts/*.script",
                    "tests/analysis/fixtures/*.script"):
        for path in sorted(ROOT.glob(pattern)):
            pairs.append((path.relative_to(ROOT).as_posix(),
                          path.read_text()))
    return pairs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Differential: tokenize against the character-loop oracle
# ---------------------------------------------------------------------------

def lex_outcome(text: str) -> list[tuple] | tuple:
    """The token list as tuples, or the LexError's (message, line, column)."""
    try:
        return token_tuples(tokenize(text))
    except LexError as error:
        return error_tuple(error)


def oracle_outcome(text: str) -> list[tuple] | tuple:
    """The same outcome from the character-loop oracle.

    The oracle lexes any ``str.isdigit()`` run as a number, so ``'²'``
    becomes a NUMBER that ``int()`` rejects.  The production lexer lexes
    numbers from ``str.isdecimal()`` runs and raises a LexError at the
    first other digit, so that is the expected outcome once an oracle
    NUMBER holds one.
    """
    lexer = OracleLexer(text)
    tokens = []
    while not tokens or tokens[-1].type is not TokenType.EOF:
        try:
            token = lexer._next_token()
        except LexError as error:
            return error_tuple(error)
        if token.type is TokenType.NUMBER and not token.value.isdecimal():
            offset = next(i for i, ch in enumerate(token.value)
                          if not ch.isdecimal())
            return error_tuple(LexError(
                f"unexpected character {token.value[offset]!r}",
                token.line, token.column + offset))
        tokens.append(token)
    return token_tuples(tokens)


def token_tuples(tokens) -> list[tuple]:
    return [(t.type, t.value, t.line, t.column) for t in tokens]


def error_tuple(error: LexError) -> tuple:
    return (str(error), error.line, error.column)


FRAGMENTS = ["{", "}", "'", "''", "\n", "\r\n", " ", "\t", "ß", "ſ", "ſkip",
             "²", "٣", "½", "_", "x1", "42", ":=", "->", "..", "[]", "<>",
             "<=", ">=", "{ c }", "'s'", "'it''s'"] + sorted(
                 word.lower() for word in KEYWORDS)

texts = st.lists(st.one_of(st.characters(), st.sampled_from(FRAGMENTS)),
                 max_size=30).map("".join)


@given(text=texts)
@settings(max_examples=1500, deadline=None)
@example(text="'a''")                   # a doubled quote, then the end
@example(text="'a'' b")                 # ... or more text, no closing quote
@example(text="'it''s' 'x'''")
@example(text="ſkip Skip sKIP straße")  # "ſkip".upper() == "SKIP"
@example(text="x { a\nb } y\n  'p\nq' z")
@example(text="{ never closed")
@example(text="1²3 a² ²")
@example(text="٣ 1½ ½a Ⅷ")
def test_tokenize_matches_oracle(text):
    assert lex_outcome(text) == oracle_outcome(text)


def test_word_characters_are_the_oracle_classes():
    """``\\w`` is ``str.isalnum()`` or ``_`` and ``\\d`` is
    ``str.isdecimal()`` on every code point, which is what lets the
    pattern's word and number runs stand for the oracle's loops."""
    every = "".join(map(chr, range(0x110000)))
    assert set(re.findall(r"\w", every)) == {
        ch for ch in every if ch.isalnum() or ch == "_"}
    assert set(re.findall(r"\d", every)) == {
        ch for ch in every if ch.isdecimal()}


# ---------------------------------------------------------------------------
# Corpus goldens and the printer round trip
# ---------------------------------------------------------------------------

CORPUS = corpus()


def corpus_goldens() -> dict[str, str]:
    return {label: repr(parse_script(source)) for label, source in CORPUS}


@pytest.mark.parametrize("label,source", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_parses_to_golden_ast(label, source):
    golden = json.loads(CORPUS_GOLDEN.read_text())
    assert repr(parse_script(source)) == golden[label]


@pytest.mark.parametrize("label,source", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_roundtrips_through_the_printer(label, source):
    program = parse_script(source)
    assert strip_positions(parse_script(format_program(program))) \
        == strip_positions(program)


@pytest.mark.parametrize("label,source", CORPUS, ids=[c[0] for c in CORPUS])
def test_corpus_tokenizes_as_the_oracle(label, source):
    assert lex_outcome(source) == oracle_outcome(source)


# ---------------------------------------------------------------------------
# Error goldens: seeded single-token mutations of the corpus
# ---------------------------------------------------------------------------

#: Token-sized pieces, cut independently of the lexer under test.
_PIECE = re.compile(r"\{[^}]*\}|'(?:[^']|'')*'|\w+|:=|->|\.\.|\[\]|<>|<=|>="
                    r"|\S")


def mutants(count: int = MUTANTS, seed: int = MUTANT_SEED
            ) -> list[tuple[str, str]]:
    """(id, text): one deletion, duplication or adjacent swap each."""
    rng = random.Random(seed)
    found = []
    for k in range(count):
        label, source = CORPUS[k % len(CORPUS)]
        spans = [m.span() for m in _PIECE.finditer(source)
                 if not m.group().startswith("{")]
        op = rng.choice(("delete", "duplicate", "swap"))
        i = rng.randrange(len(spans) - 1)
        (a, b), (c, d) = spans[i], spans[i + 1]
        if op == "delete":
            text = source[:a] + source[b:]
        elif op == "duplicate":
            text = source[:b] + " " + source[a:b] + source[b:]
        else:
            text = (source[:a] + source[c:d] + source[b:c] + source[a:b]
                    + source[d:])
        found.append((f"{k:03d} {label} {op} {i}", text))
    return found


def parse_outcome(text: str) -> list:
    """``["ok", AST digest]`` or ``[type, message, line, column]``."""
    try:
        program = parse_script(text)
    except Exception as error:  # the exception type is part of the outcome
        return [type(error).__name__, str(error),
                getattr(error, "line", None), getattr(error, "column", None)]
    return ["ok", digest(repr(program))]


def mutant_goldens() -> dict[str, dict]:
    return {key: {"text": digest(text), "outcome": parse_outcome(text)}
            for key, text in mutants()}


def test_mutants_raise_the_golden_errors():
    golden = json.loads(MUTANT_GOLDEN.read_text())
    found = mutant_goldens()
    assert list(found) == list(golden)
    for key, entry in found.items():
        assert entry == golden[key], key


def test_mutants_mostly_fail():
    """The mutation corpus has to exercise the error paths it pins."""
    golden = json.loads(MUTANT_GOLDEN.read_text()).values()
    errors = [entry["outcome"][0] for entry in golden
              if entry["outcome"][0] != "ok"]
    assert len(errors) > MUTANTS // 2
    assert set(errors) <= {"LexError", "ParseError"}


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    CORPUS_GOLDEN.write_text(
        json.dumps(corpus_goldens(), indent=1, sort_keys=True) + "\n")
    entries = (f"{json.dumps(key)}: {json.dumps(entry, ensure_ascii=False)}"
               for key, entry in mutant_goldens().items())
    MUTANT_GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n")


if __name__ == "__main__":
    write_goldens()
