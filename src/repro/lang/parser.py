"""Recursive-descent parser for the Section III script notation.

Grammar (EBNF; keywords case-insensitive)::

    script      = "SCRIPT" IDENT ";" { header } { roledecl } "END" IDENT [";"]
    header      = "INITIATION" ":" ("DELAYED"|"IMMEDIATE") ";"
                | "TERMINATION" ":" ("DELAYED"|"IMMEDIATE") ";"
                | "CONST" IDENT "=" expr ";"
                | "CRITICAL" ":" crititem { "," crititem } ";"
    crititem    = IDENT [ "[" expr "]" ]
    roledecl    = "ROLE" IDENT [ "[" IDENT ":" expr ".." expr "]" ]
                  [ "(" params ")" ] ";" [ vardecls ] block [ IDENT ] ";"
    params      = param { ";" param }
    param       = ["VAR"] IDENT { "," IDENT } ":" type
    vardecls    = "VAR" { IDENT { "," IDENT } ":" type ";" }
    type        = "ARRAY" "[" expr ".." expr "]" "OF" type
                | "SET" "OF" "[" expr ".." expr "]"
                | "(" IDENT { "," IDENT } ")"
                | IDENT
    block       = "BEGIN" stmts "END"
    stmts       = [ stmt { ";" stmt } [ ";" ] ]
    stmt        = block-stmts | send | receive | if | do | "SKIP" | assign
    send        = "SEND" expr "TO" roleref
    receive     = "RECEIVE" designator "FROM" roleref
    if          = "IF" expr "THEN" body [ "ELSE" body ]
    body        = block | stmt
    do          = "DO" [ "[" IDENT "=" expr ".." expr "]" ]
                  arm { "[]" arm } "OD"
    arm         = [ expr ";" ] [ send | receive ] "->" stmts
    roleref     = IDENT [ "[" expr "]" ]
    designator  = IDENT [ "[" expr "]" ]

Expressions use Pascal-ish precedence:
``OR`` < ``AND`` < ``NOT`` < comparisons/``IN`` < additive < multiplicative.
A call ``name(args)`` is a builtin (``SIZE``) or a message constructor;
``role.terminated`` is the paper's termination query; ``[a, b]`` is a set
display.
"""

from __future__ import annotations

from ..errors import ParseError
from . import ast_nodes as ast
from .lexer import tokenize
from .tokens import Token, TokenType

_STMT_TERMINATORS = ("END", "OD", "ELSE", "FI")

# Token types as module constants: on Python 3.11 each ``TokenType.X``
# goes through ``EnumType.__getattr__`` (about 150 ns), and parsing
# Figure 5 makes thousands of such lookups.
_ARROW = TokenType.ARROW
_ASSIGN = TokenType.ASSIGN
_BOX = TokenType.BOX
_COLON = TokenType.COLON
_COMMA = TokenType.COMMA
_DOT = TokenType.DOT
_DOTDOT = TokenType.DOTDOT
_EOF = TokenType.EOF
_EQ = TokenType.EQ
_GE = TokenType.GE
_GT = TokenType.GT
_IDENT = TokenType.IDENT
_LBRACK = TokenType.LBRACK
_LE = TokenType.LE
_LPAREN = TokenType.LPAREN
_LT = TokenType.LT
_MINUS = TokenType.MINUS
_NE = TokenType.NE
_NUMBER = TokenType.NUMBER
_PLUS = TokenType.PLUS
_RBRACK = TokenType.RBRACK
_RPAREN = TokenType.RPAREN
_SEMI = TokenType.SEMI
_SLASH = TokenType.SLASH
_STAR = TokenType.STAR
_STRING = TokenType.STRING
_KEYWORD = TokenType.KEYWORD

#: The comparison operator each token type spells (``IN`` is a keyword).
_COMPARISONS = {_EQ: "=", _NE: "<>", _LT: "<", _LE: "<=", _GT: ">", _GE: ">="}


class Parser:
    """Parses one script program."""

    def __init__(self, source: str):
        tokens = tokenize(source)
        # A second EOF lets a one-token lookahead read past the end, and
        # nothing advances past the first one.
        tokens.append(tokens[-1])
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ------------------------------------------------------
    # Keyword tokens carry their upper-case spelling, so a keyword test is
    # a type test and one string comparison.  Every method that consumes a
    # token has checked its type first, so it is never the EOF.

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _check(self, type_: TokenType) -> bool:
        return self._tokens[self._pos].type is type_

    def _check_keyword(self, word: str) -> bool:
        token = self._tokens[self._pos]
        return token.type is _KEYWORD and token.value == word

    def _match(self, type_: TokenType) -> Token | None:
        token = self._tokens[self._pos]
        if token.type is type_:
            self._pos += 1
            return token
        return None

    def _match_keyword(self, word: str) -> Token | None:
        token = self._tokens[self._pos]
        if token.type is _KEYWORD and token.value == word:
            self._pos += 1
            return token
        return None

    def _expect(self, type_: TokenType, what: str) -> Token:
        token = self._tokens[self._pos]
        if token.type is not type_:
            raise ParseError(f"expected {what}, found {token.value!r}",
                             token.line, token.column)
        self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._tokens[self._pos]
        if token.type is not _KEYWORD or token.value != word:
            raise ParseError(f"expected {word}, found {token.value!r}",
                             token.line, token.column)
        self._pos += 1
        return token

    def _expect_ident(self, what: str = "identifier") -> Token:
        return self._expect(_IDENT, what)

    # -- program --------------------------------------------------------------

    def parse(self) -> ast.ScriptProgram:
        start = self._expect_keyword("SCRIPT")
        name = self._expect_ident("script name").value
        self._expect(_SEMI, "';'")

        initiation = "DELAYED"
        termination = "DELAYED"
        constants: list[tuple[str, ast.Expr]] = []
        critical: list[tuple[ast.CriticalItem, ...]] = []

        while True:
            if self._match_keyword("INITIATION"):
                self._expect(_COLON, "':'")
                initiation = self._policy_word()
                self._expect(_SEMI, "';'")
            elif self._match_keyword("TERMINATION"):
                self._expect(_COLON, "':'")
                termination = self._policy_word()
                self._expect(_SEMI, "';'")
            elif self._match_keyword("CONST"):
                const_name = self._expect_ident("constant name").value
                self._expect(_EQ, "'='")
                constants.append((const_name, self._expression()))
                self._expect(_SEMI, "';'")
            elif self._match_keyword("CRITICAL"):
                self._expect(_COLON, "':'")
                critical.append(tuple(self._critical_items()))
                self._expect(_SEMI, "';'")
            else:
                break

        roles: list[ast.RoleDeclNode] = []
        while self._check_keyword("ROLE"):
            roles.append(self._role_decl())

        self._expect_keyword("END")
        end_name = self._expect_ident("script name after END").value
        if end_name != name:
            token = self._peek()
            raise ParseError(
                f"END {end_name} does not match SCRIPT {name}",
                token.line, token.column)
        self._match(_SEMI)
        token = self._peek()
        if token.type is not _EOF:
            raise ParseError(f"unexpected trailing input {token.value!r}",
                             token.line, token.column)
        return ast.ScriptProgram(
            name=name, initiation=initiation, termination=termination,
            constants=tuple(constants), critical_sets=tuple(critical),
            roles=tuple(roles), line=start.line)

    def _policy_word(self) -> str:
        if self._match_keyword("DELAYED"):
            return "DELAYED"
        if self._match_keyword("IMMEDIATE"):
            return "IMMEDIATE"
        token = self._peek()
        raise ParseError(f"expected DELAYED or IMMEDIATE, found "
                         f"{token.value!r}", token.line, token.column)

    def _critical_items(self) -> list[ast.CriticalItem]:
        items = [self._critical_item()]
        while self._match(_COMMA):
            items.append(self._critical_item())
        return items

    def _critical_item(self) -> ast.CriticalItem:
        name_token = self._expect_ident("role name")
        index: ast.Expr | None = None
        if self._match(_LBRACK):
            index = self._expression()
            self._expect(_RBRACK, "']'")
        return ast.CriticalItem(name_token.value, index, name_token.line)

    # -- role declarations -------------------------------------------------------

    def _role_decl(self) -> ast.RoleDeclNode:
        start = self._expect_keyword("ROLE")
        name = self._expect_ident("role name").value

        index_var: str | None = None
        index_low: ast.Expr | None = None
        index_high: ast.Expr | None = None
        if self._match(_LBRACK):
            index_var = self._expect_ident("index variable").value
            self._expect(_COLON, "':'")
            index_low = self._expression()
            self._expect(_DOTDOT, "'..'")
            index_high = self._expression()
            self._expect(_RBRACK, "']'")

        params: list[ast.ParamNode] = []
        if self._match(_LPAREN):
            if not self._check(_RPAREN):
                params.extend(self._param_group())
                while self._match(_SEMI):
                    params.extend(self._param_group())
            self._expect(_RPAREN, "')'")
        self._expect(_SEMI, "';'")

        variables: list[ast.VarDeclNode] = []
        if self._check_keyword("VAR"):
            variables = self._var_decls()

        body = self._block()
        # Optional trailing role name: "END sender;"
        if self._check(_IDENT):
            end_name = self._advance().value
            if end_name != name:
                token = self._peek()
                raise ParseError(
                    f"END {end_name} does not match ROLE {name}",
                    token.line, token.column)
        self._match(_SEMI)
        return ast.RoleDeclNode(
            name=name, index_var=index_var, index_low=index_low,
            index_high=index_high, params=tuple(params),
            variables=tuple(variables), body=tuple(body), line=start.line)

    def _param_group(self) -> list[ast.ParamNode]:
        is_var = self._match_keyword("VAR") is not None
        names = [self._expect_ident("parameter name")]
        while self._match(_COMMA):
            names.append(self._expect_ident("parameter name"))
        self._expect(_COLON, "':'")
        type_node = self._type()
        return [ast.ParamNode(t.value, is_var, type_node, t.line)
                for t in names]

    def _var_decls(self) -> list[ast.VarDeclNode]:
        self._expect_keyword("VAR")
        declarations: list[ast.VarDeclNode] = []
        while self._check(_IDENT):
            names = [self._advance()]
            while self._match(_COMMA):
                names.append(self._expect_ident("variable name"))
            self._expect(_COLON, "':'")
            type_node = self._type()
            self._expect(_SEMI, "';'")
            declarations.extend(
                ast.VarDeclNode(t.value, type_node, t.line) for t in names)
        return declarations

    def _type(self) -> ast.TypeNode:
        if self._match_keyword("ARRAY"):
            self._expect(_LBRACK, "'['")
            low = self._expression()
            self._expect(_DOTDOT, "'..'")
            high = self._expression()
            self._expect(_RBRACK, "']'")
            self._expect_keyword("OF")
            return ast.ArrayType(low, high, self._type())
        if self._match_keyword("SET"):
            self._expect_keyword("OF")
            self._expect(_LBRACK, "'['")
            low = self._expression()
            self._expect(_DOTDOT, "'..'")
            high = self._expression()
            self._expect(_RBRACK, "']'")
            return ast.SetType(low, high)
        if self._match(_LPAREN):
            members = [self._expect_ident("enum member").value]
            while self._match(_COMMA):
                members.append(self._expect_ident("enum member").value)
            self._expect(_RPAREN, "')'")
            return ast.EnumType(tuple(members))
        return ast.SimpleType(self._expect_ident("type name").value)

    # -- statements -------------------------------------------------------------

    def _block(self) -> list[ast.Stmt]:
        self._expect_keyword("BEGIN")
        body = self._statements()
        self._expect_keyword("END")
        return body

    def _statements(self) -> list[ast.Stmt]:
        statements: list[ast.Stmt] = []
        while True:
            token = self._tokens[self._pos]
            if token.type is _EOF or token.type is _BOX:
                return statements
            if token.type is _KEYWORD and token.value in _STMT_TERMINATORS:
                return statements
            statements.append(self._statement())
            if not self._match(_SEMI):
                return statements

    def _body(self) -> list[ast.Stmt]:
        """A block or a single statement (for IF branches)."""
        if self._check_keyword("BEGIN"):
            return self._block()
        return [self._statement()]

    def _statement(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        if token.type is _KEYWORD:
            word = token.value
            if word == "SEND":
                return self._send()
            if word == "RECEIVE":
                return self._receive()
            if word == "IF":
                return self._if()
            if word == "DO":
                return self._do()
            if word == "SKIP":
                self._pos += 1
                return ast.SkipStmt(token.line)
        elif token.type is _IDENT:
            return self._assign()
        raise ParseError(f"unexpected token {token.value!r} at start of "
                         f"statement", token.line, token.column)

    def _send(self) -> ast.SendStmt:
        start = self._expect_keyword("SEND")
        value = self._expression()
        self._expect_keyword("TO")
        target = self._role_ref()
        return ast.SendStmt(value, target, start.line)

    def _receive(self) -> ast.ReceiveStmt:
        start = self._expect_keyword("RECEIVE")
        target = self._designator()
        self._expect_keyword("FROM")
        source = self._role_ref()
        return ast.ReceiveStmt(target, source, start.line)

    def _if(self) -> ast.IfStmt:
        start = self._expect_keyword("IF")
        condition = self._expression()
        self._expect_keyword("THEN")
        then_body = self._body()
        else_body: list[ast.Stmt] | None = None
        if self._match_keyword("ELSE"):
            else_body = self._body()
        return ast.IfStmt(condition, tuple(then_body),
                          tuple(else_body) if else_body is not None else None,
                          start.line)

    def _do(self) -> ast.GuardedDo:
        start = self._expect_keyword("DO")
        replicator: tuple[str, ast.Expr, ast.Expr] | None = None
        if self._match(_LBRACK):
            var = self._expect_ident("replicator variable").value
            self._expect(_EQ, "'='")
            low = self._expression()
            self._expect(_DOTDOT, "'..'")
            high = self._expression()
            self._expect(_RBRACK, "']'")
            replicator = (var, low, high)
        arms = [self._guard_arm()]
        while self._match(_BOX):
            arms.append(self._guard_arm())
        self._expect_keyword("OD")
        return ast.GuardedDo(replicator, tuple(arms), start.line)

    def _guard_arm(self) -> ast.GuardArm:
        """``[ cond ; ] [ comm ] -> body``.

        The arm may start with a communication directly (condition true),
        with a boolean condition followed by ``;`` and a communication, or
        be purely boolean.
        """
        token = self._tokens[self._pos]
        condition: ast.Expr | None = None
        comm: ast.SendStmt | ast.ReceiveStmt | None = None

        if self._check_keyword("SEND"):
            comm = self._send()
        elif self._check_keyword("RECEIVE"):
            comm = self._receive()
        else:
            condition = self._expression()
            if self._match(_SEMI):
                nxt = self._tokens[self._pos]
                if self._check_keyword("SEND"):
                    comm = self._send()
                elif self._check_keyword("RECEIVE"):
                    comm = self._receive()
                else:
                    raise ParseError(
                        f"expected SEND or RECEIVE after guard condition, "
                        f"found {nxt.value!r}", nxt.line, nxt.column)
        self._expect(_ARROW, "'->'")
        body = self._statements()
        return ast.GuardArm(condition, comm, tuple(body), token.line)

    def _assign(self) -> ast.Assign:
        target = self._designator()
        token = self._expect(_ASSIGN, "':='")
        value = self._expression()
        return ast.Assign(target, value, token.line)

    def _designator(self) -> ast.Designator:
        name_token = self._expect_ident("designator")
        node: ast.Designator = ast.Name(name_token.value, name_token.line)
        if self._match(_LBRACK):
            index = self._expression()
            self._expect(_RBRACK, "']'")
            node = ast.Index(node, index, name_token.line)
        return node

    def _role_ref(self) -> ast.RoleRef:
        name_token = self._expect_ident("role name")
        index: ast.Expr | None = None
        if self._match(_LBRACK):
            index = self._expression()
            self._expect(_RBRACK, "']'")
        return ast.RoleRef(name_token.value, index, name_token.line)

    # -- expressions ---------------------------------------------------------------

    def _expression(self) -> ast.Expr:
        return self._or_expr()

    def _or_expr(self) -> ast.Expr:
        left = self._and_expr()
        while self._check_keyword("OR"):
            token = self._advance()
            left = ast.Binary("OR", left, self._and_expr(), token.line)
        return left

    def _and_expr(self) -> ast.Expr:
        left = self._not_expr()
        while self._check_keyword("AND"):
            token = self._advance()
            left = ast.Binary("AND", left, self._not_expr(), token.line)
        return left

    def _not_expr(self) -> ast.Expr:
        if self._check_keyword("NOT"):
            token = self._advance()
            return ast.Unary("NOT", self._not_expr(), token.line)
        return self._comparison()

    def _comparison(self) -> ast.Expr:
        left = self._additive()
        token = self._tokens[self._pos]
        op = _COMPARISONS.get(token.type)
        if op is None:
            if token.type is not _KEYWORD or token.value != "IN":
                return left
            op = "IN"
        self._pos += 1
        return ast.Binary(op, left, self._additive(), token.line)

    def _additive(self) -> ast.Expr:
        left = self._multiplicative()
        while self._tokens[self._pos].type in (_PLUS, _MINUS):
            token = self._advance()
            left = ast.Binary(token.value, left, self._multiplicative(),
                              token.line)
        return left

    def _multiplicative(self) -> ast.Expr:
        left = self._unary()
        while self._tokens[self._pos].type in (_STAR, _SLASH):
            token = self._advance()
            left = ast.Binary(token.value, left, self._unary(), token.line)
        return left

    def _unary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        if token.type is _MINUS:
            self._pos += 1
            return ast.Unary("-", self._unary(), token.line)
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        node = self._primary()
        while True:
            if (bracket := self._match(_LBRACK)) is not None:
                index = self._expression()
                self._expect(_RBRACK, "']'")
                node = ast.Index(node, index, bracket.line)
            elif (self._check(_DOT)
                  and (name := self._peek(1)).type is _IDENT
                  and name.value == "terminated"):
                self._advance()  # '.'
                self._advance()  # 'terminated'
                node = self._as_terminated(node)
            else:
                return node

    def _as_terminated(self, node: ast.Expr) -> ast.Terminated:
        if isinstance(node, ast.Name):
            return ast.Terminated(ast.RoleRef(node.ident, None, node.line),
                                  node.line)
        if isinstance(node, ast.Index) and isinstance(node.base, ast.Name):
            return ast.Terminated(
                ast.RoleRef(node.base.ident, node.index, node.line),
                node.line)
        token = self._peek()
        raise ParseError("'.terminated' applies to a role reference",
                         token.line, token.column)

    def _primary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        kind = token.type
        if kind is _IDENT:
            self._pos += 1
            if self._check(_LPAREN):
                self._pos += 1
                args: list[ast.Expr] = []
                if not self._check(_RPAREN):
                    args.append(self._expression())
                    while self._match(_COMMA):
                        args.append(self._expression())
                self._expect(_RPAREN, "')'")
                return ast.Call(token.value, tuple(args), token.line)
            return ast.Name(token.value, token.line)
        if kind is _NUMBER:
            self._pos += 1
            return ast.Num(int(token.value), token.line)
        if kind is _STRING:
            self._pos += 1
            return ast.Str(token.value, token.line)
        if kind is _KEYWORD and token.value in ("TRUE", "FALSE"):
            self._pos += 1
            return ast.Bool(token.value == "TRUE", token.line)
        if kind is _LPAREN:
            self._pos += 1
            inner = self._expression()
            self._expect(_RPAREN, "')'")
            return inner
        if kind is _LBRACK:
            self._pos += 1
            elements: list[ast.Expr] = []
            if not self._check(_RBRACK):
                elements.append(self._expression())
                while self._match(_COMMA):
                    elements.append(self._expression())
            self._expect(_RBRACK, "']'")
            return ast.SetLit(tuple(elements), token.line)
        raise ParseError(f"unexpected token {token.value!r} in expression",
                         token.line, token.column)


def parse_script(source: str) -> ast.ScriptProgram:
    """Parse a script program from source text."""
    return Parser(source).parse()
