"""Compiler: turn a parsed script program into engine role bodies.

:func:`compile_program` turns a checked :class:`~repro.lang.ast_nodes.
ScriptProgram` into a :class:`~repro.core.ScriptDef`.  Each role body is
compiled, on the role's first activation, into nested closures; every
later activation of that role reuses them.  The mapping:

* ``INITIATION`` / ``TERMINATION`` headers -> engine policies;
* ``CRITICAL`` headers -> critical role sets (family name = all members);
* a role's ``VAR`` parameters -> ``OUT`` engine parameters (every figure
  uses ``VAR`` for results only), plain parameters -> ``IN``;
* ``SEND e TO r[i]`` -> ``ctx.send((r, i), value)``;
* ``RECEIVE v FROM r`` -> ``v := ctx.receive(r)``;
* ``r.terminated`` -> ``ctx.terminated(r)``;
* guarded ``DO`` -> a CSP-style repetitive command over ``ctx.select``;
* message constructors ``lock(data, id)`` -> tagged tuples
  ``("lock", data, id)``; enum members evaluate to their own name.

Value model: integers, booleans, strings (enum members), tuples (messages),
Python sets (``SET OF``), and arrays as dicts indexed by integer.  A scalar
assigned to an array variable fills every slot (the figures' whole-array
``done := false``).

A compiled expression or statement is a function of one *environment*,
the tuple ``(ctx, values, scope_1, ..., scope_d)``: the role's
:class:`RoleContext`, the activation's values dict (parameters, locals
and the family index) and one single-entry dict per enclosing ``DO``
replicator, outermost first.  Every name is resolved at compile time to a
position in that tuple, a script constant or an enum member.  Statements
that cannot communicate compile to plain functions; sends, receives,
guarded ``DO`` statements and the blocks holding them compile to
generator functions.  DESIGN.md §22 describes the layout.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from ..core import (ALL_ABSENT, Initiation, Mode, Param, ReceiveFrom,
                    RoleContext, ScriptDef, SendTo, Termination)
from ..errors import InterpreterError
from ..runtime import Choice, ELSE_BRANCH
from . import ast_nodes as ast
from .analysis import ProgramInfo, analyze

Body = Generator[Any, Any, Any]

#: A compiled expression: its value in an environment.
Eval = Callable[[tuple], Any]

#: A compiled assignment target: stores a value in an environment.
Store = Callable[[tuple, Any], None]

#: A compiled statement or block, and whether it is a generator function.
Code = tuple[Callable[[tuple], Any], bool]

#: Position of the activation's values dict in an environment.
_ROLE_SCOPE = 1


class _Array:
    """A bounds-checked 1-based-style array (bounds from the declaration)."""

    __slots__ = ("low", "high", "slots")

    def __init__(self, low: int, high: int, default: Any):
        self.low = low
        self.high = high
        self.slots = {i: default for i in range(low, high + 1)}

    def check(self, index: Any) -> int:
        if not isinstance(index, int) or not self.low <= index <= self.high:
            raise InterpreterError(
                f"array index {index!r} out of bounds "
                f"{self.low}..{self.high}")
        return index

    def get(self, index: Any) -> Any:
        return self.slots[self.check(index)]

    def set(self, index: Any, value: Any) -> None:
        self.slots[self.check(index)] = value

    def fill(self, value: Any) -> None:
        for key in self.slots:
            self.slots[key] = value


def _static_int(expr: ast.Expr, info: ProgramInfo) -> int:
    from .analysis import _const_eval
    return _const_eval(expr, info.constants)


def default_factory(type_node: ast.TypeNode,
                    info: ProgramInfo) -> Callable[[], Any]:
    """A function returning a fresh initial value for a local of this type.

    Booleans start False, integers 0, other simple types and enums
    ``None``, sets empty; an array fills every slot with one element
    default.  Array bounds are folded here, once, not per activation.
    """
    if isinstance(type_node, ast.SimpleType):
        name = type_node.name.lower()
        value = False if name == "boolean" else 0 if name == "integer" \
            else None
        return lambda: value
    if isinstance(type_node, ast.EnumType):
        return lambda: None
    if isinstance(type_node, ast.SetType):
        return set
    if isinstance(type_node, ast.ArrayType):
        low = _static_int(type_node.low, info)
        high = _static_int(type_node.high, info)
        element = default_factory(type_node.element, info)
        return lambda: _Array(low, high, element())
    raise InterpreterError(f"unknown type {type_node!r}")


def _constant(value: Any) -> Eval:
    return lambda env: value


def _fail(message: str, line: int | None) -> Eval:
    """An expression that raises, at evaluation, what the checks missed."""
    def fail(env: tuple) -> Any:
        raise InterpreterError(message, line)
    return fail


def _skip(env: tuple) -> None:
    return None


def _binary(op: str, left: Eval, right: Eval, line: int) -> Eval:
    if op == "AND":
        return lambda env: bool(left(env)) and bool(right(env))
    if op == "OR":
        return lambda env: bool(left(env)) or bool(right(env))
    if op == "=":
        return lambda env: left(env) == right(env)
    if op == "<>":
        return lambda env: left(env) != right(env)
    if op == "<":
        return lambda env: left(env) < right(env)
    if op == "<=":
        return lambda env: left(env) <= right(env)
    if op == ">":
        return lambda env: left(env) > right(env)
    if op == ">=":
        return lambda env: left(env) >= right(env)
    if op == "IN":
        return lambda env: left(env) in right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    if op == "/":
        return lambda env: left(env) // right(env)
    if op == "+":
        def add(env: tuple) -> Any:
            a, b = left(env), right(env)
            if isinstance(a, (set, frozenset)):
                return set(a) | set(b)
            return a + b
        return add
    if op == "-":
        def subtract(env: tuple) -> Any:
            a, b = left(env), right(env)
            if isinstance(a, (set, frozenset)):
                return set(a) - set(b)
            return a - b
        return subtract

    def unknown(env: tuple) -> Any:
        left(env), right(env)
        raise InterpreterError(f"unknown operator {op!r}", line)
    return unknown


class _RoleCompiler:
    """Compiles one role declaration's statements to closures.

    ``scopes`` arguments name the replicator variables in scope, outermost
    first; the one at ``scopes[d]`` lives at environment position
    ``_ROLE_SCOPE + 1 + d``.
    """

    def __init__(self, role: ast.RoleDeclNode, info: ProgramInfo):
        self.info = info
        # What an activation's values dict holds.  A local, or the family
        # index, hides a parameter of the same name (it is stored later).
        self.role_names = {p.name for p in role.params}
        plain = {v.name for v in role.variables}
        if role.index_var is not None:
            plain.add(role.index_var)
        self.role_names |= plain
        self.cells = {p.name for p in role.params if p.is_var} - plain

    def _position(self, name: str, scopes: tuple[str, ...]) -> int | None:
        """Where ``name`` lives in an environment, or None if nowhere."""
        for depth in range(len(scopes) - 1, -1, -1):
            if scopes[depth] == name:
                return _ROLE_SCOPE + 1 + depth
        return _ROLE_SCOPE if name in self.role_names else None

    # -- expressions -----------------------------------------------------

    def expr(self, node: ast.Expr, scopes: tuple[str, ...]) -> Eval:
        if isinstance(node, (ast.Num, ast.Bool, ast.Str)):
            return _constant(node.value)
        if isinstance(node, ast.Name):
            return self._name(node, scopes)
        if isinstance(node, ast.Index):
            return self._index(node, scopes)
        if isinstance(node, ast.Binary):
            return _binary(node.op, self.expr(node.left, scopes),
                           self.expr(node.right, scopes), node.line)
        if isinstance(node, ast.Unary):
            return self._unary(node, scopes)
        if isinstance(node, ast.SetLit):
            elements = tuple(self.expr(e, scopes) for e in node.elements)
            return lambda env: {element(env) for element in elements}
        if isinstance(node, ast.Call):
            return self._call(node, scopes)
        if isinstance(node, ast.Terminated):
            role = self.role(node.role, scopes)
            return lambda env: env[0].terminated(role(env))
        return _fail(f"unknown expression {node!r}",
                     getattr(node, "line", None))

    def _name(self, node: ast.Name, scopes: tuple[str, ...]) -> Eval:
        name = node.ident
        position = self._position(name, scopes)
        if position is None:
            if name in self.info.constants:
                return _constant(self.info.constants[name])
            if name in self.info.enum_members:
                return _constant(name)
            return _fail(f"unbound name {name!r}", node.line)
        if position != _ROLE_SCOPE:
            return lambda env: env[position][name]
        if name in self.cells:
            return lambda env: env[1][name].value
        return lambda env: env[1][name]

    def _index(self, node: ast.Index, scopes: tuple[str, ...]) -> Eval:
        base = self.expr(node.base, scopes)
        index = self.expr(node.index, scopes)
        line = node.line

        def item(env: tuple) -> Any:
            array, position = base(env), index(env)
            if isinstance(array, _Array):
                return array.get(position)
            raise InterpreterError(f"cannot index into {array!r}", line)
        return item

    def _unary(self, node: ast.Unary, scopes: tuple[str, ...]) -> Eval:
        operand = self.expr(node.operand, scopes)
        if node.op == "NOT":
            return lambda env: not operand(env)
        if node.op == "-":
            return lambda env: -operand(env)
        op, line = node.op, node.line

        def unknown(env: tuple) -> Any:
            operand(env)
            raise InterpreterError(f"unknown unary op {op!r}", line)
        return unknown

    def _call(self, node: ast.Call, scopes: tuple[str, ...]) -> Eval:
        builtin = node.name.upper()
        args = tuple(self.expr(a, scopes) for a in node.args)
        if builtin in ("SIZE", "TAG"):
            if len(args) != 1:
                return _fail(f"{builtin} takes one argument", node.line)
            arg = args[0]
            if builtin == "SIZE":
                def size(env: tuple) -> int:
                    value = arg(env)
                    if isinstance(value, _Array):
                        return len(value.slots)
                    return len(value)
                return size

            def tag(env: tuple) -> Any:
                value = arg(env)
                return value[0] if isinstance(value, tuple) and value \
                    else value
            return tag
        # Message constructor: a tagged tuple.
        name = node.name
        return lambda env: (name, *[arg(env) for arg in args])

    def role(self, ref: ast.RoleRef, scopes: tuple[str, ...]) -> Eval:
        name = ref.name
        if ref.index is None:
            return _constant(name)
        index = self.expr(ref.index, scopes)
        return lambda env: (name, index(env))

    # -- assignment ------------------------------------------------------

    def store(self, target: ast.Designator, scopes: tuple[str, ...]) -> Store:
        if isinstance(target, ast.Name):
            return self._store_name(target.ident, scopes)
        if isinstance(target, ast.Index):
            base = self.expr(target.base, scopes)
            index = self.expr(target.index, scopes)
            line = target.line

            def store_item(env: tuple, value: Any) -> None:
                array = base(env)
                if not isinstance(array, _Array):
                    raise InterpreterError(
                        "indexed assignment needs an array", line)
                array.set(index(env), value)
            return store_item

        def invalid(env: tuple, value: Any) -> None:
            raise InterpreterError(f"invalid assignment target {target!r}")
        return invalid

    def _store_name(self, name: str, scopes: tuple[str, ...]) -> Store:
        position = self._position(name, scopes)
        if position is None:
            def unbound(env: tuple, value: Any) -> None:
                raise InterpreterError(
                    f"assignment to unbound name {name!r}")
            return unbound
        if position == _ROLE_SCOPE and name in self.cells:
            def store_cell(env: tuple, value: Any) -> None:
                env[1][name].value = value
            return store_cell

        def store_slot(env: tuple, value: Any) -> None:
            scope = env[position]
            slot = scope[name]
            if isinstance(slot, _Array) and not isinstance(value, _Array):
                slot.fill(value)   # whole-array assignment
            else:
                scope[name] = value
        return store_slot

    # -- statements ------------------------------------------------------

    def block(self, stmts: tuple[ast.Stmt, ...],
              scopes: tuple[str, ...]) -> Code:
        steps = tuple(code for code in (self.stmt(s, scopes) for s in stmts)
                      if code[0] is not _skip)
        if not steps:
            return _skip, False
        if len(steps) == 1:
            return steps[0]
        if not any(communicates for _, communicates in steps):
            plain = tuple(run for run, _ in steps)

            def run_plain(env: tuple) -> None:
                for run in plain:
                    run(env)
            return run_plain, False

        def run_steps(env: tuple) -> Body:
            for run, communicates in steps:
                if communicates:
                    yield from run(env)
                else:
                    run(env)
        return run_steps, True

    def stmt(self, node: ast.Stmt, scopes: tuple[str, ...]) -> Code:
        if isinstance(node, ast.Assign):
            store = self.store(node.target, scopes)
            value = self.expr(node.value, scopes)
            return (lambda env: store(env, value(env))), False
        if isinstance(node, ast.SendStmt):
            value = self.expr(node.value, scopes)
            role = self.role(node.target, scopes)

            def send(env: tuple) -> Body:
                message = value(env)
                yield from env[0].send(role(env), message)
            return send, True
        if isinstance(node, ast.ReceiveStmt):
            store = self.store(node.target, scopes)
            role = self.role(node.source, scopes)

            def receive(env: tuple) -> Body:
                store(env, (yield from env[0].receive(role(env))))
            return receive, True
        if isinstance(node, ast.IfStmt):
            return self._if(node, scopes)
        if isinstance(node, ast.GuardedDo):
            return self._guarded_do(node, scopes)
        if isinstance(node, ast.SkipStmt):
            return _skip, False
        message = f"unknown statement {node!r}"   # the parser makes none

        def unknown(env: tuple) -> None:
            raise InterpreterError(message)
        return unknown, False

    def _if(self, node: ast.IfStmt, scopes: tuple[str, ...]) -> Code:
        condition = self.expr(node.condition, scopes)
        then, then_gen = self.block(node.then_body, scopes)
        if node.else_body is None:
            orelse, else_gen = _skip, False
        else:
            orelse, else_gen = self.block(node.else_body, scopes)
        if not (then_gen or else_gen):
            def run_if(env: tuple) -> None:
                if condition(env):
                    then(env)
                else:
                    orelse(env)
            return run_if, False

        def run_if_gen(env: tuple) -> Body:
            if condition(env):
                if then_gen:
                    yield from then(env)
                else:
                    then(env)
            elif else_gen:
                yield from orelse(env)
            else:
                orelse(env)
        return run_if_gen, True

    def _guarded_do(self, node: ast.GuardedDo,
                    scopes: tuple[str, ...]) -> Code:
        """A CSP repetitive command; see DESIGN.md §22 for the arm order."""
        var = low = high = None
        inner = scopes
        if node.replicator is not None:
            var, low_node, high_node = node.replicator
            low = self.expr(low_node, scopes)
            high = self.expr(high_node, scopes)
            inner = scopes + (var,)
        # One arm: (condition or None, branch builder or None for a pure
        # arm, store for a receive or None, body, body is a generator).
        arms = []
        for arm in node.arms:
            condition = (None if arm.condition is None
                         else self.expr(arm.condition, inner))
            body, body_gen = self.block(arm.body, inner)
            branch = store = None
            if isinstance(arm.comm, ast.SendStmt):
                branch = self._send_branch(arm.comm, inner)
            elif arm.comm is not None:
                branch = self._receive_branch(arm.comm, inner)
                store = self.store(arm.comm.target, inner)
            arms.append((condition, branch, store, body, body_gen))

        def run_do(env: tuple) -> Body:
            ctx = env[0]
            while True:
                if var is None:
                    environments = (env,)
                else:
                    environments = [env + ({var: i},) for i in
                                    range(low(env), high(env) + 1)]
                comm_arms: list = []
                pure_arms: list = []
                for arm in arms:
                    condition = arm[0]
                    enabled = comm_arms if arm[1] is not None else pure_arms
                    for arm_env in environments:
                        if condition is None or condition(arm_env):
                            enabled.append((arm, arm_env))
                if not comm_arms and not pure_arms:
                    return

                if comm_arms:
                    branches = [arm[1](arm_env) for arm, arm_env in comm_arms]
                    result = yield from ctx.select(
                        branches, immediate=bool(pure_arms))
                    if result.index == ALL_ABSENT and not pure_arms:
                        # Every partner is absent: no arm can ever fire.
                        return
                    if result.index not in (ELSE_BRANCH, ALL_ABSENT):
                        (_, _, store, body, body_gen), arm_env = \
                            comm_arms[result.index]
                        if store is not None:
                            store(arm_env, result.value)
                        if body_gen:
                            yield from body(arm_env)
                        else:
                            body(arm_env)
                        continue
                    if not pure_arms:
                        continue

                # No communication fired immediately: take a pure arm.
                index = 0
                if len(pure_arms) > 1:
                    index = yield Choice(tuple(range(len(pure_arms))))
                (_, _, _, body, body_gen), arm_env = pure_arms[index]
                if body_gen:
                    yield from body(arm_env)
                else:
                    body(arm_env)
        return run_do, True

    def _send_branch(self, comm: ast.SendStmt,
                     scopes: tuple[str, ...]) -> Eval:
        role = self.role(comm.target, scopes)
        value = self.expr(comm.value, scopes)
        return lambda env: SendTo(role(env), value(env))

    def _receive_branch(self, comm: ast.ReceiveStmt,
                        scopes: tuple[str, ...]) -> Eval:
        role = self.role(comm.source, scopes)
        return lambda env: ReceiveFrom(role(env))


def compile_program(program: ast.ScriptProgram,
                    info: ProgramInfo | None = None) -> ScriptDef:
    """Compile a parsed (and checked) program into a :class:`ScriptDef`."""
    if info is None:
        info = analyze(program)

    script = ScriptDef(
        program.name,
        initiation=(Initiation.DELAYED if program.initiation == "DELAYED"
                    else Initiation.IMMEDIATE),
        termination=(Termination.DELAYED if program.termination == "DELAYED"
                     else Termination.IMMEDIATE))

    for role in program.roles:
        params = tuple(
            Param(p.name, Mode.OUT if p.is_var else Mode.IN)
            for p in role.params)
        body = _make_body(role, info)
        if role.is_family:
            low, high = info.family_bounds[role.name]
            script.add_role_family(role.name, body,
                                   indices=range(low, high + 1),
                                   params=params)
        else:
            script.add_role(role.name, body, params=params)

    for critical in program.critical_sets:
        items: list[Any] = []
        for item in critical:
            if item.index is not None:
                items.append((item.name, _static_int(item.index, info)))
            else:
                items.append(item.name)
        script.critical_role_set(*items)
    return script


def _make_body(role: ast.RoleDeclNode, info: ProgramInfo):
    """Build the engine role body for one role declaration.

    The role compiles on its first activation, so :func:`compile_program`
    does no more work than building the script.  A compile that raises (a
    local's array bounds do not fold) is tried again, and raises again, at
    the next activation.
    """
    compiled: tuple | None = None

    def body(ctx: RoleContext, **bound: Any) -> Body:
        nonlocal compiled
        if compiled is None:
            factories = tuple((var.name, default_factory(var.type, info))
                              for var in role.variables)
            compiled = (factories,
                        *_RoleCompiler(role, info).block(role.body, ()))
        factories, run, communicates = compiled
        values = bound      # a fresh dict: the caller's is unpacked into it
        for name, make in factories:
            values[name] = make()
        if role.index_var is not None:
            values[role.index_var] = ctx.index
        if communicates:
            yield from run((ctx, values))
        else:
            run((ctx, values))

    body.__name__ = f"role_{role.name}"
    return body
