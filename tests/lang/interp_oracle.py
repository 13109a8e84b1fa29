"""Reference interpreter: role bodies as they ran before compilation.

This is the tree-walking evaluator ``repro.lang.interp`` used before each
role body was compiled to closures: ``Env``, ``_RoleInterpreter``,
``_default_for`` and the body builder ``_make_body``, kept unchanged apart
from this docstring and the imports.  It walks the AST on every step and
resolves every name through the environment chain at run time.  It is the
oracle of ``test_interp_equivalence.py``: swapped in for
``repro.lang.interp._make_body``, it must give every program the same
trace, outputs, blocked set and ``InterpreterError`` as the compiler.
"""

from __future__ import annotations

from typing import Any

from repro.core import (ALL_ABSENT, Cell, ReceiveFrom, RoleContext,
                        SendTo)
from repro.errors import InterpreterError
from repro.lang import ast_nodes as ast
from repro.lang.analysis import ProgramInfo
from repro.lang.interp import Body, _Array, _static_int
from repro.runtime import Choice, ELSE_BRANCH


class Env:
    """A lexically chained mutable environment.

    ``VAR`` parameters are stored as :class:`Cell` objects; reads and
    writes dereference them transparently so the engine's copy-back sees
    every update.
    """

    def __init__(self, values: dict[str, Any], parent: "Env | None" = None):
        self._values = values
        self._parent = parent

    def _owner(self, name: str) -> "Env | None":
        env: Env | None = self
        while env is not None:
            if name in env._values:
                return env
            env = env._parent
        return None

    def lookup(self, name: str) -> Any:
        owner = self._owner(name)
        if owner is None:
            raise InterpreterError(f"unbound name {name!r}")
        value = owner._values[name]
        if isinstance(value, Cell):
            return value.value
        return value

    def assign(self, name: str, value: Any) -> None:
        owner = self._owner(name)
        if owner is None:
            raise InterpreterError(f"assignment to unbound name {name!r}")
        slot = owner._values[name]
        if isinstance(slot, Cell):
            slot.value = value
        else:
            owner._values[name] = value

    def raw(self, name: str) -> Any:
        """The stored slot without Cell dereferencing (for arrays/sets)."""
        owner = self._owner(name)
        if owner is None:
            raise InterpreterError(f"unbound name {name!r}")
        return owner._values[name]

    def child(self, values: dict[str, Any]) -> "Env":
        return Env(values, self)


def _default_for(type_node: ast.TypeNode, info: ProgramInfo) -> Any:
    if isinstance(type_node, ast.SimpleType):
        name = type_node.name.lower()
        if name == "boolean":
            return False
        if name == "integer":
            return 0
        return None
    if isinstance(type_node, ast.EnumType):
        return None
    if isinstance(type_node, ast.SetType):
        return set()
    if isinstance(type_node, ast.ArrayType):
        low = _static_int(type_node.low, info)
        high = _static_int(type_node.high, info)
        return _Array(low, high, _default_for(type_node.element, info))
    raise InterpreterError(f"unknown type {type_node!r}")


class _RoleInterpreter:
    """Executes one role body against a :class:`RoleContext`."""

    def __init__(self, info: ProgramInfo, ctx: RoleContext, env: Env):
        self.info = info
        self.ctx = ctx
        self.env = env

    # -- role references -----------------------------------------------------

    def role_id(self, ref: ast.RoleRef, env: Env) -> Any:
        if ref.index is None:
            return ref.name
        return (ref.name, self.eval(ref.index, env))

    # -- expressions -----------------------------------------------------------

    def eval(self, expr: ast.Expr, env: Env) -> Any:
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.Bool):
            return expr.value
        if isinstance(expr, ast.Str):
            return expr.value
        if isinstance(expr, ast.Name):
            name = expr.ident
            owner_missing = env._owner(name) is None
            if not owner_missing:
                return env.lookup(name)
            if name in self.info.constants:
                return self.info.constants[name]
            if name in self.info.enum_members:
                return name
            raise InterpreterError(f"unbound name {name!r}", expr.line)
        if isinstance(expr, ast.Index):
            base = self.eval(expr.base, env)
            index = self.eval(expr.index, env)
            if isinstance(base, _Array):
                return base.get(index)
            raise InterpreterError(f"cannot index into {base!r}", expr.line)
        if isinstance(expr, ast.Binary):
            return self._binary(expr, env)
        if isinstance(expr, ast.Unary):
            value = self.eval(expr.operand, env)
            if expr.op == "NOT":
                return not value
            if expr.op == "-":
                return -value
            raise InterpreterError(f"unknown unary op {expr.op!r}", expr.line)
        if isinstance(expr, ast.SetLit):
            return {self.eval(e, env) for e in expr.elements}
        if isinstance(expr, ast.Call):
            if expr.name.upper() == "SIZE":
                if len(expr.args) != 1:
                    raise InterpreterError("SIZE takes one argument",
                                           expr.line)
                value = self.eval(expr.args[0], env)
                if isinstance(value, _Array):
                    return len(value.slots)
                return len(value)
            if expr.name.upper() == "TAG":
                if len(expr.args) != 1:
                    raise InterpreterError("TAG takes one argument",
                                           expr.line)
                value = self.eval(expr.args[0], env)
                return value[0] if isinstance(value, tuple) and value \
                    else value
            # Message constructor: a tagged tuple.
            return (expr.name,) + tuple(self.eval(a, env) for a in expr.args)
        if isinstance(expr, ast.Terminated):
            return self.ctx.terminated(self.role_id(expr.role, env))
        raise InterpreterError(f"unknown expression {expr!r}",
                               getattr(expr, "line", None))

    def _binary(self, expr: ast.Binary, env: Env) -> Any:
        op = expr.op
        if op == "AND":
            return bool(self.eval(expr.left, env)) and \
                bool(self.eval(expr.right, env))
        if op == "OR":
            return bool(self.eval(expr.left, env)) or \
                bool(self.eval(expr.right, env))
        left = self.eval(expr.left, env)
        right = self.eval(expr.right, env)
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "IN":
            return left in right
        if op == "+":
            if isinstance(left, (set, frozenset)):
                return set(left) | set(right)
            return left + right
        if op == "-":
            if isinstance(left, (set, frozenset)):
                return set(left) - set(right)
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right
        raise InterpreterError(f"unknown operator {op!r}", expr.line)

    # -- assignment ---------------------------------------------------------------

    def assign(self, target: ast.Designator, value: Any, env: Env) -> None:
        if isinstance(target, ast.Name):
            slot = env.raw(target.ident) if env._owner(target.ident) else None
            if isinstance(slot, _Array) and not isinstance(value, _Array):
                slot.fill(value)   # whole-array assignment
            else:
                env.assign(target.ident, value)
            return
        if isinstance(target, ast.Index):
            base = self.eval(target.base, env)
            if not isinstance(base, _Array):
                raise InterpreterError("indexed assignment needs an array",
                                       target.line)
            base.set(self.eval(target.index, env), value)
            return
        raise InterpreterError(f"invalid assignment target {target!r}")

    # -- statements ------------------------------------------------------------------

    def execute(self, stmts: tuple[ast.Stmt, ...], env: Env) -> Body:
        for stmt in stmts:
            yield from self.execute_one(stmt, env)

    def execute_one(self, stmt: ast.Stmt, env: Env) -> Body:
        if isinstance(stmt, ast.Assign):
            self.assign(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.SendStmt):
            value = self.eval(stmt.value, env)
            yield from self.ctx.send(self.role_id(stmt.target, env), value)
        elif isinstance(stmt, ast.ReceiveStmt):
            value = yield from self.ctx.receive(
                self.role_id(stmt.source, env))
            self.assign(stmt.target, value, env)
        elif isinstance(stmt, ast.IfStmt):
            if self.eval(stmt.condition, env):
                yield from self.execute(stmt.then_body, env)
            elif stmt.else_body is not None:
                yield from self.execute(stmt.else_body, env)
        elif isinstance(stmt, ast.GuardedDo):
            yield from self._guarded_do(stmt, env)
        elif isinstance(stmt, ast.SkipStmt):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise InterpreterError(f"unknown statement {stmt!r}")

    def _instantiate_arms(self, stmt: ast.GuardedDo, env: Env
                          ) -> list[tuple[ast.GuardArm, Env]]:
        """Expand the replicator; keep only arms whose condition holds."""
        instances: list[tuple[ast.GuardArm, Env]] = []
        if stmt.replicator is None:
            environments = [env]
        else:
            var, low_expr, high_expr = stmt.replicator
            low = self.eval(low_expr, env)
            high = self.eval(high_expr, env)
            environments = [env.child({var: i})
                            for i in range(low, high + 1)]
        for arm in stmt.arms:
            for arm_env in environments:
                enabled = (arm.condition is None
                           or bool(self.eval(arm.condition, arm_env)))
                if enabled:
                    instances.append((arm, arm_env))
        return instances

    def _guarded_do(self, stmt: ast.GuardedDo, env: Env) -> Body:
        while True:
            instances = self._instantiate_arms(stmt, env)
            if not instances:
                return
            comm_arms = [(a, e) for a, e in instances if a.comm is not None]
            pure_arms = [(a, e) for a, e in instances if a.comm is None]

            if comm_arms:
                branches = []
                for arm, arm_env in comm_arms:
                    comm = arm.comm
                    if isinstance(comm, ast.SendStmt):
                        branches.append(SendTo(
                            self.role_id(comm.target, arm_env),
                            self.eval(comm.value, arm_env)))
                    else:
                        branches.append(ReceiveFrom(
                            self.role_id(comm.source, arm_env)))
                result = yield from self.ctx.select(
                    branches, immediate=bool(pure_arms))
                if result.index == ALL_ABSENT and not pure_arms:
                    # Every partner is absent: no arm can ever fire.
                    return
                if result.index not in (ELSE_BRANCH, ALL_ABSENT):
                    arm, arm_env = comm_arms[result.index]
                    if isinstance(arm.comm, ast.ReceiveStmt):
                        self.assign(arm.comm.target, result.value, arm_env)
                    yield from self.execute(arm.body, arm_env)
                    continue
                if not pure_arms:
                    continue

            # No communication fired immediately: take a pure arm.
            index = 0
            if len(pure_arms) > 1:
                index = yield Choice(tuple(range(len(pure_arms))))
            arm, arm_env = pure_arms[index]
            yield from self.execute(arm.body, arm_env)


def _make_body(role: ast.RoleDeclNode, info: ProgramInfo):
    """Build the engine role body closure for one role declaration."""

    def body(ctx: RoleContext, **bound: Any) -> Body:
        values: dict[str, Any] = dict(bound)
        for var in role.variables:
            values[var.name] = _default_for(var.type, info)
        if role.index_var is not None:
            values[role.index_var] = ctx.index
        interpreter = _RoleInterpreter(info, ctx, Env(values))
        yield from interpreter.execute(role.body, interpreter.env)

    body.__name__ = f"role_{role.name}"
    return body
