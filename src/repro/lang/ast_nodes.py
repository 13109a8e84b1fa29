"""AST for the Section III script notation."""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional, Union

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SimpleType:
    """A named type (``item``, ``boolean``, ``integer``, ``process_id``...)."""

    name: str


@dataclasses.dataclass(frozen=True)
class EnumType:
    """An inline enumeration, e.g. ``(granted, denied)``."""

    members: tuple[str, ...]


@dataclasses.dataclass(frozen=True)
class ArrayType:
    """``ARRAY [lo..hi] OF elem``."""

    low: "Expr"
    high: "Expr"
    element: "TypeNode"


@dataclasses.dataclass(frozen=True)
class SetType:
    """``SET OF [lo..hi]``."""

    low: "Expr"
    high: "Expr"


TypeNode = Union[SimpleType, EnumType, ArrayType, SetType]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Num:
    """Integer literal."""

    value: int
    line: int = 0


@dataclasses.dataclass(frozen=True)
class Bool:
    """Boolean literal (``true`` / ``false``)."""

    value: bool
    line: int = 0


@dataclasses.dataclass(frozen=True)
class Str:
    """String literal (single-quoted, Pascal style)."""

    value: str
    line: int = 0


@dataclasses.dataclass(frozen=True)
class Name:
    """A bare identifier reference."""

    ident: str
    line: int = 0


@dataclasses.dataclass(frozen=True)
class Index:
    """Array indexing ``base[index]``."""

    base: "Expr"
    index: "Expr"
    line: int = 0


@dataclasses.dataclass(frozen=True)
class Binary:
    """Binary operation; ``op`` is the surface operator text."""

    op: str
    left: "Expr"
    right: "Expr"
    line: int = 0


@dataclasses.dataclass(frozen=True)
class Unary:
    """Unary operation: ``NOT`` or arithmetic negation."""

    op: str
    operand: "Expr"
    line: int = 0


@dataclasses.dataclass(frozen=True)
class SetLit:
    """A set display ``[ ]`` / ``[i]`` / ``[1, 2]``."""

    elements: tuple["Expr", ...]
    line: int = 0


@dataclasses.dataclass(frozen=True)
class Call:
    """``name(args)``: a builtin (``SIZE``) or a message constructor."""

    name: str
    args: tuple["Expr", ...]
    line: int = 0


@dataclasses.dataclass(frozen=True)
class RoleRef:
    """A reference to a role: ``sender`` or ``manager[i]``."""

    name: str
    index: Optional["Expr"] = None
    line: int = 0


@dataclasses.dataclass(frozen=True)
class Terminated:
    """The paper's ``r.terminated`` query."""

    role: RoleRef
    line: int = 0


Expr = Union[Num, Bool, Str, Name, Index, Binary, Unary, SetLit, Call,
             Terminated]

#: Assignable designators.
Designator = Union[Name, Index]


def subexpressions(expr: Expr | None) -> Iterator[Expr]:
    """``expr`` and every expression nested in it, in pre-order.

    A ``Terminated`` query's role index counts as nested; ``None`` (an
    absent index or guard) yields nothing.
    """
    if expr is None:
        return
    yield expr
    if isinstance(expr, Unary):
        yield from subexpressions(expr.operand)
    elif isinstance(expr, Binary):
        yield from subexpressions(expr.left)
        yield from subexpressions(expr.right)
    elif isinstance(expr, Index):
        yield from subexpressions(expr.base)
        yield from subexpressions(expr.index)
    elif isinstance(expr, (SetLit, Call)):
        parts = expr.elements if isinstance(expr, SetLit) else expr.args
        for part in parts:
            yield from subexpressions(part)
    elif isinstance(expr, Terminated):
        yield from subexpressions(expr.role.index)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Assign:
    """Assignment ``designator := expr``."""

    target: Designator
    value: Expr
    line: int = 0


@dataclasses.dataclass(frozen=True)
class SendStmt:
    """``SEND expr TO role``."""

    value: Expr
    target: RoleRef
    line: int = 0

    kind = "send"

    @property
    def partner(self) -> RoleRef:
        """The role this statement communicates with."""
        return self.target


@dataclasses.dataclass(frozen=True)
class ReceiveStmt:
    """``RECEIVE designator FROM role``."""

    target: Designator
    source: RoleRef
    line: int = 0

    kind = "recv"

    @property
    def partner(self) -> RoleRef:
        """The role this statement communicates with."""
        return self.source


@dataclasses.dataclass(frozen=True)
class IfStmt:
    """``IF cond THEN ... [ELSE ...]``."""

    condition: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...] | None
    line: int = 0


@dataclasses.dataclass(frozen=True)
class GuardArm:
    """One arm ``cond ; comm -> body`` of a guarded DO.

    ``condition`` may be ``None`` (always true); ``comm`` may be ``None``
    (a purely boolean guard).
    """

    condition: Expr | None
    comm: SendStmt | ReceiveStmt | None
    body: tuple["Stmt", ...]
    line: int = 0


@dataclasses.dataclass(frozen=True)
class GuardedDo:
    """``DO [i = lo..hi] arm [] arm ... OD`` (replicator optional).

    Iterates until no instantiated guard is enabled, choosing among
    enabled arms like a CSP repetitive command.
    """

    replicator: tuple[str, Expr, Expr] | None
    arms: tuple[GuardArm, ...]
    line: int = 0


@dataclasses.dataclass(frozen=True)
class SkipStmt:
    """The no-op statement ``SKIP``."""

    line: int = 0


Stmt = Union[Assign, SendStmt, ReceiveStmt, IfStmt, GuardedDo, SkipStmt]


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ParamNode:
    """One formal data parameter; ``is_var`` marks Pascal ``VAR`` mode."""

    name: str
    is_var: bool
    type: TypeNode
    line: int = 0


@dataclasses.dataclass(frozen=True)
class VarDeclNode:
    """One local variable declaration of a role."""

    name: str
    type: TypeNode
    line: int = 0


@dataclasses.dataclass(frozen=True)
class RoleDeclNode:
    """A role or indexed role family declaration with its body."""

    name: str
    index_var: str | None          # e.g. "i" in ROLE recipient [i:1..5]
    index_low: Expr | None
    index_high: Expr | None
    params: tuple[ParamNode, ...]
    variables: tuple[VarDeclNode, ...]
    body: tuple[Stmt, ...]
    line: int = 0

    @property
    def is_family(self) -> bool:
        """True for indexed role families."""
        return self.index_var is not None


@dataclasses.dataclass(frozen=True)
class CriticalItem:
    """One item of a critical role set: a role name, optionally indexed."""

    name: str
    index: Expr | None = None
    line: int = 0


@dataclasses.dataclass(frozen=True)
class ScriptProgram:
    """A complete parsed script."""

    name: str
    initiation: str                 # "DELAYED" | "IMMEDIATE"
    termination: str
    constants: tuple[tuple[str, Expr], ...]
    critical_sets: tuple[tuple[CriticalItem, ...], ...]
    roles: tuple[RoleDeclNode, ...]
    line: int = 0
