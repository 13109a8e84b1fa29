"""Index-aware communication graph: unroll role families, resolve targets.

This module unrolls every bounded role family into its concrete instances
(using the :class:`~repro.lang.analysis.ProgramInfo` family bounds) and
statically evaluates communication-target indices where possible — the
family index variable and replicator variables with compile-time bounds
are known constants per instance, so ``recipient[i - 1]`` inside
``recipient[3]`` resolves to ``recipient[2]``.  The result is a set of
:class:`CommSite` records precise enough to flag out-of-bounds indices,
self-targeting communications, and per-instance (not per-name) unmatched
rendezvous.

An index expression that does not fold to a constant yields ``None``
("unknown"); unknown indices are treated as *possibly matching anything*,
which keeps every check conservative.
"""

from __future__ import annotations

import dataclasses

from ..lang import ast_nodes as ast
from ..lang.analysis import ProgramInfo

#: A concrete role instance: (role name, family index or None for
#: singletons).
Instance = tuple[str, int | None]


def instance_label(instance: Instance) -> str:
    """Human-readable instance name: ``sender`` or ``worker[2]``."""
    name, index = instance
    return name if index is None else f"{name}[{index}]"


def static_eval(expr: ast.Expr, constants: dict[str, int],
                bindings: dict[str, int]) -> int | bool | None:
    """Fold ``expr`` to an int/bool, or ``None`` when not static.

    ``bindings`` carries per-instance values: the family index variable
    and statically-bounded replicator variables.  Never raises — any
    construct outside the foldable subset (variables, parameters, message
    constructors, ``terminated``...) yields ``None``.
    """
    if isinstance(expr, ast.Num):
        return expr.value
    if isinstance(expr, ast.Bool):
        return expr.value
    if isinstance(expr, ast.Name):
        if expr.ident in bindings:
            return bindings[expr.ident]
        if expr.ident in constants:
            return constants[expr.ident]
        return None
    if isinstance(expr, ast.Unary):
        value = static_eval(expr.operand, constants, bindings)
        if value is None:
            return None
        if expr.op == "-":
            return -value
        if expr.op == "NOT":
            return not value
        return None
    if isinstance(expr, ast.Binary):
        left = static_eval(expr.left, constants, bindings)
        right = static_eval(expr.right, constants, bindings)
        if left is None or right is None:
            return None
        op = expr.op
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left // right if right != 0 else None
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
        if op == "AND":
            return bool(left) and bool(right)
        if op == "OR":
            return bool(left) or bool(right)
        return None
    return None


def static_int(expr: ast.Expr, constants: dict[str, int],
               bindings: dict[str, int]) -> int | None:
    """Fold ``expr`` to an int, or ``None`` (booleans do not count)."""
    value = static_eval(expr, constants, bindings)
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    return value


def replicator_bindings(stmt: ast.GuardedDo, constants: dict[str, int],
                        bindings: dict[str, int]
                        ) -> list[dict[str, int]] | None:
    """``bindings`` extended once per value of the DO's replicator.

    A DO without a replicator yields ``bindings`` itself; ``None`` means
    the replicator's bounds do not fold, and the caller decides.
    """
    if stmt.replicator is None:
        return [bindings]
    var, low_expr, high_expr = stmt.replicator
    low = static_int(low_expr, constants, bindings)
    high = static_int(high_expr, constants, bindings)
    if low is None or high is None:
        return None
    return [{**bindings, var: value} for value in range(low, high + 1)]


# ---------------------------------------------------------------------------
# Affine symbolic evaluation over the family-size parameter
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, slots=True)
class Affine:
    """``coeff * N + offset`` over one symbolic size parameter ``N``.

    The parameterized checker (:mod:`repro.analysis.param`) evaluates
    index expressions for *symbolic* instances — the high-boundary member
    ``node[n]`` has index ``Affine(1, 0)``, its predecessor ``n - 1`` is
    ``Affine(1, -1)``, and a concrete index ``2`` is ``Affine(0, 2)``.
    Comparisons are decided **relative to a floor**: ``cmp(other, floor)``
    answers only when the sign of the difference is uniform for every
    ``N >= floor``, and returns ``None`` otherwise — keeping every use
    conservative.
    """

    coeff: int
    offset: int

    def __add__(self, other: "Affine") -> "Affine":
        return Affine(self.coeff + other.coeff, self.offset + other.offset)

    def __sub__(self, other: "Affine") -> "Affine":
        return Affine(self.coeff - other.coeff, self.offset - other.offset)

    def __neg__(self) -> "Affine":
        return Affine(-self.coeff, -self.offset)

    def scale(self, k: int) -> "Affine":
        return Affine(self.coeff * k, self.offset * k)

    def at(self, n: int) -> int:
        """The concrete value at ``N = n``."""
        return self.coeff * n + self.offset


def affine_compare(op: str, left: Affine, right: Affine,
                   floor: int) -> bool | None:
    """Decide ``left <op> right`` uniformly for every ``N >= floor``.

    ``op`` is a surface comparison operator (``=``, ``<>``, ``<``, ``<=``,
    ``>``, ``>=``).  Returns ``None`` when the outcome depends on ``N``.
    The difference ``d = left - right`` ranges over ``[d(floor), +inf)``
    when its ``N`` coefficient is positive, ``(-inf, d(floor)]`` when
    negative, and the single value ``d(floor)`` when zero — comparisons
    are decided from that range.
    """
    d = left - right
    at_floor = d.at(floor)
    lo = at_floor if d.coeff >= 0 else None      # None = unbounded below
    hi = at_floor if d.coeff <= 0 else None      # None = unbounded above

    def zero_attainable() -> bool:
        if d.coeff == 0:
            return d.offset == 0
        if d.offset % d.coeff:
            return False
        return -d.offset // d.coeff >= floor

    if op in ("=", "<>"):
        always = d.coeff == 0 and d.offset == 0
        never = not zero_attainable()
        if always:
            return op == "="
        if never:
            return op == "<>"
        return None
    if op in (">", ">="):
        # a > b  <=>  b < a;  a >= b  <=>  b <= a.
        return affine_compare("<" if op == ">" else "<=", right, left, floor)
    if op == "<":
        if hi is not None and hi < 0:
            return True
        if lo is not None and lo >= 0:
            return False
        return None
    if op == "<=":
        if hi is not None and hi <= 0:
            return True
        if lo is not None and lo > 0:
            return False
        return None
    return None


def role_instances(role: ast.RoleDeclNode, info: ProgramInfo
                   ) -> list[tuple[Instance, dict[str, int]]]:
    """The concrete instances of ``role`` with their index bindings."""
    if not role.is_family:
        return [((role.name, None), {})]
    low, high = info.family_bounds[role.name]
    return [((role.name, i), {role.index_var: i})
            for i in range(low, high + 1)]


@dataclasses.dataclass(frozen=True, slots=True)
class CommSite:
    """One (possibly guarded) communication of one role instance.

    ``partner_index`` is the statically resolved family index, or ``None``
    when the partner is a singleton or the index is dynamic.  ``resolved``
    distinguishes the two: True when the partner instance is fully known
    (singleton, or family with a folded index).  ``guarded`` marks sites
    inside IF branches or guarded-DO arms — *possible* rather than
    unconditional communications.
    """

    owner: Instance
    kind: str                  # "send" | "recv"
    partner_role: str
    partner_index: int | None
    resolved: bool
    line: int
    guarded: bool


class _SiteCollector:
    """Walks one role instance's body collecting :class:`CommSite`\\ s.

    Guarded-DO replicators with compile-time bounds are unrolled so the
    replicator variable is a known constant inside each arm instance;
    dynamic replicator bounds fall back to a single walk with the variable
    unknown.
    """

    def __init__(self, info: ProgramInfo, owner: Instance,
                 bindings: dict[str, int]):
        self.info = info
        self.owner = owner
        self.bindings = bindings
        self.sites: list[CommSite] = []

    def collect(self, body: tuple[ast.Stmt, ...]) -> list[CommSite]:
        self._walk(body, self.bindings, guarded=False)
        return self.sites

    def _comm(self, stmt: ast.SendStmt | ast.ReceiveStmt,
              bindings: dict[str, int], guarded: bool) -> None:
        ref = stmt.partner
        index: int | None = None
        resolved = True
        if ref.index is not None:
            index = static_int(ref.index, self.info.constants, bindings)
            resolved = index is not None
        self.sites.append(CommSite(
            owner=self.owner, kind=stmt.kind, partner_role=ref.name,
            partner_index=index, resolved=resolved, line=stmt.line,
            guarded=guarded))

    def _walk(self, stmts: tuple[ast.Stmt, ...], bindings: dict[str, int],
              guarded: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.SendStmt, ast.ReceiveStmt)):
                self._comm(stmt, bindings, guarded)
            elif isinstance(stmt, ast.IfStmt):
                taken = static_eval(stmt.condition, self.info.constants,
                                    bindings)
                if taken is True:
                    self._walk(stmt.then_body, bindings, guarded=guarded)
                elif taken is False:
                    if stmt.else_body is not None:
                        self._walk(stmt.else_body, bindings, guarded=guarded)
                else:
                    self._walk(stmt.then_body, bindings, guarded=True)
                    if stmt.else_body is not None:
                        self._walk(stmt.else_body, bindings, guarded=True)
            elif isinstance(stmt, ast.GuardedDo):
                arms = replicator_bindings(stmt, self.info.constants,
                                           bindings)
                if arms is None:      # dynamic bounds: var stays unknown
                    arms = [bindings]
                for arm_bindings in arms:
                    for arm in stmt.arms:
                        if arm.comm is not None:
                            self._comm(arm.comm, arm_bindings, guarded=True)
                        self._walk(arm.body, arm_bindings, guarded=True)


def collect_sites(program: ast.ScriptProgram, info: ProgramInfo
                  ) -> list[CommSite]:
    """Every communication site of every role instance, in program order."""
    sites: list[CommSite] = []
    for role in program.roles:
        for instance, bindings in role_instances(role, info):
            sites.extend(
                _SiteCollector(info, instance, bindings).collect(role.body))
    return sites


def terminated_partners(program: ast.ScriptProgram) -> dict[str, set[str]]:
    """Role name -> names of roles whose ``terminated`` status it consults.

    A role that queries ``p.terminated`` anywhere in its body is assumed
    to handle ``p``'s absence (the Figure 5 pattern captures the query in
    a boolean up front, so this is deliberately a whole-body check rather
    than a per-guard one).
    """

    def walk_expr(expr: ast.Expr, into: set[str]) -> None:
        into.update(node.role.name for node in ast.subexpressions(expr)
                    if isinstance(node, ast.Terminated))

    def walk_stmts(stmts: tuple[ast.Stmt, ...], into: set[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                walk_expr(stmt.value, into)
            elif isinstance(stmt, ast.SendStmt):
                walk_expr(stmt.value, into)
            elif isinstance(stmt, ast.IfStmt):
                walk_expr(stmt.condition, into)
                walk_stmts(stmt.then_body, into)
                if stmt.else_body is not None:
                    walk_stmts(stmt.else_body, into)
            elif isinstance(stmt, ast.GuardedDo):
                for arm in stmt.arms:
                    walk_expr(arm.condition, into)
                    if arm.comm is not None:
                        walk_stmts((arm.comm,), into)
                    walk_stmts(arm.body, into)

    result: dict[str, set[str]] = {}
    for role in program.roles:
        consulted: set[str] = set()
        walk_stmts(role.body, consulted)
        result[role.name] = consulted
    return result


def out_of_bounds(site: CommSite, info: ProgramInfo) -> bool:
    """Does ``site`` target a family index outside the declared bounds?"""
    if site.partner_index is None:
        return False
    bounds = info.family_bounds.get(site.partner_role)
    if bounds is None:
        return False
    low, high = bounds
    return not low <= site.partner_index <= high


def is_self_targeting(site: CommSite) -> bool:
    """Does ``site`` name its own instance as the partner?"""
    name, index = site.owner
    if site.partner_role != name:
        return False
    if index is None:
        return True        # singleton naming itself
    return site.resolved and site.partner_index == index
